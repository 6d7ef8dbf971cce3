"""Trajectory generation and dissipation auditing.

The audits check the defining inequalities directly along simulated
trajectories: storage increment against integrated (CT) or per-step (DT)
supply, relative to one fixed equilibrium triple.  Tolerances carry an
explicit discretization allowance so exact certificates never spuriously
fail from integrator error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .errors import NonFiniteError
from .systems import _Stacked

# tolerance constants: base audit slack plus an O(dt^4) RK4 allowance per
# unit horizon in continuous time
CT_AUDIT_BASE = 1e-6
DT_AUDIT_TOL = 1e-12


def ct_audit_tol(dt: float, horizon: float = 1.0) -> float:
    return CT_AUDIT_BASE + 10.0 * dt**4 * max(horizon, 1.0)


@dataclass
class Trajectory:
    """Sampled trajectory: what the simulator applied and what it saw.

    ``times``, ``states`` and ``outputs`` hold the N + 1 samples of N steps,
    ``inputs`` the N inputs u_0 ... u_{N-1}, each held over its step.  The
    outputs are y_k = h(x_k) + J u_k, with u_{N-1} still held at t_N.

    A run from an (N, n) stack of initial states is one batched trajectory:
    ``states``, ``inputs`` and ``outputs`` gain a leading batch axis,
    (N, samples, n/m/p), while ``times`` stays (samples,).  ``diverged``
    flags the rows that went non-finite and were frozen at their last
    finite state; it is None for a single trajectory.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    dt: Optional[float] = None  # None for discrete time
    diverged: Optional[np.ndarray] = None

    def __len__(self):
        return self.times.size

    def per_step(self, g) -> np.ndarray:
        """g(u, y) integrated over each step with that step's input held:
        g(u_k, y_k) in discrete time, dt/2 [g(u_k, y_k) + g(u_k, y_{k+1})]
        in continuous time, for ``g`` mapping (..., N, m) and (..., N, p)
        stacks to (..., N) values.  The recorded y_{k+1} carries J u_{k+1}."""
        u, y = self.inputs, self.outputs
        if self.dt is None:
            return g(u, y[..., :-1, :])
        return 0.5 * self.dt * (g(u, y[..., :-1, :]) + g(u, y[..., 1:, :]))

    def to_csv(self, path):
        """One row per sample; the last has no input and empty ``u_*`` cells."""
        if self.states.ndim != 2:
            raise ValueError("to_csv writes a single trajectory, not a batch")
        columns = {"x": self.states, "u": self.inputs, "y": self.outputs}
        header = ["t"] + [f"{v}_{i+1}" for v, a in columns.items() for i in range(a.shape[1])]
        no_input = [""] * self.inputs.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(len(self)):
                u = self.inputs[k] if k < len(self.inputs) else no_input
                writer.writerow([self.times[k], *self.states[k], *u, *self.outputs[k]])


def _input_at(u, x0: np.ndarray, m: int, dt: float, min_steps: int = 0):
    """Step-k input lookup: ``u`` is None (zero), a callable of time, a
    constant (m,) or per-row (N, m) array, or per-step values with one more
    axis than ``x0``, held at their last row past the end."""
    if u is None:
        zero = np.zeros(m)
        return lambda k: zero
    if callable(u):
        return lambda k: np.atleast_1d(np.asarray(u(k * dt), dtype=float))
    arr = np.asarray(u, dtype=float)
    if arr.ndim <= x0.ndim:
        return lambda k: arr
    if arr.shape[-2] < min_steps:
        raise ValueError(f"need {min_steps} input rows, got {arr.shape[-2]}")
    last = arr.shape[-2] - 1
    return lambda k: arr[..., min(k, last), :]


def _integrate(sys, x0: np.ndarray, u_at, steps: int, advance,
               dt: Optional[float]) -> Trajectory:
    """The one step loop behind both simulators: ``advance(x, u)`` maps the
    state (or stack of states) to the next one."""
    x = x0
    lead = x.shape[:-1]
    states = np.empty(lead + (steps + 1, sys.n))
    inputs = np.empty(lead + (steps, sys.m))
    diverged = np.zeros(lead, dtype=bool)
    frozen = False
    states[..., 0, :] = x
    # overflow in a diverging row is expected here: it is detected and
    # flagged below, so numpy's warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            uk = u_at(k)
            inputs[..., k, :] = uk
            nxt = advance(x, uk)
            if not np.isfinite(nxt).all():
                if x.ndim == 1:
                    raise NonFiniteError(
                        f"trajectory state contains NaN or Inf entries at step {k + 1}")
                diverged |= ~np.isfinite(nxt).all(axis=-1)
                frozen = True
            if frozen:
                nxt[diverged] = x[diverged]
            x = nxt
            states[..., k + 1, :] = x
        # y_k = h(x_k) + J u_k with u_{N-1} still held at t_N: one call on
        # all states as one 2-D stack, the only shape a stack rule probes
        held = inputs[..., np.minimum(np.arange(steps + 1), steps - 1), :]
        outputs = sys.output(states.reshape(-1, sys.n), held.reshape(-1, sys.m))
    outputs = outputs.reshape(lead + (steps + 1, sys.p))
    times = np.arange(steps + 1) * (1.0 if dt is None else dt)
    return Trajectory(times=times, states=states, inputs=inputs, outputs=outputs,
                      dt=dt, diverged=diverged if lead else None)


def simulate_ct(sys, x0, u=None, T: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """RK4 integration with zero-order-hold inputs.

    ``x0`` is one state (n,) or an (N, n) stack of initial states that are
    integrated together as one batched trajectory; ``sys.f`` and ``sys.h``
    then see the whole stack per evaluation.

    ``u`` may be None (zero input), a callable of time returning one input
    or per-row inputs, a constant (m,) or per-row (N, m) array, or per-step
    values with one more axis than ``x0``: (steps, m), or (N, steps, m) for
    a stack.  It is sampled at the start of each step and held; per-step
    values hold their last row past their end.

    A single trajectory raises NonFiniteError when its state goes
    non-finite.  In a stack such a row is frozen at its last finite state
    and flagged in ``Trajectory.diverged``; the other rows run on.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("need dt > 0 and T > 0")
    steps = max(1, int(round(T / dt)))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return _integrate(sys, x0, _input_at(u, x0, sys.m, dt), steps,
                      lambda x, uk: numerics.rk4_step(sys.rhs, x, uk, dt), dt)


def simulate_dt(sys, x0, u=None, steps: int = 1) -> Trajectory:
    """Exact iteration of a discrete-time system.

    Takes the same one-state or (N, n) stack ``x0`` and the same forms of
    ``u`` as :func:`simulate_ct`, with time counted in steps; per-step input
    values must cover all ``steps``.  Divergence is handled as there.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return _integrate(sys, x0, _input_at(u, x0, sys.m, 1.0, min_steps=steps), steps,
                      sys.step, None)


@dataclass
class DissipationAudit:
    """Per-step comparison of storage increment against supplied energy."""

    storage_series: np.ndarray
    supply_series: np.ndarray  # integrated (CT) or per-step (DT) supply
    violations: np.ndarray  # Delta V minus supplied energy, per step
    max_violation: float
    tol: float
    passed: bool
    worst_step: int

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_csv(self, path, times=None):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "V", "supplied", "violation"])
            for k in range(self.violations.size):
                t = times[k] if times is not None else k
                writer.writerow([t, self.storage_series[k],
                                 self.supply_series[k], self.violations[k]])


def audit_dissipation(traj: Trajectory, storage, supply, ubar, ybar,
                      xbar=None, tol: Optional[float] = None) -> DissipationAudit:
    """Audit the dissipation inequality along one trajectory.

    ``storage`` is a callable V(x), evaluated on all states as one stack,
    or a matrix P (with ``xbar``) for the discrete-time quadratic family,
    which raises RhatNotPsdError unless P is PSD.  Supply is compared per
    step with its input held (:meth:`Trajectory.per_step` of w(u - ubar,
    y - ybar)): a trapezoid in continuous time, w(u_k, y_k) in discrete
    time.  Positive entries of ``violations`` beyond ``tol`` fail the
    audit; per-step comparison localizes where the inequality breaks.
    """
    if traj.states.ndim != 2:
        raise ValueError("audit_dissipation audits a single trajectory, not a batch")
    ubar = np.atleast_1d(np.asarray(ubar, dtype=float))
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    N = len(traj) - 1
    if tol is None:
        horizon = traj.times[-1] if traj.dt is not None else 1.0
        tol = ct_audit_tol(traj.dt, horizon) if traj.dt is not None else DT_AUDIT_TOL

    if callable(storage):
        Vs = _Stacked(storage, 0)(traj.states)
    else:
        P = numerics.psd_storage(storage)
        D = traj.states - np.atleast_1d(np.asarray(xbar, dtype=float))
        Vs = np.einsum("ij,jk,ik->i", D, P, D)
    supplied = traj.per_step(lambda u, y: supply.evaluate(u - ubar, y - ybar))
    violations = np.diff(Vs) - supplied
    worst = int(np.argmax(violations)) if N > 0 else 0
    max_v = float(violations[worst]) if N > 0 else 0.0
    return DissipationAudit(
        storage_series=Vs, supply_series=supplied, violations=violations,
        max_violation=max_v, tol=float(tol), passed=bool(max_v <= tol),
        worst_step=worst,
    )


def sphere_probes(n: int, count: int = 32, radius: float = 1.0) -> np.ndarray:
    """Deterministic probe directions on a sphere.

    Evenly spaced angles for n = 2; normalized Gaussian directions from the
    fixed seed 12345 otherwise.  Reproducible by construction.
    """
    if n == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        dirs = np.random.default_rng(12345).normal(size=(count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radius * dirs


def stability_experiment(sys, xbar, ubar=None, radius: float = 0.1,
                         probes: int = 32, horizon: float = 20.0,
                         dt: float = 1e-3, steps: int = 2000) -> dict:
    """Simulate from a shell of ``probes`` >= 1 probe states with the input
    held at the equilibrium value and report convergence statistics.

    All probes are integrated together as one (probes, n) stack.  A probe
    converges when it ends within ``conv_tol``, 5% of the probe radius.
    Diverging trajectories (non-finite states) count as non-converged with
    an infinite final distance; ``nonconverged`` lists the probe indices
    that did not converge and ``n_diverged`` counts those that diverged.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got probes={probes}")
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    if ubar is None:
        ubar = np.zeros(sys.m)
    ubar = np.atleast_1d(np.asarray(ubar, dtype=float))
    conv_tol = 0.05 * radius
    x0 = xbar + sphere_probes(sys.n, probes, radius)
    if sys.discrete:
        traj = simulate_dt(sys, x0, ubar, steps=steps)
    else:
        traj = simulate_ct(sys, x0, ubar, T=horizon, dt=dt)
    live = ~traj.diverged
    finals = np.full(len(x0), np.inf)
    finals[live] = np.linalg.norm(traj.states[live, -1] - xbar, axis=-1)
    converged = finals <= conv_tol
    return {
        "converged_fraction": int(np.sum(converged)) / len(x0),
        "final_distances": finals,
        "max_final_distance": float(np.max(finals)),
        "conv_tol": float(conv_tol),
        "n_probes": int(len(x0)),
        "nonconverged": np.flatnonzero(~converged).tolist(),
        "n_diverged": int(np.sum(traj.diverged)),
    }
