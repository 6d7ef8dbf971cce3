"""Trajectory generation and dissipation auditing.

The audits check the defining inequalities directly along simulated
trajectories: storage increment against integrated (CT) or per-step (DT)
supply, relative to one fixed equilibrium triple.  Tolerances carry an
explicit discretization allowance so exact certificates never spuriously
fail from integrator error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import numerics
from .errors import NonFiniteError

# tolerance constants: base audit slack plus an O(dt^4) RK4 allowance per
# unit horizon in continuous time
CT_AUDIT_BASE = 1e-6
DT_AUDIT_TOL = 1e-12


def ct_audit_tol(dt: float, horizon: float = 1.0) -> float:
    return CT_AUDIT_BASE + 10.0 * dt**4 * max(horizon, 1.0)


@dataclass
class Trajectory:
    """Sampled trajectory with aligned time, state, input and output arrays.

    ``inputs`` holds the zero-order-hold value active on the step starting
    at each sample; the final row repeats the last applied input so all
    arrays share one length.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    dt: Optional[float] = None  # None for discrete time

    def __len__(self):
        return self.times.size

    def to_csv(self, path):
        n, m, p = self.states.shape[1], self.inputs.shape[1], self.outputs.shape[1]
        header = (["t"] + [f"x_{i+1}" for i in range(n)]
                  + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(p)])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(len(self)):
                writer.writerow([self.times[k], *self.states[k],
                                 *self.inputs[k], *self.outputs[k]])


def _input_function(u, m: int, dt: float):
    if u is None:
        return lambda t: np.zeros(m)
    if callable(u):
        return lambda t: np.atleast_1d(np.asarray(u(t), dtype=float))
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    return lambda t: arr[min(int(round(t / dt)), arr.shape[0] - 1)]


def simulate_ct(sys, x0, u=None, T: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """RK4 integration with zero-order-hold inputs.

    ``u`` may be None (zero input), a callable of time, or an array of
    per-step values; it is sampled once at the start of each step and held.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("need dt > 0 and T > 0")
    steps = max(1, int(round(T / dt)))
    u_of_t = _input_function(u, sys.m, dt)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = np.empty((steps + 1, sys.n))
    inputs = np.empty((steps + 1, sys.m))
    outputs = np.empty((steps + 1, sys.p))
    states[0] = x
    for k in range(steps):
        uk = u_of_t(k * dt)
        inputs[k] = uk
        outputs[k] = sys.output(x, uk)
        x = numerics.rk4_step(lambda z, v: sys.rhs(z, v), x, uk, dt)
        states[k + 1] = x
    inputs[steps] = inputs[steps - 1]
    outputs[steps] = sys.output(x, inputs[steps])
    numerics.require_finite(states, "trajectory states")
    return Trajectory(times=np.arange(steps + 1) * dt, states=states,
                      inputs=inputs, outputs=outputs, dt=dt)


def simulate_dt(sys, x0, u=None, steps: int = 1) -> Trajectory:
    """Exact iteration of a discrete-time system."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if u is None:
        useq = np.zeros((steps, sys.m))
    else:
        useq = np.atleast_2d(np.asarray(u, dtype=float))
        if useq.shape[0] < steps:
            raise ValueError(f"need {steps} input rows, got {useq.shape[0]}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = np.empty((steps + 1, sys.n))
    inputs = np.empty((steps + 1, sys.m))
    outputs = np.empty((steps + 1, sys.p))
    states[0] = x
    for k in range(steps):
        inputs[k] = useq[k]
        outputs[k] = sys.output(x, useq[k])
        x = sys.step(x, useq[k])
        states[k + 1] = x
    inputs[steps] = inputs[steps - 1]
    outputs[steps] = sys.output(x, inputs[steps])
    numerics.require_finite(states, "trajectory states")
    return Trajectory(times=np.arange(steps + 1, dtype=float), states=states,
                      inputs=inputs, outputs=outputs, dt=None)


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


def _storage_callable(storage, xbar) -> Callable:
    if callable(storage):
        return storage
    P = numerics.symmetrize(np.atleast_2d(np.asarray(storage, dtype=float)))
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    return lambda x: float((np.atleast_1d(x) - xbar) @ P @ (np.atleast_1d(x) - xbar))


def audit_dissipation(traj: Trajectory, storage, supply, ubar, ybar,
                      xbar=None, tol: Optional[float] = None) -> DissipationAudit:
    """Audit the dissipation inequality along one trajectory.

    ``storage`` is a callable V(x), or a matrix P (with ``xbar``) for the
    discrete-time quadratic family.  Supply is compared per step: trapezoid
    of w(u - ubar, y - ybar) in continuous time, the pointwise value in
    discrete time.  Positive entries of ``violations`` beyond ``tol`` fail
    the audit; per-step comparison localizes where the inequality breaks.
    """
    V = _storage_callable(storage, xbar)
    ubar = np.atleast_1d(np.asarray(ubar, dtype=float))
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    N = len(traj) - 1
    if tol is None:
        horizon = traj.times[-1] if traj.dt is not None else 1.0
        tol = ct_audit_tol(traj.dt, horizon) if traj.dt is not None else DT_AUDIT_TOL

    Vs = np.array([V(traj.states[k]) for k in range(N + 1)])
    w = supply.evaluate(traj.inputs - ubar, traj.outputs - ybar)
    if traj.dt is not None:
        supplied = 0.5 * traj.dt * (w[:-1] + w[1:])
    else:
        supplied = w[:-1]
    violations = np.diff(Vs) - supplied
    worst = int(np.argmax(violations)) if N > 0 else 0
    max_v = float(violations[worst]) if N > 0 else 0.0
    return DissipationAudit(
        storage_series=Vs, supply_series=supplied, violations=violations,
        max_violation=max_v, tol=float(tol), passed=bool(max_v <= tol),
        worst_step=worst,
    )


def sphere_probes(n: int, count: int = 32, radius: float = 1.0,
                  seed: int = 12345) -> np.ndarray:
    """Deterministic probe directions on a sphere.

    Evenly spaced angles for n = 2; normalized fixed-seed Gaussian
    directions otherwise.  Reproducible by construction.
    """
    if n == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radius * dirs


def stability_experiment(sys, xbar, ubar=None, radius: float = 0.1,
                         probes: int = 32, horizon: float = 20.0,
                         dt: float = 1e-3, steps: int = 2000,
                         conv_tol: Optional[float] = None) -> dict:
    """Simulate from a shell of probe states with the input held at the
    equilibrium value and report convergence statistics.

    ``conv_tol`` defaults to 5% of the probe radius.  Diverging
    trajectories (non-finite states) count as non-converged.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    if ubar is None:
        ubar = np.zeros(sys.m)
    ubar = np.atleast_1d(np.asarray(ubar, dtype=float))
    if conv_tol is None:
        conv_tol = 0.05 * radius
    offsets = sphere_probes(sys.n, probes, radius)
    finals = []
    converged = 0
    for d in offsets:
        try:
            if sys.discrete:
                useq = np.tile(ubar, (steps, 1))
                traj = simulate_dt(sys, xbar + d, useq, steps=steps)
            else:
                traj = simulate_ct(sys, xbar + d, lambda t: ubar, T=horizon, dt=dt)
            dist = float(np.linalg.norm(traj.states[-1] - xbar))
        except NonFiniteError:
            dist = np.inf
        finals.append(dist)
        if dist <= conv_tol:
            converged += 1
    finals = np.array(finals)
    return {
        "converged_fraction": converged / len(offsets),
        "final_distances": finals,
        "max_final_distance": float(np.max(finals)),
        "conv_tol": float(conv_tol),
        "n_probes": int(len(offsets)),
    }
