"""Forced equilibria, equilibrium I/O relation sampling, and monotonicity
checks on the sampled relation.

For ``xdot = f(x) + G u`` the assignable equilibria are the states with
``G_perp f(x) = 0`` (``G_perp (x - f(x)) = 0`` in discrete time); each one
carries a unique equilibrium input/output pair
``u = -(GᵀG)⁻¹Gᵀ f(x)``, ``y = h(x) + J u``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numerics
from .errors import NotAssignableError
from .systems import SupplyRate, _evaluate_stack

DEFAULT_RESIDUAL_TOL = 1e-8


def annihilator(G) -> np.ndarray:
    """Full-rank left annihilator of G with orthonormal rows.

    Rows span the orthogonal complement of range(G).  For a fully actuated
    system (m = n) the annihilator is empty and a (0, n) array is returned.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n, m = G.shape
    if m == n:
        return np.zeros((0, n))
    # columns of Q beyond rank(G) span the orthogonal complement
    Q, _ = np.linalg.qr(G, mode="complete")
    return Q[:, m:].T


@dataclass
class IoSample:
    """An equilibrium configuration (x, u, y) with its residual."""

    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    residual: float = 0.0


@dataclass
class EquilibriumMap:
    """Equilibrium machinery bound to one system."""

    system: object
    tol: float = DEFAULT_RESIDUAL_TOL
    G_perp: np.ndarray = field(init=False)

    def __post_init__(self):
        self.G_perp = annihilator(self.system.G)
        self._gram_inv = np.linalg.inv(self.system.G.T @ self.system.G)

    @property
    def fully_actuated(self) -> bool:
        return self.G_perp.shape[0] == 0

    # residuals --------------------------------------------------------------

    def _constraint(self, x) -> np.ndarray:
        """G_perp f(x), or G_perp (x - f(x)) in discrete time, row by row."""
        sys = self.system
        if sys.discrete:
            return (x - sys.f(x)) @ self.G_perp.T
        return sys.f(x) @ self.G_perp.T

    def assignability_residual(self, x) -> float:
        return float(np.linalg.norm(self._constraint(np.atleast_1d(x))))

    def equilibrium_residual(self, x, u) -> float:
        """Residual of the full equilibrium equation at (x, u)."""
        sys = self.system
        r = sys.f(x) + sys.G @ np.atleast_1d(u)
        if sys.discrete:
            r = r - np.atleast_1d(x)
        return float(np.linalg.norm(r))

    # equilibrium maps -------------------------------------------------------

    def _assign(self, X):
        """Inputs, outputs, and residuals of the equilibrium equation G u = D
        and of the assignability constraint, at each row of an (N, n) stack."""
        sys = self.system
        F = sys.f(X)
        D = X - F if sys.discrete else -F
        U = (D @ sys.G) @ self._gram_inv.T
        Y = sys.h(X) + U @ sys.J.T
        residual = np.linalg.norm(U @ sys.G.T - D, axis=-1)
        return U, Y, residual, np.linalg.norm(D @ self.G_perp.T, axis=-1)

    def ku_ky(self, xbar) -> IoSample:
        """Equilibrium input/output for an assignable state; raises
        NotAssignableError when the annihilator residual exceeds the tolerance."""
        xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
        u, y, residual, res = (a[0] for a in self._assign(xbar[None]))
        if res > self.tol:
            raise NotAssignableError(
                f"state is not an assignable equilibrium (residual {res:.3e})"
            )
        return IoSample(x=xbar, u=u, y=y, residual=float(residual))

    def solve_equilibrium(self, ubar, x0, tol: float = 1e-11,
                          max_iter: int = 80) -> np.ndarray:
        """Newton solve of the forced equilibrium equation for given input."""
        sys = self.system
        ubar = np.atleast_1d(np.asarray(ubar, dtype=float))
        if sys.discrete:
            F = lambda x: sys.f(x) + sys.G @ ubar - x
        else:
            F = lambda x: sys.f(x) + sys.G @ ubar
        return numerics.newton_root(F, x0, tol=tol, max_iter=max_iter)

    def project(self, x0, tol: float = 1e-11, max_iter: int = 60) -> np.ndarray:
        """Minimum-norm Gauss-Newton projection of a state candidate, or of
        each row of an (N, n) stack, onto the assignable-equilibrium set
        {G_perp f = 0}, all rows iterating together.  A row fails on a
        non-finite residual or Jacobian, a rank-deficient Jacobian or
        ``max_iter`` steps: in a stack it comes back NaN, alone it raises
        NoConvergenceError."""
        x0 = np.asarray(x0, dtype=float)
        X = np.atleast_2d(x0).copy()
        active = np.arange(0 if self.fully_actuated else len(X))
        with np.errstate(all="ignore"):
            for _ in range(max_iter):
                if not active.size:
                    break
                R = self._constraint(X[active])
                moving = ~(np.linalg.norm(R, axis=1) <= tol)  # keeps NaN rows for the step to fail
                active, R = active[moving], R[moving]
                if not active.size:
                    break
                step = _min_norm_step(numerics.fd_jacobian(self._constraint, X[active]), R)
                X[active] -= step  # a failed row turns NaN and leaves the loop
                active = active[~np.isnan(step[:, 0])]
        X[active] = np.nan
        if x0.ndim == 1 and np.isnan(X[0, 0]):
            raise numerics.NoConvergenceError("projection onto equilibrium set failed")
        return X if x0.ndim > 1 else X[0]

    # sampling ---------------------------------------------------------------

    def sample_io_relation(self, region, count: int, seed: int = 0) -> "RelationSamples":
        """Sample the equilibrium I/O relation over a state box.

        Candidates are drawn uniformly in ``region = (lo, hi)`` and, for
        underactuated systems, projected onto the equilibrium set as one
        stack.  Deterministic for a fixed seed; candidates whose projection
        fails are counted, not raised.
        """
        lo, hi = (np.asarray(b, dtype=float) for b in region)
        rng = np.random.default_rng(seed)
        X = self.project(rng.uniform(lo, hi, size=(count, self.system.n)))
        X = X[~np.isnan(X[:, 0])]
        samples = []
        if len(X):
            U, Y, residual, res = self._assign(X)
            keep = res <= self.tol
            samples = [IoSample(x=x, u=u, y=y, residual=float(r)) for x, u, y, r
                       in zip(X[keep], U[keep], Y[keep], residual[keep])]
        return RelationSamples(samples=samples, projection_failures=count - len(samples),
                               seed=seed)


def _min_norm_step(J, R):
    """Minimum-norm solutions s_k of J_k s_k = r_k for a (K, q, n) stack of
    Jacobians, q < n, by one batched SVD with lstsq's rank cutoff; NaN rows
    where J_k or r_k is not finite or J_k is not of full row rank."""
    ok = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(R).all(axis=1)
    step = np.full((len(J), J.shape[2]), np.nan)
    U, s, Vt = np.linalg.svd(J[ok], full_matrices=False)
    full = s[:, -1:] > np.finfo(float).eps * max(J.shape[1:]) * s[:, :1]
    coef = np.einsum("kji,kj->ki", U, R[ok]) / s
    step[ok] = np.where(full, np.einsum("kin,ki->kn", Vt, coef), np.nan)
    return step


@dataclass
class RelationSamples:
    samples: list
    projection_failures: int = 0
    seed: int = 0

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def to_csv(self, path):
        """Columns x_1..x_n, u_1..u_m, y_1..y_p."""
        if not self.samples:
            raise ValueError("no samples to export")
        s0 = self.samples[0]
        header = [f"{v}_{i+1}" for v, a in (("x", s0.x), ("u", s0.u), ("y", s0.y))
                  for i in range(a.size)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s in self.samples:
                writer.writerow(list(s.x) + list(s.u) + list(s.y))


def check_relation_dissipativity(samples, w: SupplyRate, tol: float = 1e-9) -> dict:
    """Evaluate the supply-rate quadratic form on all pairs of I/O samples.

    The monotone (incrementally passive) check is the special case
    (Q, S, R) = (0, I/2, 0).  Reports the minimum pair value and the
    violating pairs; a sampled check, not a proof.  Pairs are evaluated one
    row at a time, so memory stays linear in the sample count.
    """
    items = list(samples)
    if len(items) < 2:
        raise ValueError("need at least two samples")
    U = np.array([s.u for s in items])
    Y = np.array([s.y for s in items])
    min_value = np.inf
    argmin = None
    violations = []
    for i in range(len(items) - 1):
        vals = w.evaluate(U[i] - U[i + 1:], Y[i] - Y[i + 1:])
        j = int(np.argmin(vals))
        if vals[j] < min_value:
            min_value = float(vals[j])
            argmin = (i, i + 1 + j)
        violations += [(i, i + 1 + int(k), float(vals[k]))
                       for k in np.flatnonzero(vals < -tol)]
    return {
        "min_pair_value": float(min_value),
        "argmin_pair": argmin,
        "n_pairs": len(items) * (len(items) - 1) // 2,
        "violations": violations,
        "monotone": len(violations) == 0,
    }


def cocoercivity_check(samples, rho: float, tol: float = 1e-9) -> dict:
    """Sampled test of (y-y')ᵀ(u-u') >= rho ||y-y'||² over all pairs: the
    relation check with the output-strict supply (-rho I, I/2, 0)."""
    items = list(samples)
    if len(items) < 2:
        raise ValueError("need at least two samples")
    rep = check_relation_dissipativity(
        items, SupplyRate.output_strict(rho, items[0].u.size), tol)
    return {"min_margin": rep["min_pair_value"], "violations": len(rep["violations"]),
            "holds": rep["monotone"]}


def maximality_conditions(sys, samples: Optional[RelationSamples] = None,
                          rho: float = 1.0, seed: int = 0,
                          probes: int = 20, box: float = 2.0) -> dict:
    """Numerically checkable sufficient conditions for maximal monotonicity
    of the equilibrium I/O relation of a square system.

    - ``cocoercive_sampled``: the cocoercivity form evaluated on sample pairs
      (requires ``samples``);
    - ``f_homeomorphism_hint``: drift Jacobian (f, or f - id in discrete
      time) nonsingular at random probes — a hint only, not a proof;
    - ``f_zero_or_identity``: exact test on catalog metadata.
    """
    if not sys.square:
        raise ValueError("maximal-monotonicity conditions apply to square systems")
    report = {}
    if samples is not None and len(samples) >= 2:
        report["cocoercive_sampled"] = cocoercivity_check(samples, rho)["holds"]
    X = np.random.default_rng(seed).uniform(-box, box, size=(probes, sys.n))
    Jf = (_evaluate_stack(sys.f_jac, X, 2) if sys.f_jac is not None
          else numerics.fd_jacobian(sys.f, X))
    if sys.discrete:
        Jf = Jf - np.eye(sys.n)
    report["f_homeomorphism_hint"] = bool(np.all(np.linalg.svd(Jf, compute_uv=False)[:, -1] > 1e-8))
    if sys.discrete:
        report["f_zero_or_identity"] = bool(sys.meta.get("f_is_identity", False))
    else:
        report["f_zero_or_identity"] = bool(sys.meta.get("f_is_zero", False))
    return report
