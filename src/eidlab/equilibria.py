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
from .errors import DimensionMismatchError, NotAssignableError
from .systems import SupplyRate, _Stacked

DEFAULT_RESIDUAL_TOL = 1e-8
_SCREEN_BLOCK = 8192  # pair values screened at once by the relation check


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
    """Equilibrium machinery bound to one system.  A state is assignable
    when its annihilator residual is at most DEFAULT_RESIDUAL_TOL."""

    system: object
    G_perp: np.ndarray = field(init=False)

    def __post_init__(self):
        self.G_perp = annihilator(self.system.G)
        self._gram_inv = np.linalg.inv(self.system.G.T @ self.system.G)

    @property
    def fully_actuated(self) -> bool:
        return self.G_perp.shape[0] == 0

    # residuals --------------------------------------------------------------

    def _gu_at(self, x) -> np.ndarray:
        """What G u must equal for x to be a forced equilibrium with input u:
        -f(x), or x - f(x) in discrete time, at one state or each row of a
        stack."""
        x = np.asarray(x, dtype=float)
        return x - self.system.f(x) if self.system.discrete else -self.system.f(x)

    def _constraint(self, x) -> np.ndarray:
        """G_perp times the required G u, row by row: zero exactly at the
        assignable states."""
        return self._gu_at(x) @ self.G_perp.T

    def assignability_residual(self, x) -> float:
        return float(np.linalg.norm(self._constraint(np.atleast_1d(x))))

    def equilibrium_residual(self, x, u) -> float:
        """Residual of the full equilibrium equation at (x, u)."""
        return float(np.linalg.norm(self.system.G @ np.atleast_1d(u) - self._gu_at(x)))

    # equilibrium maps -------------------------------------------------------

    def _assign(self, X):
        """Least-squares inputs of G u = D, D the required G u, with the
        outputs and the residuals of that equation and of the assignability
        constraint, at each row of an (N, n) stack."""
        sys = self.system
        D = self._gu_at(X)
        U = (D @ sys.G) @ self._gram_inv.T
        Y = sys.output(X, U)
        residual = np.linalg.norm(U @ sys.G.T - D, axis=-1)
        return U, Y, residual, np.linalg.norm(D @ self.G_perp.T, axis=-1)

    def ku_ky(self, xbar) -> IoSample:
        """Equilibrium input/output for an assignable state; raises
        NotAssignableError when the annihilator residual exceeds the tolerance."""
        xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
        u, y, residual, res = (a[0] for a in self._assign(xbar[None]))
        if res > DEFAULT_RESIDUAL_TOL:
            raise NotAssignableError(
                f"state is not an assignable equilibrium (residual {res:.3e})"
            )
        return IoSample(x=xbar, u=u, y=y, residual=float(residual))

    def solve_equilibrium(self, ubar, x0) -> np.ndarray:
        """Newton solve of the forced equilibrium equation for given input,
        to a residual of 1e-11 in at most 80 steps."""
        Gu = self.system.G @ np.atleast_1d(np.asarray(ubar, dtype=float))
        return numerics.newton_root(lambda x: Gu - self._gu_at(x), x0, tol=1e-11, max_iter=80)

    def project(self, x0) -> np.ndarray:
        """Minimum-norm Gauss-Newton projection of a state candidate, or of
        each row of an (N, n) stack, onto the assignable-equilibrium set
        {G_perp f = 0}, all rows iterating together until the residual is at
        most 1e-11.  A row fails on a non-finite residual or Jacobian, a
        rank-deficient Jacobian or 60 steps: in a stack it comes back NaN,
        alone it raises NoConvergenceError."""
        x0 = np.asarray(x0, dtype=float)
        X = np.atleast_2d(x0).copy()
        active = np.arange(0 if self.fully_actuated else len(X))
        with np.errstate(all="ignore"):
            for _ in range(60):
                if not active.size:
                    break
                R = self._constraint(X[active])
                moving = ~(np.linalg.norm(R, axis=1) <= 1e-11)  # keeps NaN rows for the step to fail
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
        U, Y, _, res = self._assign(X)
        keep = res <= DEFAULT_RESIDUAL_TOL
        return RelationSamples(X[keep], U[keep], Y[keep], count - int(keep.sum()))


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
    """A sampled equilibrium I/O relation as columns: row k of ``x`` (N, n),
    ``u`` (N, m) and ``y`` (N, p) is one equilibrium configuration, and
    ``projection_failures`` counts the candidates dropped."""

    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    projection_failures: int = 0

    def __len__(self):
        return len(self.x)

    def to_csv(self, path):
        """Columns x_1..x_n, u_1..u_m, y_1..y_p."""
        if not len(self):
            raise ValueError("no samples to export")
        header = [f"{v}_{i+1}" for v, a in (("x", self.x), ("u", self.u), ("y", self.y))
                  for i in range(a.shape[1])]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(np.hstack([self.x, self.u, self.y]))


def check_relation_dissipativity(samples, w: SupplyRate, tol: float = 1e-9) -> dict:
    """Evaluate the supply-rate quadratic form on all pairs of rows of a
    :class:`RelationSamples`.

    The monotone (incrementally passive) check is the special case
    (Q, S, R) = (0, I/2, 0).  Reports the minimum pair value and the
    violating pairs; a sampled check, not a proof.  With z = [y; u] and
    M = ``w.block()`` a pair's value is d_i + d_j - 2 z_iᵀ M z_j,
    d_i = z_iᵀ M z_i: one matrix product screens a block of about
    _SCREEN_BLOCK pairs (a row at least), so memory stays linear in the
    sample count.  Only pairs that may lie below ``-tol`` or be the minimum
    within a rounding bound, or whose screen is not finite, are evaluated
    exactly as ``w.evaluate(u_i - u_j, y_i - y_j)``; ties go to the first
    pair in row-major order.  A pair whose exact value is not finite (a NaN
    or Inf sample) neither violates nor wins the minimum; such pairs are
    counted in ``nonfinite_pairs``.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    U, Y = samples.u, samples.y
    if (Y.shape[1], U.shape[1]) != (w.p, w.m):
        raise DimensionMismatchError(f"sample (p, m) {Y.shape[1], U.shape[1]} != supply {w.p, w.m}")
    Z, M = np.hstack([Y, U]), w.block()
    n, k = Z.shape
    best, argmin, violations, nonfinite = np.inf, None, [], 0
    cap = np.inf  # least finite upper bound on a pair value screened so far
    with np.errstate(all="ignore"):
        # both forms round within (4k+8) eps sum|M| (|z_i|_1 + |z_j|_1)² plus a
        # floor for underflow, taken as (r_i + r_j)² so it cannot underflow itself
        floor = 2 * k * k * np.finfo(float).eps * np.finfo(float).tiny
        slack = (4 * k + 8) * np.finfo(float).eps * np.abs(M).sum() + floor
        ZM = Z @ M
        d, r = np.sum(ZM * Z, axis=1), np.sqrt(slack) * np.abs(Z).sum(axis=1) + np.sqrt(floor)
        i0 = 0
        while i0 < n - 1:
            i1 = min(n - 1, i0 + max(1, _SCREEN_BLOCK // (n - 1 - i0)))
            screen = d[i0:i1, None] + d[None, i0 + 1:] - 2.0 * (ZM[i0:i1] @ Z[i0 + 1:].T)
            bound = (r[i0:i1, None] + r[None, i0 + 1:]) ** 2
            upper, lower = screen + bound, screen - bound
            pair = np.arange(i0 + 1, n) > np.arange(i0, i1)[:, None]
            finite = pair & np.isfinite(upper)
            cap = min(cap, np.min(upper, where=finite, initial=np.inf))
            ii, jj = np.nonzero(pair & ~(finite & (lower > max(cap, -tol))))
            ii, jj, i0 = ii + i0, jj + i0 + 1, i1
            if ii.size:
                vals = w.evaluate(U[ii] - U[jj], Y[ii] - Y[jj])
                nonfinite += int(np.sum(~np.isfinite(vals)))
                low = np.argmin(np.where(np.isnan(vals), np.inf, vals))
                if vals[low] < best:
                    best, argmin = float(vals[low]), (int(ii[low]), int(jj[low]))
                bad = vals < -tol
                violations += zip(ii[bad].tolist(), jj[bad].tolist(), vals[bad].tolist())
    return {
        "min_pair_value": float(best),
        "argmin_pair": argmin,
        "n_pairs": n * (n - 1) // 2,
        "violations": violations,
        "monotone": len(violations) == 0,
        "nonfinite_pairs": nonfinite,
    }


def cocoercivity_check(samples, rho: float) -> dict:
    """Sampled test of (y-y')ᵀ(u-u') >= rho ||y-y'||² over all pairs: the
    relation check with the output-strict supply (-rho I, I/2, 0) at its
    default tolerance."""
    rep = check_relation_dissipativity(samples, SupplyRate.output_strict(rho, samples.u.shape[1]))
    return {"min_margin": rep["min_pair_value"], "violations": len(rep["violations"]),
            "holds": rep["monotone"], "nonfinite_pairs": rep["nonfinite_pairs"]}


def maximality_conditions(sys, samples: Optional[RelationSamples] = None,
                          rho: float = 1.0, seed: int = 0) -> dict:
    """Numerically checkable sufficient conditions for maximal monotonicity
    of the equilibrium I/O relation of a square system.

    - ``cocoercive_sampled``: the cocoercivity form evaluated on sample pairs
      (requires ``samples``);
    - ``f_homeomorphism_hint``: drift Jacobian (f, or f - id in discrete
      time) nonsingular at 20 random probes in the box [-2, 2]ⁿ — a hint
      only, not a proof;
    - ``f_zero_or_identity``: exact test on catalog metadata.
    """
    if not sys.square:
        raise ValueError("maximal-monotonicity conditions apply to square systems")
    report = {}
    if samples is not None and len(samples) >= 2:
        report["cocoercive_sampled"] = cocoercivity_check(samples, rho)["holds"]
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, sys.n))
    Jf = (_Stacked(sys.f_jac, 2)(X) if sys.f_jac is not None
          else numerics.fd_jacobian(sys.f, X))
    if sys.discrete:
        Jf = Jf - np.eye(sys.n)
    report["f_homeomorphism_hint"] = bool(np.all(np.linalg.svd(Jf, compute_uv=False)[:, -1] > 1e-8))
    flag = "f_is_identity" if sys.discrete else "f_is_zero"
    report["f_zero_or_identity"] = bool(sys.meta.get(flag, False))
    return report
