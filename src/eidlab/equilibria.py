"""Forced equilibria, equilibrium I/O relation sampling, and monotonicity
checks on the sampled relation.

For ``xdot = f(x) + G u`` the assignable equilibria are the states with
``G_perp f(x) = 0`` (``G_perp (x - f(x)) = 0`` in discrete time); each one
carries a unique equilibrium input/output pair
``u = -(GᵀG)⁻¹Gᵀ f(x)``, ``y = h(x) + J u``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, DomainError, NonSquareError, NotAssignableError
from .systems import SupplyRate, _Affine, _write_csv

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
    """An equilibrium configuration (x, u, y) with its assignability residual."""

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

    # residuals --------------------------------------------------------------

    def _gu_at(self, x) -> np.ndarray:
        """What G u must equal for x to be a forced equilibrium with input u:
        -f(x), or x - f(x) in discrete time, at one state or each row of a
        stack; DimensionMismatchError for a state of another width than n."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.system.n,):
            raise DimensionMismatchError(f"state shape {x.shape}, system n = {self.system.n}")
        return x - self.system.f(x) if self.system.discrete else -self.system.f(x)

    def _jac(self, M):
        """x -> M times the Jacobian -J_f (I - J_f in discrete time) of
        :meth:`_gu_at`, or None without an ``f_jac`` (finite differences)."""
        f_jac, I = self.system.f_jac, np.eye(self.system.n) * self.system.discrete
        return None if f_jac is None else (lambda x: M @ (I - f_jac(x)))

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
        """Least-squares inputs of G u = D, D the required G u, the outputs,
        and the residuals |G_perp D| (also of G u = D, as G_perp has
        orthonormal rows), at each row of an (N, n) stack."""
        sys = self.system
        D = self._gu_at(X)
        U = (D @ sys.G) @ self._gram_inv.T
        Y = sys.output(X, U)
        return U, Y, np.linalg.norm(D @ self.G_perp.T, axis=-1)

    def ku_ky(self, xbar) -> IoSample:
        """Equilibrium input/output for an assignable state; raises
        NotAssignableError when the annihilator residual exceeds the tolerance."""
        xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
        u, y, res = (a[0] for a in self._assign(xbar[None]))
        if res > DEFAULT_RESIDUAL_TOL:
            raise NotAssignableError(f"state is not an assignable equilibrium (residual {res:.3e})")
        return IoSample(x=xbar, u=u, y=y, residual=float(res))

    def solve_equilibrium(self, ubar, x0) -> np.ndarray:
        """Newton solve of the forced equilibrium equation for given input,
        to a residual of 1e-11 in at most 80 steps."""
        Gu = self.system.G @ np.atleast_1d(np.asarray(ubar, dtype=float))
        return numerics.newton_root(lambda x: Gu - self._gu_at(x), x0, tol=1e-11, max_iter=80,
                                    jac=self._jac(-np.eye(self.system.n)))

    def project(self, x0) -> np.ndarray:
        """Projection of a state candidate, or of each row of an (N, n)
        stack, onto the assignable-equilibrium set {G_perp f = 0}:
        :func:`numerics.newton_root` on the constraint, to a residual of
        1e-11 in at most 60 steps.  A failed row of a stack comes back NaN;
        one candidate alone raises that solver's error."""
        return numerics.newton_root(self._constraint, x0, tol=1e-11, max_iter=60,
                                    jac=self._jac(self.G_perp))

    # sampling ---------------------------------------------------------------

    def sample_io_relation(self, region, count: int, seed: int = 0) -> "RelationSamples":
        """Sample the equilibrium I/O relation over a state box.

        Candidates are drawn uniformly in ``region = (lo, hi)`` and, for
        underactuated systems, projected onto the equilibrium set as one
        stack.  Deterministic for a fixed seed; candidates whose projection
        fails are counted, not raised.  A converged row (residual <= 1e-11)
        is kept.
        """
        lo, hi = (np.asarray(b, dtype=float) for b in region)
        rng = np.random.default_rng(seed)
        X = self.project(rng.uniform(lo, hi, size=(count, self.system.n)))
        X = X[~np.isnan(X[:, 0])]
        U, Y, _ = self._assign(X)
        return RelationSamples(X, U, Y, count - len(X))


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
            raise DomainError("no samples to export")
        _write_csv(path, {"x": self.x, "u": self.u, "y": self.y})


def check_relation_dissipativity(samples, w: SupplyRate, tol: float = 1e-9) -> dict:
    """Evaluate the supply-rate quadratic form on all pairs of rows of a
    :class:`RelationSamples`.

    The monotone (incrementally passive) check is the special case
    (Q, S, R) = (0, I/2, 0).  With z = [y; u] and M = ``w.block()``,
    reports the minimum pair value and the violating pairs, those below
    ``-tol`` (1 + ‖M‖_F |z_i - z_j|²), relative to the size of the pair's
    terms; a sampled check, not a proof.  A pair's value is
    d_i + d_j - 2 z_iᵀ M z_j, d_i = z_iᵀ M z_i: one matrix product screens
    a block of about _SCREEN_BLOCK pairs (a row at least), so memory stays
    linear in the sample count.  Only pairs that may lie below ``-tol`` or
    be the minimum within a rounding bound, or whose screen is not finite,
    are evaluated exactly as ``w.evaluate(u_i - u_j, y_i - y_j)``; ties go
    to the first pair in row-major order.  A pair whose exact value is not
    finite (a NaN or Inf sample) neither violates nor wins the minimum; such
    pairs are counted in ``nonfinite_pairs``, and any leaves the relation
    not ``monotone``.
    """
    if len(samples) < 2:
        raise DomainError("need at least two samples")
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
                dz = Z[ii] - Z[jj]
                bad = vals < -tol * (1.0 + np.linalg.norm(M) * np.vecdot(dz, dz))
                violations += zip(ii[bad].tolist(), jj[bad].tolist(), vals[bad].tolist())
    return {
        "min_pair_value": float(best),
        "argmin_pair": argmin,
        "n_pairs": n * (n - 1) // 2,
        "violations": violations,
        "monotone": not violations and nonfinite == 0,
        "nonfinite_pairs": nonfinite,
    }


def cocoercivity_check(samples, rho: float) -> dict:
    """Sampled test of (y-y')ᵀ(u-u') >= rho ||y-y'||² over all pairs: the
    relation check with the output-strict supply (-rho I, I/2, 0) at its
    default tolerance, which does not hold over a pair that is not finite."""
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
    - ``f_zero_or_identity``: exact test of a matrix-form drift, true when
      it is x A with A = 0, or A = I in discrete time.
    """
    if not sys.square:
        raise NonSquareError("maximal-monotonicity conditions apply to square systems")
    report = {}
    if samples is not None and len(samples) >= 2:
        report["cocoercive_sampled"] = cocoercivity_check(samples, rho)["holds"]
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, sys.n))
    Jf = numerics.fd_jacobian(sys.f, X) if sys.f_jac is None else sys.f_jac(X)
    Jf = Jf - np.eye(sys.n) * sys.discrete
    report["f_homeomorphism_hint"] = bool(np.all(np.linalg.svd(Jf, compute_uv=False)[:, -1] > 1e-8))
    f = sys._f.fn
    report["f_zero_or_identity"] = (isinstance(f, _Affine) and f.B is None and f.d is None
                                    and np.array_equal(f.A, np.eye(sys.n) * sys.discrete))
    return report
