"""Closed-form gain bounds and empirical gain estimation.

The closed forms all come from the same completion argument: an
input-feedforward/output-strict supply (-a, 1/2, b) implies the finite-gain
supply (-1/delta, 0, gamma^2) for any delta > 1/(2a), with
gamma^2 = Gamma(delta) = (b + delta/2) / (a - 1/(2 delta)).  Gamma is
strictly convex on its domain and minimized at
delta* = (sqrt(4ab+1) + 1) / (2a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numerics
from .errors import DomainError, NonFiniteError, RankDeficientError
from .sim import simulate_ct, simulate_dt
from .systems import _positive

__all__ = [
    "GainBound", "FeasibleRegion", "gamma_completion", "ifp_osp_gain",
    "dt_gradient_gain", "ahu_gain", "empirical_gain", "gaussian_disturbances",
]


@dataclass
class GainBound:
    """A certified L2 (or ell2) gain with its provenance parameters."""

    gamma: float
    formula_id: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise DomainError(f"gain must be finite and nonnegative, got {self.gamma}")


def gamma_completion(a: float, b: float):
    """Minimum of Gamma(delta) = (b + delta/2)/(a - 1/(2 delta)) over
    delta > 1/(2a), returned as (gamma^2, delta*); a > 0 and b >= 0."""
    _positive("a", a)
    _positive("b", b, strict=False)
    root = np.sqrt(4.0 * a * b + 1.0)
    delta_star = (root + 1.0) / (2.0 * a)
    gamma_sq = (1.0 / a**2) * (a * b + (1.0 + root) / 4.0) / (1.0 - 1.0 / (1.0 + root))
    return float(gamma_sq), float(delta_star)


def ifp_osp_gain(a: float, b: float) -> GainBound:
    """Finite gain implied by the supply -a yᵀy + yᵀu + b uᵀu (a > 0, b >= 0)."""
    gamma_sq, delta_star = gamma_completion(a, b)
    return GainBound(gamma=float(np.sqrt(gamma_sq)), formula_id="ifp_osp",
                     parameters={"a": float(a), "b": float(b),
                                 "gamma_sq": gamma_sq, "delta_star": delta_star})


def dt_gradient_gain(mu: float, alpha: float) -> GainBound:
    """ell2 gain bound of the disturbed gradient step x+ = x - alpha(grad phi - v).

    The method is output-strict with modulus mu and input-feedforward with
    excess alpha/2, so this is the completion bound at (a, b) = (mu, alpha/2).
    Tends to 1/mu as alpha -> 0 and increases monotonically in alpha.
    """
    _positive("mu", mu)
    _positive("alpha", alpha)
    gamma_sq, delta_star = gamma_completion(mu, 0.5 * alpha)
    return GainBound(gamma=float(np.sqrt(gamma_sq)), formula_id="dt_gradient",
                     parameters={"mu": float(mu), "alpha": float(alpha),
                                 "gamma_sq": gamma_sq, "delta_star": delta_star})


def ahu_gain(M, A, K) -> GainBound:
    """Equilibrium-independent disturbance gain of the augmented saddle flow.

    gamma* = 1 / lambda_min(M + AᵀKA) for diagonal positive M, full-row-rank
    A and PSD K; also returns the certifying output-strictness coefficient
    alpha = 2 gamma^2 lambda_min.
    """
    M, A, K = (np.atleast_2d(np.asarray(B, dtype=float)) for B in (M, A, K))
    K = numerics.require_psd(K, "K")[0]
    if np.any(M - np.diag(np.diagonal(M)) != 0.0) or np.any(np.diagonal(M) <= 0):
        raise DomainError("M must be diagonal with positive entries")
    if not numerics.full_row_rank(A):
        raise RankDeficientError("A must have full row rank")
    lam_min = numerics.sym_eigen(M + A.T @ K @ A)[0]
    if lam_min <= 0:
        raise DomainError("M + AᵀKA must be positive definite")
    gamma = 1.0 / lam_min
    return GainBound(gamma=float(gamma), formula_id="ahu",
                     parameters={"lambda_min": float(lam_min),
                                 "alpha": float(2.0 * gamma**2 * lam_min)})


@dataclass
class FeasibleRegion:
    """Achievable input-feedforward/output-strict parameter pairs (nu, rho)
    for the gradient flow with output y = g x + j u.

    Membership is the conjunction of the feedthrough condition
    j - rho j^2 > nu and the curvature budget mu >= rho g^2 + beta^2 with
    beta = -g rho j / sqrt(j - rho j^2 - nu).
    """

    mu: float
    g: float
    j: float

    def __post_init__(self):
        for name in ("mu", "g", "j"):
            _positive(name, getattr(self, name))

    # boundary curves --------------------------------------------------------

    def rho_max_feedthrough(self, nu: float) -> float:
        """Largest rho allowed by j - rho j^2 > nu (zero when infeasible)."""
        return max((self.j - nu) / self.j**2, 0.0)

    def rho_max_curvature(self, nu: float) -> float:
        """Largest rho allowed by the curvature budget; closed form
        mu (j - nu) / (mu j^2 + g^2 (j - nu))."""
        jn = self.j - nu
        if jn <= 0:
            return 0.0
        return self.mu * jn / (self.mu * self.j**2 + self.g**2 * jn)

    @property
    def nu_intercept(self) -> float:
        return self.j

    @property
    def rho_intercept_feedthrough(self) -> float:
        return 1.0 / self.j

    @property
    def rho_intercept_curvature(self) -> float:
        return self.mu / (self.mu * self.j + self.g**2)

    def membership(self, nu: float, rho: float) -> bool:
        if rho < 0:
            return False
        slack = self.j - rho * self.j**2 - nu
        if slack <= 0:
            return False
        beta = -self.g * rho * self.j / np.sqrt(slack)
        return bool(self.mu >= rho * self.g**2 + beta**2 - 1e-12)


# ---------------------------------------------------------------------------
# empirical gains


def gaussian_disturbances(count: int, m: int, steps: int, seed: int = 0,
                          scale: float = 1.0, support: float = 0.6):
    """Truncated random Gaussian signals: active on an initial fraction of
    the horizon so the trajectory has time to settle back."""
    active = max(1, int(support * steps))
    sig = np.zeros((count, steps, m))
    sig[:, :active] = scale * np.random.default_rng(seed).normal(size=(count, active, m))
    return list(sig)


def empirical_gain(sys, xbar, disturbances, horizon: Optional[float] = None,
                   dt: float = 1e-3) -> dict:
    """Empirical L2 (ell2) gain from an equilibrium: max over the disturbance
    set of ||y - ybar|| / ||v||, starting at x(0) = xbar so the storage
    starts from zero.

    Signals of equal length are simulated together as one batch, each as
    per-step input values (a continuous-time run longer than a signal holds
    its last value; a discrete-time signal is followed by one zero input,
    so the response h(x_N) to its last sample counts).  Both energies are
    ``Trajectory.per_step`` sums.  A lower bound on the true gain by
    construction.  The report flags truncation when the final state has not
    settled back to the equilibrium.
    """
    disturbances = [np.atleast_2d(np.asarray(v, dtype=float)) for v in disturbances]
    if not disturbances:
        raise DomainError("disturbance set is empty")
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    ybar = sys.h(xbar)
    by_length = {}
    for v in disturbances:
        by_length.setdefault(v.shape[0], []).append(v)
    best = 0.0
    truncated = False
    for length, group in by_length.items():
        V = np.stack(group)
        x0 = np.tile(xbar, (len(group), 1))
        if sys.discrete:
            traj = simulate_dt(sys, x0, np.pad(V, ((0, 0), (0, 1), (0, 0))), steps=length + 1)
        else:
            T = horizon if horizon is not None else length * dt
            traj = simulate_ct(sys, x0, V, T=T, dt=dt)
        num = np.sqrt(traj.per_step(lambda u, y: np.sum((y - ybar) ** 2, axis=-1)).sum(axis=-1))
        den = np.sqrt(traj.per_step(lambda u, y: np.sum(u**2, axis=-1)).sum(axis=-1))
        if traj.diverged.any():
            raise NonFiniteError("trajectory states became non-finite")
        live = den > 1e-14
        if not live.any():
            continue
        settle = np.linalg.norm(traj.states[:, -1] - xbar, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(V.reshape(len(group), -1), axis=-1))
        truncated |= bool(np.any(live & (settle > 1e-4 * scale)))
        best = max(best, float(np.max(num[live] / den[live])))
    if not np.isfinite(best):
        raise NonFiniteError("trajectory norms became non-finite")
    return {"gain": best, "truncated": truncated, "n_signals": len(disturbances)}
