"""Hill-Moylan-type certificate verification.

Continuous time: for a convex generator V the Bregman family
``V_xb(x) = V(x) - V(xb) - ∇V(xb)ᵀ(x - xb)`` certifies equilibrium-
independent dissipativity with the quadratic supply (Q, S, R) iff there are
W and ell(x, xb) with

  (a)  [∇V(x)-∇V(xb)]ᵀ[f(x)-f(xb)] = ΔhᵀQΔh - ||ell||²
  (b)  ½[∇V(x)-∇V(xb)]ᵀG = Δhᵀ(QJ+S) - ellᵀW
  (c)  WᵀW = R + JᵀS + SᵀJ + JᵀQJ  (=: Rhat)

Discrete time uses the quadratic family ``V_xb(x) = ||x - xb||_P²`` with the
analogous three conditions, where (c) becomes WᵀW = Rhat - GᵀPG.

Verification here is pointwise over sampled (x, xb) pairs with explicit
tolerances: quantified sampled evidence, not a proof.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import numerics
from .equilibria import EquilibriumMap
from .errors import DimensionMismatchError
from .systems import SectorBounds, StaticNonlinearity, StorageGenerator, SupplyRate, _Stacked

DEFAULT_TOL_A = 1e-7
DEFAULT_TOL_B = 1e-7
DEFAULT_TOL_C = 1e-10
DEFAULT_PAIR_COUNT = 2000


def bregman(generator: StorageGenerator, xbar, x) -> float:
    """Bregman divergence V(x) - V(xb) - ∇V(xb)ᵀ(x - xb)."""
    return BregmanStorage(generator, xbar)(x)


@dataclass
class BregmanStorage:
    """Storage function anchored at one equilibrium state, at one state (a
    float) or on an (N, n) stack; V(xb) and ∇V(xb) are computed once."""

    generator: StorageGenerator
    xbar: np.ndarray

    def __post_init__(self):
        self.xbar = np.atleast_1d(np.asarray(self.xbar, dtype=float))
        self._vbar = self.generator._values("V", self.xbar)
        self._gbar = self.generator._values("grad_V", self.xbar)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v = self.generator._values("V", x) - self._vbar - (x - self.xbar) @ self._gbar
        return float(v) if x.ndim < 2 else v

    def grad(self, x) -> np.ndarray:
        return self.generator._values("grad_V", x) - self._gbar


def sample_pairs(sys, region, count: int = DEFAULT_PAIR_COUNT, seed: int = 0) -> np.ndarray:
    """Sample ``count`` >= 1 pairs as the (count, 2, n) array of rows (x_k, x̄_k).

    States x are uniform in the box; the equilibria x̄ are projected into
    the assignable set.  Row 0 is always the degenerate pair (x̄₀, x̄₀) —
    it forces a = 0 and b-difference = 0 and catches sign errors cheaply.
    """
    if count < 1:
        raise ValueError(f"need at least one pair, got count={count}")
    lo, hi = (np.asarray(b, dtype=float) for b in region)
    rng = np.random.default_rng(seed)
    eq = EquilibriumMap(sys).sample_io_relation(region, max(2, count // 8), seed=seed + 1).x
    if not len(eq):
        raise ValueError("no equilibria found in the sampling region")
    X = rng.uniform(lo, hi, size=(count - 1, sys.n))
    picks = rng.integers(len(eq), size=len(X))
    return np.stack([np.vstack([eq[:1], X]), eq[np.r_[0, picks]]], axis=1)


def canonical_w(rhat) -> np.ndarray:
    """Symmetric PSD square root of Rhat, the canonical constant factor.

    Any other valid W differs from this one by a left orthogonal factor, so
    nothing is lost by the choice.  Raises RhatNotPsdError when Rhat has an
    eigenvalue below -DEFAULT_TOL_C (no constant W exists).
    """
    return numerics.psd_sqrt(rhat, DEFAULT_TOL_C)


@dataclass
class ResidualStats:
    """Largest residuals; each worst index and worst pair [x, x̄] names the pair
    attaining it, and ``nonfinite_pairs`` counts pairs with a non-finite residual."""

    max_a_violation: float
    max_b_residual: float
    c_residual: float
    worst_a_index: int
    worst_b_index: int
    worst_a_pair: list
    worst_b_pair: list
    nonfinite_pairs: int


@dataclass
class EidCertificate:
    """Outcome of a sampled EID verification (continuous or discrete time)."""

    system_name: str
    supply: SupplyRate
    W: np.ndarray
    mode: str
    tolerances: dict
    stats: ResidualStats
    n_pairs: int
    passed: bool
    seed: Optional[int] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "system": self.system_name,
            "supply": {"Q": self.supply.Q.tolist(), "S": self.supply.S.tolist(),
                       "R": self.supply.R.tolist()},
            "W": self.W.tolist(),
            "mode": self.mode,
            "tolerances": self.tolerances,
            "residuals": asdict(self.stats),
            "n_pairs": self.n_pairs,
            "seed": self.seed,
            "verdict": self.verdict,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _stack_pairs(pairs, n: int):
    """The (N, n) stacks X, X̄ of an (N, 2, n) pair set, or a DimensionMismatchError."""
    P = np.asarray(pairs, dtype=float)
    if P.size != 2 * n * len(P):
        raise DimensionMismatchError(f"pairs of shape {P.shape} are not (N, 2, {n})")
    return P.reshape(len(P), 2, n).transpose(1, 0, 2)


def _pair_terms(sys, storage, X, Xbar):
    """The supply-independent terms at each row of the (N, n) pair stacks
    X, X̄: ΔH, the storage terms s, the storage part Cs of the
    b-differences C = ΔH (QJ+S) - Cs and the size t of the terms of s.

    ``storage`` is a StorageGenerator in continuous time, where s = Δ∇Vᵀ Δf,
    Cs = ½ Δ∇Vᵀ G and t = |Δ∇V| |Δf|, and a symmetric PSD matrix P in
    discrete time, where s = ΔfᵀPΔf - ΔxᵀPΔx, Cs = ΔfᵀPG and
    t = ‖P‖ (|Δf|² + |Δx|²).
    """
    dF = sys.f(X) - sys.f(Xbar)
    dH = sys.h(X) - sys.h(Xbar)
    ff = np.vecdot(dF, dF)
    if sys.discrete:
        dX = X - Xbar
        s = (np.einsum("ij,jk,ik->i", dF, storage, dF)
             - np.einsum("ij,jk,ik->i", dX, storage, dX))
        t = np.linalg.norm(storage) * (ff + np.vecdot(dX, dX))
        return dH, s, (dF @ storage) @ sys.G, t
    dgrad = storage._values("grad_V", X) - storage._values("grad_V", Xbar)
    t = np.sqrt(np.vecdot(dgrad, dgrad)) * np.sqrt(ff)
    return dH, np.einsum("ij,ij->i", dgrad, dF), 0.5 * dgrad @ sys.G, t


@np.errstate(over="ignore", invalid="ignore")  # a non-finite pair is reported, not warned
def _dissipation_stacks(sys, storage, X, Xbar, *supplies) -> list:
    """Per supply, Rhat_eff = Rhat (less GᵀPG in discrete time), the
    (N, m+1, m+1) stack of dissipation matrices D = [[a, cᵀ], [c, Rhat_eff]]
    at the rows of the (N, n) pair stacks X, X̄, with a = ΔhᵀQΔh - s and
    c = (QJ+S)ᵀΔh - Cs, and the pair scales σ = t + ‖Q‖ |Δh|² + |c|, from
    one evaluation of the pair terms.  A pair passes (a)-(c) with the best
    W and ell exactly when its D is PSD, which every verdict judges up to
    rounding relative to 1 + σ, the size of the terms D is formed from.  A
    pair whose σ is not finite has D all NaN, the worst value of every
    verdict.  ``storage`` is a StorageGenerator in continuous time or a PSD
    matrix P in discrete time, whose check comes first; an empty pair set
    is a ValueError."""
    if sys.discrete:
        storage = numerics.psd_storage(storage)
    if not len(X):
        raise ValueError("need at least one pair")
    dH, s, Cs, t = _pair_terms(sys, storage, X, Xbar)
    hh = np.vecdot(dH, dH)
    stacks = []
    for w in supplies:
        rhat_eff = w.rhat(sys.J)
        if sys.discrete:
            rhat_eff = rhat_eff - sys.G.T @ storage @ sys.G
        D = np.empty((len(s), sys.m + 1, sys.m + 1))
        D[:, 0, 0] = np.einsum("ij,jk,ik->i", dH, w.Q, dH) - s
        D[:, 0, 1:] = D[:, 1:, 0] = C = dH @ (w.Q @ sys.J + w.S) - Cs
        D[:, 1:, 1:] = rhat_eff
        # ‖Q‖ is the Frobenius norm, a bound on the spectral one
        sigma = t + np.vdot(w.Q, w.Q) ** 0.5 * hh + np.sqrt(np.vecdot(C, C))
        if not np.isfinite(sigma).all():  # all of D: σ may overflow where D does not
            D[~np.isfinite(sigma)] = np.nan
        stacks.append((rhat_eff, D, sigma))
    return stacks


def _residuals(sys, D, X, Xbar, W, W_pinv, ell, mode):
    """The (a) violations and (b) residuals at each row of the dissipation
    stack D of the pairs X, X̄: condition (a) is the gap ||ell||² - a, (b)
    the residual ||Wᵀ ell - c||, with one product by the pseudo-inverse W_pinv
    of W or one ``ell`` call."""
    C = D[:, 0, 1:]
    if ell is None:
        # minimum-norm solution of Wᵀ ell = c: any kernel component of Wᵀ
        # only makes condition (a) harder, so this is the favourable choice
        L = C @ W_pinv
    else:
        # ell(x, xb) on the stacks X, X̄ as one (N, 2n) stack, or row by row
        n = X.shape[1]
        L = _Stacked(lambda Z: ell(Z[..., :n], Z[..., n:]))(np.hstack([X, Xbar]))
        if L.shape[-1] < W.shape[0]:
            raise DimensionMismatchError(
                f"ell has {L.shape[-1]} components but W has {W.shape[0]} rows")
    # a longer ell pads W with zero rows, which leave WᵀW unchanged
    b_res = np.linalg.norm(L[:, :W.shape[0]] @ W - C, axis=1)
    gap = np.einsum("ij,ij->i", L, L) - D[:, 0, 0]
    return (np.abs(gap) if mode == "equality" else np.maximum(gap, 0.0)), b_res


def _verify_eid(sys, w: SupplyRate, storage, pairs, W, ell, mode,
                tol_a, tol_b, tol_c, seed) -> EidCertificate:
    """Conditions (a)-(c) on every pair, for either time domain, read from
    the pairs' dissipation stack and scales.  The min-norm ell of every pair
    is one product by W's pseudo-inverse: from the ``eigh`` that forms the
    canonical W (:func:`numerics.psd_sqrt_pinv`), or ``pinv`` of a given W."""
    if mode not in ("equality", "inequality"):
        raise ValueError(f"unknown mode {mode!r}")
    X, Xbar = _stack_pairs(pairs, sys.n)
    rhat_eff, D, sigma = _dissipation_stacks(sys, storage, X, Xbar, w)[0]
    W_pinv = None
    if W is None:
        # clipped: an indefinite Rhat_eff fails (c) by at least |lambda_min|
        W, W_pinv = numerics.psd_sqrt_pinv(rhat_eff, np.inf)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape[1] != sys.m:
        raise DimensionMismatchError(f"W must have {sys.m} columns")
    if W_pinv is None and ell is None:  # a given W, with lstsq's rcond=None cutoff
        W_pinv = np.linalg.pinv(W, rcond=np.finfo(float).eps * max(W.shape))
    c_res = float(np.linalg.norm(W.T @ W - rhat_eff))

    a_viol, b_res = _residuals(sys, D, X, Xbar, W, W_pinv, ell, mode)
    # argmax takes the first NaN as the largest value: finite maxima, finite pairs
    ia, ib = int(a_viol.argmax()), int(b_res.argmax())
    finite = np.isfinite(a_viol[ia] + b_res[ib])
    stats = ResidualStats(max_a_violation=float(a_viol[ia]), max_b_residual=float(b_res[ib]),
                          c_residual=c_res, worst_a_index=ia, worst_b_index=ib,
                          worst_a_pair=[X[ia].tolist(), Xbar[ia].tolist()],
                          worst_b_pair=[X[ib].tolist(), Xbar[ib].tolist()],
                          nonfinite_pairs=0 if finite else int(np.sum(~np.isfinite(a_viol + b_res))))
    # 1 + σ >= 1, so a worst residual within its tolerance needs no scale
    within = lambda r, i, tol: r[i] <= tol or (r / (1.0 + sigma)).max() <= tol
    passed = bool(c_res <= tol_c and within(a_viol, ia, tol_a) and within(b_res, ib, tol_b))
    return EidCertificate(
        system_name=sys.name, supply=w, W=W, mode=mode,
        tolerances={"tol_a": tol_a, "tol_b": tol_b, "tol_c": tol_c},
        stats=stats, n_pairs=len(X), passed=passed, seed=seed,
    )


def verify_eid_ct(sys, w: SupplyRate, gen: StorageGenerator, pairs,
                  W: Optional[np.ndarray] = None, ell: Optional[Callable] = None,
                  mode: str = "inequality", tol_a: float = DEFAULT_TOL_A,
                  tol_b: float = DEFAULT_TOL_B, tol_c: float = DEFAULT_TOL_C,
                  seed: Optional[int] = None) -> EidCertificate:
    """Check the continuous-time EID conditions on sampled (x, xb) pairs.

    ``pairs`` is the (N, 2, n) array of rows (x_k, x̄_k) that :func:`sample_pairs`
    returns.  ``mode="inequality"`` accepts condition (a) as LHS <= RHS + tol,
    which is how all the worked examples establish EID; ``mode="equality"`` is
    for exact certificates.  Pair k passes (a) and (b) when its residuals are
    at most ``tol_a`` and ``tol_b`` times 1 + σ_k, σ_k the size of the terms
    its dissipation matrix is formed from; ``tol_c`` is absolute.  A residual
    that is not finite is the worst one, is counted in ``nonfinite_pairs``
    and fails the certificate.
    """
    if sys.discrete:
        raise DimensionMismatchError("verify_eid_ct expects a continuous-time system")
    return _verify_eid(sys, w, gen, pairs, W, ell, mode, tol_a, tol_b, tol_c, seed)


def verify_eid_dt(sys, w: SupplyRate, P, pairs,
                  W: Optional[np.ndarray] = None, ell: Optional[Callable] = None,
                  mode: str = "inequality", tol_a: float = DEFAULT_TOL_A,
                  tol_b: float = DEFAULT_TOL_B, tol_c: float = DEFAULT_TOL_C,
                  seed: Optional[int] = None) -> EidCertificate:
    """Discrete-time analogue of :func:`verify_eid_ct` with storage
    ``V_xb(x) = ||x - xb||_P²`` for a PSD matrix P."""
    if not sys.discrete:
        raise DimensionMismatchError("verify_eid_dt expects a discrete-time system")
    return _verify_eid(sys, w, P, pairs, W, ell, mode, tol_a, tol_b, tol_c, seed)


@dataclass
class FactorizationResult:
    """Dissipation matrix data at one (x, xb) pair.

    A negative PSD margin at any pair certifies non-EID for the given
    (supply, storage) combination.
    """

    a: float
    b_difference: np.ndarray
    rhat_eff: np.ndarray
    D: np.ndarray
    psd_margin: float
    rank: int


def factor_dissipation(sys, w: SupplyRate, storage, pair) -> FactorizationResult:
    """The dissipation matrix D = [[a, (b(x)-b(xb))ᵀ], [b(x)-b(xb), Rhat_eff]]
    at one pair, the one-pair read of :func:`_dissipation_stacks`, its PSD
    margin and its rank (eigenvalues above 1e-9 relative to the largest).
    ``storage`` is a StorageGenerator in continuous time or a PSD matrix P in
    discrete time.  A pair that is not finite raises NonFiniteError."""
    rhat_eff, (D,), _ = _dissipation_stacks(sys, storage, *_stack_pairs([pair], sys.n), w)[0]
    eig = numerics.sym_eigen(D)
    rank = int(np.sum(eig > 1e-9 * max(abs(eig[-1]), 1.0)))
    return FactorizationResult(a=float(D[0, 0]), b_difference=D[1:, 0], rhat_eff=rhat_eff,
                               D=D, psd_margin=float(eig[0]), rank=rank)


def supply_margin(sys, w0: SupplyRate, w1: SupplyRate, storage, pairs):
    """The largest theta in [0, 1] at which (1-theta) w0 + theta w1 has D ⪰ 0
    on every pair, and the index in ``pairs`` of the binding pair: ``(None,
    worst pair)`` if w0 fails or a pair is not finite, ``(1.0, None)`` if w1
    passes.  Each pair has a rounding slack of 1e-12 (1 + σ), σ the larger
    of its scales under w0 and w1, and theta is a multiple of 2⁻³⁰.

    D is affine in theta, so phi(theta), the least over pairs of λ_min(D)
    plus slack, is concave.  A bracket lo (phi >= 0) < hi (phi < 0) on the
    2⁻³⁰ grid starts at [0, 1]; 2⁻³⁰ is tried first, where an exact
    certificate ends, then the root of the binding pair's tangent at hi (one
    ``eigh`` of its D), which concavity puts at or above the answer, floored
    to the grid and clipped inside the bracket.  A slope that is not
    negative, and any step after 30 tangent steps, takes the grid midpoint:
    at most 63 :func:`numerics.stack_eigvalsh` solves of the stack (closed
    form at m = 1), 3 at an exact certificate and typically 5 to 9, where a
    30-step bisection takes 33.  ``storage`` is as for :func:`factor_dissipation`.
    """
    (_, D0, s0), (_, D1, s1) = _dissipation_stacks(sys, storage, *_stack_pairs(pairs, sys.n),
                                                   w0, w1)
    dD, slack, q = D1 - D0, 1e-12 * (1.0 + np.maximum(s0, s1)), 2.0 ** -30
    margin = lambda theta: numerics.stack_eigvalsh(D0 + theta * dD)[:, 0] + slack
    at = margin(0.0)
    if not at.min() >= 0:
        return None, int(np.argmin(at))
    at = margin(1.0)
    if at.min() >= 0:
        return 1.0, None
    lo, hi, theta, tangents = 0.0, 1.0, q, 0
    while True:
        m = margin(theta)
        lo, hi, at = (theta, hi, at) if m.min() >= 0 else (lo, theta, m)
        if hi - lo <= q:
            return float(lo), int(np.argmin(at))
        k = int(np.argmin(at))
        v = np.linalg.eigh(D0[k] + hi * dD[k])[1][:, 0]
        slope = v @ dD[k] @ v  # of λ_min(D_k) at hi; NaN fails the test below
        # tangents from above converge at least as fast as bisection unless
        # phi is flat at its root, where the budget of 30 bounds the search
        if slope < 0 and tangents < 30:
            theta, tangents = hi - at[k] / slope, tangents + 1
        else:
            theta = 0.5 * (lo + hi)
        theta = min(max(np.floor(theta / q) * q, lo + q), hi - q)


def sector_supply(bounds: SectorBounds) -> SupplyRate:
    """Supply rate satisfied by any nonlinearity in the incremental sector."""
    return SupplyRate(-np.eye(bounds.m), 0.5 * (bounds.K1 + bounds.K2),
                      -bounds.K1 @ bounds.K2, warn_definite=False)


def check_sector(psi: StaticNonlinearity, bounds: SectorBounds, probes,
                 tol: float = 1e-9) -> dict:
    """Validate a declared incremental sector by sampling pairs.

    Evaluates the incremental dissipation form :func:`sector_supply` on
    each of at least one probe pair of width ``bounds.m`` and reports the
    minimum margin; the sector holds when no margin is below ``-tol``
    (1 + ‖M‖ |Δ[ψ; z]|²), M the supply's block, relative to the size of the
    pair's terms.  A margin that is not finite is counted in
    ``nonfinite_pairs`` and makes the minimum NaN, which does not hold.
    """
    if len(probes) < 1:
        raise ValueError("need at least one probe pair")
    Z = np.asarray(probes, dtype=float).reshape(len(probes), 2, -1)
    if Z.shape[-1] != bounds.m:
        raise DimensionMismatchError(f"probe width {Z.shape[-1]} != sector m = {bounds.m}")
    Psi = _Stacked(psi)(Z.reshape(-1, Z.shape[-1])).reshape(Z.shape)
    w, dz, dpsi = sector_supply(bounds), Z[:, 1] - Z[:, 0], Psi[:, 1] - Psi[:, 0]
    margins = w.evaluate(dz, dpsi)
    nonfinite = ~np.isfinite(margins)
    margins[nonfinite] = np.nan  # the worst margin, which no tolerance passes
    floor = -tol * (1.0 + np.linalg.norm(w.block()) * np.sum(dz * dz + dpsi * dpsi, axis=1))
    return {"min_margin": float(margins.min()), "violations": int(np.sum(margins < floor)),
            "holds": bool(np.all(margins >= floor)), "nonfinite_pairs": int(nonfinite.sum())}


def verify_kyp_lti(F, G, H, J, w: SupplyRate, P, tol: float = 1e-9) -> dict:
    """LTI dissipativity check for a GIVEN quadratic storage xᵀPx.

    Assembles M(P) = [[FᵀP+PF, PG], [GᵀP, 0]] - [H J; 0 I]ᵀ [Q S; Sᵀ R]
    [H J; 0 I] and passes iff λ_max(M) <= tol — equivalent to the existence
    of an (L, W) factor completing the linear matrix equality.
    """
    F, G, H, J, P = (np.atleast_2d(np.asarray(A, dtype=float)) for A in (F, G, H, J, P))
    P = numerics.symmetrize(P)
    n, m = G.shape
    p = H.shape[0]
    if F.shape != (n, n) or H.shape[1] != n or J.shape != (p, m) or P.shape != (n, n):
        raise DimensionMismatchError("inconsistent LTI matrix dimensions")
    top = np.block([[F.T @ P + P @ F, P @ G], [G.T @ P, np.zeros((m, m))]])
    io = np.block([[H, J], [np.zeros((m, n)), np.eye(m)]])
    M = top - io.T @ w.block() @ io
    lam_max = numerics.sym_eigen(M)[-1]
    return {"M": M, "lambda_max": float(lam_max), "passed": bool(lam_max <= tol)}
