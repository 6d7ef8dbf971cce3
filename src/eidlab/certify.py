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
from .errors import DimensionMismatchError, DomainError
from .systems import SectorBounds, StorageGenerator, SupplyRate, _Stacked

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
        raise DomainError(f"need at least one pair, got count={count}")
    lo, hi = (np.asarray(b, dtype=float) for b in region)
    rng = np.random.default_rng(seed)
    eq = EquilibriumMap(sys).sample_io_relation(region, max(2, count // 8), seed=seed + 1).x
    if not len(eq):
        raise DomainError("no equilibria found in the sampling region")
    X = rng.uniform(lo, hi, size=(count - 1, sys.n))
    picks = rng.integers(len(eq), size=len(X))
    return np.stack([np.vstack([eq[:1], X]), eq[np.r_[0, picks]]], axis=1)


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


def _stack_pairs(pairs, n: int) -> np.ndarray:
    """The (2N, n) stack x_0, x̄_0, x_1, x̄_1, ... of an (N, 2, n) pair set, a
    view where the pairs are C-contiguous, or a DimensionMismatchError for a
    non-empty set of any other shape, such as (N, 2n) rows or (N, n, 2) at n ≠ 2."""
    P = np.asarray(pairs, dtype=float)
    if P.size and P.shape[1:] != (2, n):
        raise DimensionMismatchError(f"pairs of shape {P.shape} are not (N, 2, {n})")
    return P.reshape(2 * len(P), n)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite pair is reported, not warned
def _supply_terms(sys, storage, Z, *supplies) -> list:
    """Per supply, Rhat_eff = Rhat (less GᵀPG in discrete time) and, at the
    pairs of the (2N, n) stack Z of :func:`_stack_pairs`, a = ΔhᵀQΔh - s,
    c = (QJ+S)ᵀΔh - Cs and the pair scales σ = t + ‖Q‖ |Δh|² + |c|, from
    one call each of f, h and ∇V on Z.  ``storage`` is a StorageGenerator in
    continuous time, where s = Δ∇Vᵀ Δf, Cs = ½ Δ∇Vᵀ G and t = |Δ∇V| |Δf|,
    or a PSD matrix P in discrete time, checked first, where
    s = ΔfᵀPΔf - ΔxᵀPΔx, Cs = ΔfᵀPG and t = ‖P‖ (|Δf|² + |Δx|²).

    A pair passes (a)-(c) with the best W and ell exactly when its
    dissipation matrix D = [[a, cᵀ], [c, Rhat_eff]] is PSD, which every
    verdict judges up to rounding relative to 1 + σ, the size of the terms
    D is formed from.  A pair whose σ is not finite has a and c NaN, the
    worst value of every verdict; an empty pair set is a DomainError."""
    if sys.discrete:
        storage = numerics.require_psd(storage, "P")[0]
    if not len(Z):
        raise DomainError("need at least one pair")
    dF, dH = (V[0::2] - V[1::2] for V in (sys.f(Z), sys.h(Z)))
    ff, hh = np.vecdot(dF, dF), np.vecdot(dH, dH)
    if sys.discrete:
        dX, PdF = Z[0::2] - Z[1::2], dF @ storage
        s = np.vecdot(PdF, dF) - np.vecdot(dX @ storage, dX)
        t = np.vdot(storage, storage) ** 0.5 * (ff + np.vecdot(dX, dX))
        Cs, GPG = PdF @ sys.G, sys.G.T @ storage @ sys.G
    else:
        dgrad = storage._values("grad_V", Z)
        dgrad = dgrad[0::2] - dgrad[1::2]
        s, Cs, GPG = np.vecdot(dgrad, dF), 0.5 * dgrad @ sys.G, 0.0
        t = np.sqrt(np.vecdot(dgrad, dgrad)) * np.sqrt(ff)
    terms = []
    for w in supplies:
        a = np.vecdot(dH @ w.Q, dH) - s
        C = dH @ (w.Q @ sys.J + w.S) - Cs
        # ‖Q‖ is the Frobenius norm, a bound on the spectral one
        sigma = t + np.vdot(w.Q, w.Q) ** 0.5 * hh + np.sqrt(np.vecdot(C, C))
        if not np.isfinite(sigma).all():  # σ may overflow where a and c do not
            a[~np.isfinite(sigma)] = C[~np.isfinite(sigma)] = np.nan
        terms.append((w.rhat(sys.J) - GPG, a, C, sigma))
    return terms


def _dissipation_stacks(sys, storage, pairs, *supplies) -> list:
    """Per supply, Rhat_eff, the (N, m+1, m+1) stack of the pairs' dissipation
    matrices D (:func:`_supply_terms`), all NaN where σ is not finite, and σ."""
    stacks = []
    for rhat_eff, a, C, sigma in _supply_terms(sys, storage, _stack_pairs(pairs, sys.n),
                                               *supplies):
        D = np.empty((len(a), sys.m + 1, sys.m + 1))
        D[:, 0, 0], D[:, 0, 1:], D[:, 1:, 0], D[:, 1:, 1:] = a, C, C, rhat_eff
        D[~np.isfinite(sigma)] = np.nan
        stacks.append((rhat_eff, D, sigma))
    return stacks


def _residuals(a, C, Z, W, W_pinv, ell, mode):
    """The (a) violations and (b) residuals of the pairs of the (2N, n)
    stack Z, whose a and b-differences C are given: condition (a) is the gap
    ||ell||² - a, (b) the residual ||Wᵀ ell - c||, with one product by the
    pseudo-inverse W_pinv of W or one ``ell`` call."""
    if ell is None:
        # minimum-norm solution of Wᵀ ell = c: any kernel component of Wᵀ
        # only makes condition (a) harder, so this is the favourable choice
        L = C @ W_pinv
    else:
        # ell(x, xb) on the pairs as one (N, 2n) stack of rows [x, x̄], or row by row
        n = Z.shape[1]
        L = _Stacked(lambda Y: ell(Y[..., :n], Y[..., n:]))(Z.reshape(-1, 2 * n))
        if L.shape[-1] < W.shape[0]:
            raise DimensionMismatchError(
                f"ell has {L.shape[-1]} components but W has {W.shape[0]} rows")
    # a longer ell pads W with zero rows, which leave WᵀW unchanged
    E = L[:, :W.shape[0]] @ W - C
    gap = np.vecdot(L, L) - a
    a_viol = np.abs(gap) if mode == "equality" else np.maximum(gap, 0.0)
    return a_viol, np.sqrt(np.vecdot(E, E))


def _verify_eid(sys, w: SupplyRate, storage, pairs, W, ell, mode,
                tol_a, tol_b, tol_c, seed) -> EidCertificate:
    """Conditions (a)-(c) on every pair, for either time domain, read from
    the pairs' a, c and scales (:func:`_supply_terms`), with no D built.  The
    min-norm ell of every pair is one product by W's pseudo-inverse, from the
    solve that forms the canonical W (:func:`numerics.psd_sqrt_pinv`, in
    closed form at m <= 2) or ``pinv`` of a given W."""
    if mode not in ("equality", "inequality"):
        raise DomainError(f"unknown mode {mode!r}")
    Z = _stack_pairs(pairs, sys.n)
    rhat_eff, a, C, sigma = _supply_terms(sys, storage, Z, w)[0]
    W_pinv = None
    if W is None:
        # clipped: an indefinite Rhat_eff fails (c) by at least |lambda_min|
        W, W_pinv = numerics.psd_sqrt_pinv(rhat_eff, np.inf)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape[1] != sys.m:
        raise DimensionMismatchError(f"W must have {sys.m} columns")
    if W_pinv is None and ell is None:  # a given W, with lstsq's rcond=None cutoff
        W_pinv = np.linalg.pinv(W, rcond=np.finfo(float).eps * max(W.shape))
    E = W.T @ W - rhat_eff
    c_res = float(np.vdot(E, E) ** 0.5)

    a_viol, b_res = _residuals(a, C, Z, W, W_pinv, ell, mode)
    # argmax takes the first NaN as the largest value: finite maxima, finite pairs
    ia, ib = int(a_viol.argmax()), int(b_res.argmax())
    finite = np.isfinite(a_viol[ia] + b_res[ib])
    stats = ResidualStats(max_a_violation=float(a_viol[ia]), max_b_residual=float(b_res[ib]),
                          c_residual=c_res, worst_a_index=ia, worst_b_index=ib,
                          worst_a_pair=Z[2 * ia:2 * ia + 2].tolist(),
                          worst_b_pair=Z[2 * ib:2 * ib + 2].tolist(),
                          nonfinite_pairs=0 if finite else int(np.sum(~np.isfinite(a_viol + b_res))))
    # 1 + σ >= 1, so a worst residual within its tolerance needs no scale
    within = lambda r, i, tol: r[i] <= tol or (r / (1.0 + sigma)).max() <= tol
    passed = bool(c_res <= tol_c and within(a_viol, ia, tol_a) and within(b_res, ib, tol_b))
    return EidCertificate(
        system_name=sys.name, supply=w, W=W, mode=mode,
        tolerances={"tol_a": tol_a, "tol_b": tol_b, "tol_c": tol_c},
        stats=stats, n_pairs=len(a), passed=passed, seed=seed,
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
    rhat_eff, (D,), _ = _dissipation_stacks(sys, storage, [pair], w)[0]
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
    :func:`numerics.sym_eigh` of its D), which concavity puts at or above the
    answer, floored to the grid and clipped inside the bracket.  A slope that
    is not negative, and any step after 30 tangent steps, takes the grid
    midpoint: at most 63 :func:`numerics.stack_eigvalsh` solves of the stack
    (closed form at m = 1), 3 at an exact certificate and typically 5 to 9, where a
    30-step bisection takes 33.  ``storage`` is as for :func:`factor_dissipation`.
    """
    (_, D0, s0), (_, D1, s1) = _dissipation_stacks(sys, storage, pairs, w0, w1)
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
        v = numerics.sym_eigh(D0[k] + hi * dD[k])[1][:, 0]
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


def check_sector(psi: Callable, bounds: SectorBounds, probes,
                 tol: float = 1e-9) -> dict:
    """Validate a declared incremental sector of a map ``psi`` by sampling pairs.

    ``psi`` is any callable of one point, read through the stack rule.
    Evaluates the incremental dissipation form :func:`sector_supply` on
    each of at least one probe pair of width ``bounds.m`` and reports the
    minimum margin; the sector holds when no margin is below ``-tol``
    (1 + ‖M‖ |Δ[ψ; z]|²), M the supply's block, relative to the size of the
    pair's terms.  A margin that is not finite is counted in
    ``nonfinite_pairs`` and makes the minimum NaN, which does not hold.
    """
    if len(probes) < 1:
        raise DomainError("need at least one probe pair")
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
