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
    """Largest residuals; each worst index and worst pair [x, x̄] names the pair attaining it."""

    max_a_violation: float
    max_b_residual: float
    c_residual: float
    worst_a_index: int
    worst_b_index: int
    worst_a_pair: list
    worst_b_pair: list


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
    X, X̄: ΔH, the storage terms s and the storage part Cs of the
    b-differences C = ΔH (QJ+S) - Cs.

    ``storage`` is a StorageGenerator in continuous time, where
    s = Δ∇Vᵀ Δf and Cs = ½ Δ∇Vᵀ G, and a symmetric PSD matrix P in discrete
    time, where s = ΔfᵀPΔf - ΔxᵀPΔx and Cs = ΔfᵀPG.
    """
    dF = sys.f(X) - sys.f(Xbar)
    dH = sys.h(X) - sys.h(Xbar)
    if sys.discrete:
        dX = X - Xbar
        s = (np.einsum("ij,jk,ik->i", dF, storage, dF)
             - np.einsum("ij,jk,ik->i", dX, storage, dX))
        return dH, s, (dF @ storage) @ sys.G
    dgrad = storage._values("grad_V", X) - storage._values("grad_V", Xbar)
    return dH, np.einsum("ij,ij->i", dgrad, dF), 0.5 * dgrad @ sys.G


def _dissipation_stacks(sys, storage, X, Xbar, *supplies) -> list:
    """Per supply, Rhat_eff = Rhat (less GᵀPG in discrete time) and the
    (N, m+1, m+1) stack of dissipation matrices D = [[a, cᵀ], [c, Rhat_eff]]
    at the rows of the (N, n) pair stacks X, X̄, with a = ΔhᵀQΔh - s and
    c = (QJ+S)ᵀΔh - Cs, from one evaluation of the pair terms.  A pair passes
    (a)-(c) with the best W and ell exactly when its D is PSD.  ``storage``
    is a StorageGenerator in continuous time or a PSD matrix P in discrete
    time, whose check comes first; an empty pair set is a ValueError."""
    if sys.discrete:
        storage = numerics.psd_storage(storage)
    if not len(X):
        raise ValueError("need at least one pair")
    dH, s, Cs = _pair_terms(sys, storage, X, Xbar)
    stacks = []
    for w in supplies:
        rhat_eff = w.rhat(sys.J)
        if sys.discrete:
            rhat_eff = rhat_eff - sys.G.T @ storage @ sys.G
        D = np.empty((len(s), sys.m + 1, sys.m + 1))
        D[:, 0, 0] = np.einsum("ij,jk,ik->i", dH, w.Q, dH) - s
        D[:, 0, 1:] = D[:, 1:, 0] = dH @ (w.Q @ sys.J + w.S) - Cs
        D[:, 1:, 1:] = rhat_eff
        stacks.append((rhat_eff, D))
    return stacks


def _residuals(sys, D, X, Xbar, W, ell, mode):
    """The (a) violations and (b) residuals at each row of the dissipation
    stack D of the pairs X, X̄: condition (a) is the gap ||ell||² - a, (b)
    the residual ||Wᵀ ell - c||, with one min-norm solve or one ``ell``
    call for all rows."""
    C = D[:, 0, 1:]
    if ell is None:
        # minimum-norm solution of Wᵀ ell = c: any kernel component of Wᵀ
        # only makes condition (a) harder, so this is the favourable choice
        L = np.linalg.lstsq(W.T, C.T, rcond=None)[0].T
    else:
        # ell(x, xb) on the stacks X, X̄, or row by row on one pair
        L = _Stacked(ell)(X, Xbar)
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
    the pairs' dissipation stack."""
    if mode not in ("equality", "inequality"):
        raise ValueError(f"unknown mode {mode!r}")
    X, Xbar = _stack_pairs(pairs, sys.n)
    rhat_eff, D = _dissipation_stacks(sys, storage, X, Xbar, w)[0]
    if W is None:
        # clipped: an indefinite Rhat_eff fails (c) by at least |lambda_min|
        W = numerics.psd_sqrt(rhat_eff, np.inf)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape[1] != sys.m:
        raise DimensionMismatchError(f"W must have {sys.m} columns")
    c_res = float(np.linalg.norm(W.T @ W - rhat_eff))

    a_viol, b_res = _residuals(sys, D, X, Xbar, W, ell, mode)
    ia, ib = int(np.argmax(a_viol)), int(np.argmax(b_res))
    stats = ResidualStats(max_a_violation=float(a_viol.max()), max_b_residual=float(b_res.max()),
                          c_residual=c_res, worst_a_index=ia, worst_b_index=ib,
                          worst_a_pair=[X[ia].tolist(), Xbar[ia].tolist()],
                          worst_b_pair=[X[ib].tolist(), Xbar[ib].tolist()])
    passed = (stats.max_a_violation <= tol_a and stats.max_b_residual <= tol_b
              and c_res <= tol_c)
    return EidCertificate(
        system_name=sys.name, supply=w, W=W, mode=mode,
        tolerances={"tol_a": tol_a, "tol_b": tol_b, "tol_c": tol_c},
        stats=stats, n_pairs=len(X), passed=passed, seed=seed,
    )


def verify_eid_ct(
    sys,
    w: SupplyRate,
    gen: StorageGenerator,
    pairs,
    W: Optional[np.ndarray] = None,
    ell: Optional[Callable] = None,
    mode: str = "inequality",
    tol_a: float = DEFAULT_TOL_A,
    tol_b: float = DEFAULT_TOL_B,
    tol_c: float = DEFAULT_TOL_C,
    seed: Optional[int] = None,
) -> EidCertificate:
    """Check the continuous-time EID conditions on sampled (x, xb) pairs.

    ``pairs`` is the (N, 2, n) array of rows (x_k, x̄_k) that :func:`sample_pairs`
    returns.  ``mode="inequality"`` accepts condition (a) as LHS <= RHS + tol,
    which is how all the worked examples establish EID; ``mode="equality"`` is
    for exact certificates.
    """
    if sys.discrete:
        raise DimensionMismatchError("verify_eid_ct expects a continuous-time system")
    return _verify_eid(sys, w, gen, pairs, W, ell, mode, tol_a, tol_b, tol_c, seed)


def verify_eid_dt(
    sys,
    w: SupplyRate,
    P,
    pairs,
    W: Optional[np.ndarray] = None,
    ell: Optional[Callable] = None,
    mode: str = "inequality",
    tol_a: float = DEFAULT_TOL_A,
    tol_b: float = DEFAULT_TOL_B,
    tol_c: float = DEFAULT_TOL_C,
    seed: Optional[int] = None,
) -> EidCertificate:
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
    discrete time."""
    rhat_eff, (D,) = _dissipation_stacks(sys, storage, *_stack_pairs([pair], sys.n), w)[0]
    eig = numerics.sym_eigen(D)
    rank = int(np.sum(eig.eigenvalues > 1e-9 * max(abs(eig.max), 1.0)))
    return FactorizationResult(a=float(D[0, 0]), b_difference=D[1:, 0], rhat_eff=rhat_eff,
                               D=D, psd_margin=eig.min, rank=rank)


def supply_margin(sys, w0: SupplyRate, w1: SupplyRate, storage, pairs):
    """The largest theta in [0, 1] at which (1-theta) w0 + theta w1 has D ⪰ 0
    on every pair, and the index in ``pairs`` of the binding pair: ``(None,
    worst pair)`` if w0 fails, ``(1.0, None)`` if w1 passes.  D is affine in
    theta, so the feasible theta form an interval; its end is bisected on the
    stack's smallest eigenvalue, with a per-pair rounding slack of
    1e-12 (1 + max|D0| + max|dD|), and rounded down to a multiple of 2⁻³⁰.
    ``storage`` is as for :func:`factor_dissipation`.
    """
    (_, D0), (_, D1) = _dissipation_stacks(sys, storage, *_stack_pairs(pairs, sys.n), w0, w1)
    dD = D1 - D0
    slack = 1e-12 * (1.0 + np.abs(D0).max(axis=(1, 2)) + np.abs(dD).max(axis=(1, 2)))
    margin = lambda theta: np.linalg.eigvalsh(D0 + theta * dD)[:, 0] + slack
    at_zero = margin(0.0)
    if at_zero.min() < 0:
        return None, int(np.argmin(at_zero))
    if margin(1.0).min() >= 0:
        return 1.0, None
    lo, hi = 0.0, 1.0
    for _ in range(30):  # each midpoint, so lo, is a multiple of 2⁻³⁰
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid).min() >= 0 else (lo, mid)
    return lo, int(np.argmin(margin(hi)))


def sector_supply(bounds: SectorBounds) -> SupplyRate:
    """Supply rate satisfied by any nonlinearity in the incremental sector."""
    return SupplyRate(-np.eye(bounds.m), 0.5 * (bounds.K1 + bounds.K2),
                      -bounds.K1 @ bounds.K2, warn_definite=False)


def check_sector(psi: StaticNonlinearity, bounds: SectorBounds, probes,
                 tol: float = 1e-9) -> dict:
    """Validate a declared incremental sector by sampling pairs.

    Evaluates the incremental dissipation form :func:`sector_supply` on
    each of at least one probe pair and reports the minimum margin.
    """
    if len(probes) < 1:
        raise ValueError("need at least one probe pair")
    Z = np.asarray(probes, dtype=float).reshape(len(probes), 2, -1)
    Psi = _Stacked(psi)(Z.reshape(-1, Z.shape[-1])).reshape(Z.shape)
    margins = sector_supply(bounds).evaluate(Z[:, 1] - Z[:, 0], Psi[:, 1] - Psi[:, 0])
    violations = int(np.sum(margins < -tol))
    return {"min_margin": float(margins.min()), "violations": violations,
            "holds": violations == 0}


def verify_kyp_lti(F, G, H, J, w: SupplyRate, P, tol: float = 1e-9) -> dict:
    """LTI dissipativity check for a GIVEN quadratic storage xᵀPx.

    Assembles M(P) = [[FᵀP+PF, PG], [GᵀP, 0]] - [H J; 0 I]ᵀ [Q S; Sᵀ R]
    [H J; 0 I] and passes iff λ_max(M) <= tol — equivalent to the existence
    of an (L, W) factor completing the linear matrix equality.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    J = np.atleast_2d(np.asarray(J, dtype=float))
    P = numerics.symmetrize(np.atleast_2d(np.asarray(P, dtype=float)))
    n, m = G.shape
    p = H.shape[0]
    if F.shape != (n, n) or H.shape[1] != n or J.shape != (p, m) or P.shape != (n, n):
        raise DimensionMismatchError("inconsistent LTI matrix dimensions")
    top = np.block([[F.T @ P + P @ F, P @ G], [G.T @ P, np.zeros((m, m))]])
    io = np.block([[H, J], [np.zeros((m, n)), np.eye(m)]])
    M = top - io.T @ w.block() @ io
    lam_max = numerics.sym_eigen(M).max
    return {"M": M, "lambda_max": float(lam_max), "passed": bool(lam_max <= tol)}
