"""Feedback interconnection algebra.

Two systems in the standard feedback configuration u1 = v1 - y2,
u2 = v2 + y1 compose into a single control-affine system, and their
quadratic supply rates compose into a quadratic form in ((y1, y2),
(v1, v2)) whose output block Q_cl being negative definite certifies
closed-loop stability with storage V1 + kappa V2.  Also houses the
sector loop transformation and the absolute-stability (circle-type)
certificate search, plus a solver for the static equilibrium
interconnection of two monotone relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .certify import supply_margin
from .errors import (
    ConditionsNotMetError,
    DimensionMismatchError,
    IllPosedError,
    NoConvergenceError,
    NonSquareError,
    NonzeroFeedthroughError,
)
from .systems import (CtSystem, DtSystem, SectorBounds, StorageGenerator, SupplyRate,
                      _Stacked)

WELLPOSED_COND_MAX = 1e8


@dataclass
class FeedbackLoop:
    """Negative-feedback pair: u1 = v1 - y2, u2 = v2 + y1."""

    sys1: object
    sys2: object

    def __post_init__(self):
        s1, s2 = self.sys1, self.sys2
        if s1.discrete != s2.discrete:
            raise DimensionMismatchError("cannot mix CT and DT systems in one loop")
        if s1.m != s2.p or s2.m != s1.p:
            raise DimensionMismatchError(
                f"loop needs m1=p2 and m2=p1, got ({s1.m},{s1.p}) vs ({s2.m},{s2.p})"
            )
        M = np.eye(s1.m) + s1.J @ s2.J
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > WELLPOSED_COND_MAX:
            raise IllPosedError(
                f"I + J1 J2 has condition number {cond:.2e}; loop is ill posed"
            )


def compose_closed_loop(loop: FeedbackLoop):
    """Assemble the closed-loop system on the stacked state (x1, x2).

    Inputs are the exogenous (v1, v2), outputs the internal (y1, y2).
    The feedthrough coupling is resolved exactly: with E the signed
    routing matrix (u = v + E y), the output equation
    (I - Jd E) y = h + Jd v is inverted once.
    """
    s1, s2 = loop.sys1, loop.sys2
    n1, n2, p1, p2 = s1.n, s2.n, s1.p, s2.p
    B = np.block([[s1.G, np.zeros((n1, s2.m))],
                  [np.zeros((n2, s1.m)), s2.G]])
    E = np.block([[np.zeros((s1.m, p1)), -np.eye(p2)],
                  [np.eye(p1), np.zeros((s2.m, p2))]])
    Jd = np.block([[s1.J, np.zeros((p1, s2.m))],
                   [np.zeros((p2, s1.m)), s2.J]])
    L = np.eye(p1 + p2) - Jd @ E
    Linv = np.linalg.inv(L)
    BE = B @ E

    def h_cl(x):
        return np.concatenate([s1.h(x[..., :n1]), s2.h(x[..., n1:])], axis=-1) @ Linv.T

    def f_cl(x):
        drift = np.concatenate([s1.f(x[..., :n1]), s2.f(x[..., n1:])], axis=-1)
        return drift + h_cl(x) @ BE.T

    G_cl = B + B @ E @ Linv @ Jd
    J_cl = Linv @ Jd
    cls = DtSystem if s1.discrete else CtSystem
    return cls(f_cl, h_cl, G_cl, J=J_cl,
               name=f"loop({s1.name},{s2.name})",
               meta={"family": "feedback_loop", "n1": n1, "n2": n2})


def static_feedback(sys, psi):
    """Close a system against a memoryless map in negative feedback,
    u = v - psi(y), the convention of the absolute-stability setup.
    Requires J = 0 so the loop is trivially well posed.
    """
    if not np.all(sys.J == 0.0):
        raise NonzeroFeedthroughError("static feedback requires J = 0")
    if sys.p != sys.m:
        raise NonSquareError("static feedback requires a square system")
    f_cl = lambda x: sys.f(x) - psi(sys.h(x)) @ sys.G.T
    cls = DtSystem if sys.discrete else CtSystem
    return cls(f_cl, sys.h, sys.G, name=f"{sys.name}+static",
               storage=sys.storage, meta=dict(sys.meta))


@dataclass
class ComposedSupply:
    """Quadratic form of w1 + kappa w2 in the loop variables ((y1,y2),(v1,v2))."""

    Q_cl: np.ndarray
    S_cl: np.ndarray
    R_cl: np.ndarray
    kappa: float

    def as_supply(self) -> SupplyRate:
        return SupplyRate(self.Q_cl, self.S_cl, self.R_cl, warn_definite=False)

    @property
    def lambda_max_q(self) -> float:
        return float(np.linalg.eigh(self.Q_cl).eigenvalues[-1])


def compose_supply(w1: SupplyRate, w2: SupplyRate, kappa: float) -> ComposedSupply:
    """Compose two supply rates across the feedback interconnection.

    Substituting u1 = v1 - y2 and u2 = v2 + y1 into w1(u1,y1) +
    kappa w2(u2,y2) gives a quadratic form with output block

        Q_cl = [[Q1 + k R2,  -S1 + k S2ᵀ], [-S1ᵀ + k S2,  R1 + k Q2]].
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if w1.m != w2.p or w2.m != w1.p:
        raise DimensionMismatchError("supply dimensions do not match the loop")
    k = float(kappa)
    Q_cl = np.block([[w1.Q + k * w2.R, -w1.S + k * w2.S.T],
                     [-w1.S.T + k * w2.S, w1.R + k * w2.Q]])
    S_cl = np.block([[w1.S, k * w2.R], [-w1.R, k * w2.S]])
    R_cl = np.block([[w1.R, np.zeros((w1.m, w2.m))], [np.zeros((w2.m, w1.m)), k * w2.R]])
    return ComposedSupply(Q_cl=numerics.symmetrize(Q_cl), S_cl=S_cl,
                          R_cl=numerics.symmetrize(R_cl), kappa=k)


def kappa_search(w1: SupplyRate, w2: SupplyRate,
                 kappa_range=(1e-4, 1e4), grid: int = 60,
                 tol: float = 1e-9) -> dict:
    """Search for kappa > 0 making the composed output block negative definite.

    Q_cl(kappa) = Q_cl(1) + (kappa - 1)(Q_cl(2) - Q_cl(1)) is affine, so its
    largest eigenvalue is convex in kappa.  A log grid of ``grid`` points
    over ``kappa_range`` is narrowed ten times to the neighbours of its best
    point, each round one stacked ``eigvalsh``; ties break toward the
    smallest kappa.  A Fail verdict means no kappa in the range certifies,
    not that none exists.
    """
    lo, hi = kappa_range
    if lo <= 0 or hi <= lo:
        raise ValueError("kappa_range must be a positive increasing interval")
    q1 = compose_supply(w1, w2, 1.0).Q_cl
    dq = compose_supply(w1, w2, 2.0).Q_cl - q1
    kappas = np.geomspace(lo, hi, grid)
    for _ in range(11):  # the log grid, then ten narrowed grids
        best = int(np.argmin(np.linalg.eigvalsh(q1 + (kappas - 1.0)[:, None, None] * dq)[:, -1]))
        kappa = float(kappas[best])
        kappas = np.geomspace(kappas[max(best - 1, 0)], kappas[min(best + 1, grid - 1)], grid)
    composed = compose_supply(w1, w2, kappa)
    lam = composed.lambda_max_q
    return {"kappa": kappa, "lambda_max_q": lam, "composed": composed,
            "passed": bool(lam < -tol), "verdict": "pass" if lam < -tol else "fail"}


def loop_transform(sys: CtSystem, bounds: SectorBounds) -> CtSystem:
    """Sector loop transformation.

    Absorbs the lower sector bound into the drift and rescales the output:
    xdot = f(x) - G K1 h(x) + G u, y = K h(x) + u with K = K2 - K1.  A
    nonlinearity in the incremental sector [K1, K2] maps, after the same
    transformation, into the incremental sector [0, I] seen by this system.
    """
    if sys.discrete:
        raise DimensionMismatchError("loop_transform applies to continuous-time systems")
    if not sys.square:
        raise NonSquareError("loop transformation requires m = p")
    if not np.all(sys.J == 0.0):
        raise NonzeroFeedthroughError("loop transformation requires J = 0")
    if bounds.m != sys.m:
        raise DimensionMismatchError("sector dimension does not match the system")
    GK1 = sys.G @ bounds.K1
    K = bounds.K
    f_t = lambda x: sys.f(x) - sys.h(x) @ GK1.T
    h_t = lambda x: sys.h(x) @ K.T
    return CtSystem(f_t, h_t, sys.G, J=np.eye(sys.m),
                    name=f"{sys.name}-transformed", storage=sys.storage,
                    meta=dict(sys.meta))


def circle_criterion(sys: CtSystem, bounds: SectorBounds,
                     gen: StorageGenerator, pairs, tol: float = 1e-9) -> dict:
    """Absolute-stability certificate over a sector of feedback nonlinearities.

    Applies the loop transformation and finds, with :func:`supply_margin`,
    the largest eps in [0, 1] at which the transformed system has D ⪰ 0 on
    every pair with supply (-eps I, I/2, 0): the sampled supremum, rounded
    down to a multiple of 2⁻³⁰, or None if eps = 0 fails or a pair is not
    finite.  The smallest eigenvalue over the pairs is concave in eps, which
    :func:`supply_margin` searches by tangent steps in about 8 stack
    eigen-solves.  Any eps > 0 certifies output-strict dissipativity of the
    transformed loop, hence stability of the original loop for every
    nonlinearity in the sector.  ``binding_pair`` is the index of the pair
    that limits eps (None at eps = 1), the first non-finite pair if any.
    """
    transformed = loop_transform(sys, bounds)
    certified, binding = supply_margin(transformed, SupplyRate.output_strict(0.0, sys.m),
                                       SupplyRate.output_strict(1.0, sys.m), gen, pairs)
    passed = certified is not None and certified > tol
    return {"certified_eps": certified, "passed": passed, "verdict": "pass" if passed else "fail",
            "transformed": transformed, "binding_pair": binding}


def solve_monotone_inclusion(k1_inverse: Callable, k2: Callable,
                             v1, v2, w1: SupplyRate, w2: SupplyRate,
                             tol: float = 1e-10) -> tuple:
    """Solve the static feedback interconnection of two monotone relations.

    Finds (y1, y2) with v1 = k1_inverse(y1) + k2(v2 + y1) and
    y2 = k2(v2 + y1).  Solvability needs one of the strict conditions
    R2 + Q1 < 0 (negative definite) or R1 + Q2 < 0 on the relations'
    supply rates; the certified strong-monotonicity modulus of
    F(y) = k1_inverse(y) + k2(v2 + y) is mu = -lambda_max of the block
    that is negative definite.  A plain projected iteration
    y <- y - eta (F(y) - v1) with eta = mu / L_est^2 then converges, with
    L_est the Lipschitz constant of F sampled at seed 0; NoConvergenceError
    after 5000 steps.
    """
    v1, v2 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (v1, v2))
    lam_a = np.linalg.eigh(w2.R + w1.Q).eigenvalues[-1]
    lam_b = np.linalg.eigh(w1.R + w2.Q).eigenvalues[-1]
    mu = -min(lam_a, lam_b)
    if mu <= 0:
        raise ConditionsNotMetError(
            "need R2 + Q1 or R1 + Q2 negative definite on the relation supplies"
        )
    k1, k2 = _Stacked(k1_inverse), _Stacked(k2)
    K2 = lambda y: k2(v2 + y)
    F = lambda y: k1(y) + K2(y)
    # L_est on 32 pairs around v1, drawn as one (32, 2, size) block
    Z = v1 + np.random.default_rng(0).normal(size=(32, 2, v1.size))
    FZ = F(Z.reshape(-1, v1.size)).reshape(Z.shape)
    dz = np.linalg.norm(Z[:, 0] - Z[:, 1], axis=1)
    dF = np.linalg.norm(FZ[:, 0] - FZ[:, 1], axis=1)
    eta = mu / np.max(dF[dz > 1e-12] / dz[dz > 1e-12], initial=mu) ** 2

    y = v1.copy()
    for _ in range(5000):
        r = F(y) - v1
        if np.linalg.norm(r) <= tol:
            return y, K2(y)
        y = y - eta * r
    raise NoConvergenceError(
        f"monotone inclusion iteration stalled, residual {np.linalg.norm(F(y) - v1):.3e}"
    )
