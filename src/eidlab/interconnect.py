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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .certify import supply_margin
from .errors import (
    ConditionsNotMetError,
    DimensionMismatchError,
    DomainError,
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


def _blockdiag(a, b):
    """[[a, 0], [0, b]] for two matrices, or row by row for two stacks."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = np.zeros(a.shape[:-2] + (ra + rb, ca + cb))
    out[..., :ra, :ca], out[..., ra:, ca:] = a, b
    return out


def compose_closed_loop(loop: FeedbackLoop):
    """Assemble the closed-loop system on the stacked state (x1, x2).

    Inputs are the exogenous (v1, v2), outputs the internal (y1, y2).
    The feedthrough coupling is resolved exactly: with E the signed
    routing matrix (u = v + E y), the output equation
    (I - Jd E) y = h + Jd v is inverted once.  When both parts carry
    ``f_jac`` and ``h_jac``, the loop's ``f_jac`` is blockdiag(J_f) +
    B E (I - Jd E)⁻¹ blockdiag(J_h), one matrix per row; else it has none.
    These call only the parts' stack rules, so they map stacks unprobed.
    """
    s1, s2 = loop.sys1, loop.sys2
    n1, n2, p1, p2 = s1.n, s2.n, s1.p, s2.p
    B, Jd = _blockdiag(s1.G, s2.G), _blockdiag(s1.J, s2.J)
    E = np.block([[np.zeros((s1.m, p1)), -np.eye(p2)],
                  [np.eye(p1), np.zeros((s2.m, p2))]])
    L = np.eye(p1 + p2) - Jd @ E
    Linv = np.linalg.inv(L)
    BE = B @ E

    def h_cl(x):
        return np.concatenate([s1.h(x[..., :n1]), s2.h(x[..., n1:])], axis=-1) @ Linv.T

    def f_cl(x):
        drift = np.concatenate([s1.f(x[..., :n1]), s2.f(x[..., n1:])], axis=-1)
        return drift + h_cl(x) @ BE.T

    def f_jac(x):
        x1, x2 = x[..., :n1], x[..., n1:]
        return (_blockdiag(s1.f_jac(x1), s2.f_jac(x2))
                + BE @ Linv @ _blockdiag(s1.h_jac(x1), s2.h_jac(x2)))

    analytic = all(s.f_jac is not None and s.h_jac is not None for s in (s1, s2))
    G_cl = B + B @ E @ Linv @ Jd
    J_cl = Linv @ Jd
    cls, n = DtSystem if s1.discrete else CtSystem, (n1 + n2,)
    return cls(_Stacked(f_cl, 1, n), _Stacked(h_cl, 1, n), G_cl, J=J_cl,
               f_jac=_Stacked(f_jac, 2, n) if analytic else None,
               name=f"loop({s1.name},{s2.name})",
               meta={"family": "feedback_loop", "n1": n1, "n2": n2})


def static_feedback(sys, psi):
    """Close a system against a memoryless map in negative feedback,
    u = v - psi(y), the convention of the absolute-stability setup.
    Requires J = 0 so the loop is trivially well posed.  The result has no
    ``f_jac``: J_f - G Dpsi(h) J_h would need the slope of psi.  Its h is the
    part's stack rule; its f calls psi, a user callable, so it is probed.
    """
    if not np.all(sys.J == 0.0):
        raise NonzeroFeedthroughError("static feedback requires J = 0")
    if sys.p != sys.m:
        raise NonSquareError("static feedback requires a square system")
    f_cl = lambda x: sys.f(x) - psi(sys.h(x)) @ sys.G.T
    cls = DtSystem if sys.discrete else CtSystem
    return cls(f_cl, sys._h, sys.G, name=f"{sys.name}+static",
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
        """Read as :func:`kappa_search` ranks, so the two agree bit for bit; on one
        2×2 Q_cl that costs 23-30 µs against 7-8 µs for ``eigh`` (2-vCPU Xeon)."""
        return float(numerics.stack_eigvalsh(self.Q_cl[None])[0, -1])


def _q_cl_parts(w1: SupplyRate, w2: SupplyRate):
    """(q0, q1) with Q_cl(kappa) = q0 + kappa q1, for one kappa or a stack."""
    if w1.m != w2.p or w2.m != w1.p:
        raise DimensionMismatchError("supply dimensions do not match the loop")
    return (np.block([[w1.Q, -w1.S], [-w1.S.T, w1.R]]),
            np.block([[w2.R, w2.S.T], [w2.S, w2.Q]]))


def compose_supply(w1: SupplyRate, w2: SupplyRate, kappa: float) -> ComposedSupply:
    """Compose two supply rates across the feedback interconnection.

    Substituting u1 = v1 - y2 and u2 = v2 + y1 into w1(u1,y1) +
    kappa w2(u2,y2) gives a quadratic form with output block

        Q_cl = [[Q1 + k R2,  -S1 + k S2ᵀ], [-S1ᵀ + k S2,  R1 + k Q2]].
    """
    if not 0 < kappa < np.inf:
        raise DomainError(f"kappa must be positive and finite, got {kappa}")
    q0, q1 = _q_cl_parts(w1, w2)
    k = float(kappa)
    Q_cl = numerics.symmetrize(q0 + k * q1)
    S_cl = np.block([[w1.S, k * w2.R], [-w1.R, k * w2.S]])
    R_cl = np.block([[w1.R, np.zeros((w1.m, w2.m))], [np.zeros((w2.m, w1.m)), k * w2.R]])
    return ComposedSupply(Q_cl=Q_cl, S_cl=S_cl, R_cl=numerics.symmetrize(R_cl), kappa=k)


def kappa_search(w1: SupplyRate, w2: SupplyRate,
                 kappa_range=(1e-4, 1e4), grid: int = 60,
                 tol: float = 1e-9) -> dict:
    """Search for kappa > 0 making the composed output block negative definite.

    Q_cl(kappa) is affine, so its largest eigenvalue is convex in kappa.  A
    log grid of ``grid`` >= 3 points over ``kappa_range``, 0 < lo < hi < inf,
    is narrowed ten times to the neighbours of its best point, each round one
    :func:`numerics.stack_eigvalsh` of the Q_cl that :func:`compose_supply`
    builds, as ``lambda_max_q`` reads it: the lambda reported and judged is
    the least one ranked.  Ties break toward the smallest kappa.  A Fail
    verdict means no kappa in the range certifies, not that none exists.
    """
    lo, hi = kappa_range
    if not 0 < lo < hi < np.inf:
        raise DomainError(f"kappa_range must satisfy 0 < lo < hi < inf, got {kappa_range}")
    if grid < 3:
        raise DomainError(f"grid must be >= 3 to narrow, got {grid}")
    q0, q1 = _q_cl_parts(w1, w2)
    for _ in range(11):  # the log grid, then ten narrowed grids
        kappas = np.exp(np.linspace(math.log(lo), math.log(hi), grid))
        kappas[[0, -1]] = lo, hi  # the ends exactly: exp(log x) may miss x by an ulp
        lams = numerics.stack_eigvalsh(q0 + kappas[:, None, None] * q1)[:, -1]
        best = int(np.argmin(lams))
        lo, hi = kappas[max(best - 1, 0)], kappas[min(best + 1, grid - 1)]
    kappa, lam = float(kappas[best]), float(lams[best])
    return {"kappa": kappa, "lambda_max_q": lam, "composed": compose_supply(w1, w2, kappa),
            "passed": bool(lam < -tol), "verdict": "pass" if lam < -tol else "fail"}


def loop_transform(sys: CtSystem, bounds: SectorBounds) -> CtSystem:
    """Sector loop transformation.

    Absorbs the lower sector bound into the drift and rescales the output:
    xdot = f(x) - G K1 h(x) + G u, y = K h(x) + u with K = K2 - K1.  A
    nonlinearity in the incremental sector [K1, K2] maps, after the same
    transformation, into the incremental sector [0, I] seen by this system.
    With ``f_jac`` and ``h_jac`` on ``sys``, its ``f_jac`` is J_f - G K1 J_h.
    These call only the stack rules of ``sys``, so they map stacks unprobed.
    """
    if sys.discrete:
        raise DimensionMismatchError("loop_transform applies to continuous-time systems")
    if not sys.square:
        raise NonSquareError("loop transformation requires m = p")
    if not np.all(sys.J == 0.0):
        raise NonzeroFeedthroughError("loop transformation requires J = 0")
    if bounds.m != sys.m:
        raise DimensionMismatchError("sector dimension does not match the system")
    GK1, K = sys.G @ bounds.K1, bounds.K
    n = (sys.n,)  # the width the rules below map stacks of
    f_t = _Stacked(lambda x: sys.f(x) - sys.h(x) @ GK1.T, 1, n)
    h_t = _Stacked(lambda x: sys.h(x) @ K.T, 1, n)
    analytic = sys.f_jac is not None and sys.h_jac is not None
    f_jac = _Stacked(lambda x: sys.f_jac(x) - GK1 @ sys.h_jac(x), 2, n) if analytic else None
    return CtSystem(f_t, h_t, sys.G, J=np.eye(sys.m), f_jac=f_jac,
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
    lam_a = numerics.sym_eigen(w2.R + w1.Q)[-1]
    lam_b = numerics.sym_eigen(w1.R + w2.Q)[-1]
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
