"""Control-affine system representations and the example-system catalog.

Continuous-time systems are ``xdot = f(x) + G u, y = h(x) + J u`` and
discrete-time systems are ``x+ = f(x) + G u, y = h(x) + J u``, with constant
input and feedthrough matrices.  The catalog builds the benchmark families
used throughout the package from plain parameter dictionaries, so they can
also be loaded from JSON files.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    MissingParamError,
    NonSymmetricError,
    UnknownSystemError,
    ConfigError,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# supply rates


class SupplyRate:
    """Quadratic supply rate w(u, y) = [y; u]ᵀ [[Q, S], [Sᵀ, R]] [y; u]."""

    def __init__(self, Q, S, R, warn_definite: bool = True):
        self.Q = numerics.symmetrize(np.atleast_2d(np.asarray(Q, dtype=float)))
        self.S = np.atleast_2d(np.asarray(S, dtype=float))
        self.R = numerics.symmetrize(np.atleast_2d(np.asarray(R, dtype=float)))
        p, m = self.S.shape
        if self.Q.shape != (p, p) or self.R.shape != (m, m):
            raise DimensionMismatchError(
                f"incompatible supply blocks Q{self.Q.shape} S{self.S.shape} R{self.R.shape}"
            )
        self.p = p
        self.m = m
        if warn_definite:
            eig = numerics.sym_eigen(self.block())
            if eig.min > -1e-12 or eig.max < 1e-12:
                # sign-definite supplies make the dissipation inequality
                # trivial or infeasible; callers may do this on purpose
                warnings.warn("supply-rate block matrix is sign-definite", stacklevel=2)

    def block(self) -> np.ndarray:
        return np.block([[self.Q, self.S], [self.S.T, self.R]])

    def evaluate(self, u, y):
        """w(u, y) as a float for one (u, y) pair, or as a (K,) array for
        (K, m) / (K, p) stacks of pairs."""
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        U, Y = np.atleast_2d(u, y)
        vals = (np.sum((Y @ self.Q) * Y, axis=1) + 2.0 * np.sum((Y @ self.S) * U, axis=1)
                + np.sum((U @ self.R) * U, axis=1))
        return float(vals[0]) if max(u.ndim, y.ndim) < 2 else vals

    def rhat(self, J) -> np.ndarray:
        """Feedthrough-matched input block R + JᵀS + SᵀJ + JᵀQJ."""
        J = np.atleast_2d(np.asarray(J, dtype=float))
        return self.R + J.T @ self.S + self.S.T @ J + J.T @ self.Q @ J

    def __repr__(self):
        return f"SupplyRate(p={self.p}, m={self.m})"

    # common named supplies -------------------------------------------------

    @classmethod
    def passivity(cls, m: int) -> "SupplyRate":
        z = np.zeros((m, m))
        return cls(z, 0.5 * np.eye(m), z, warn_definite=False)

    @classmethod
    def l2_gain(cls, gamma: float, p: int, m: int) -> "SupplyRate":
        return cls(-np.eye(p), np.zeros((p, m)), gamma**2 * np.eye(m),
                   warn_definite=False)

    @classmethod
    def output_strict(cls, a: float, m: int) -> "SupplyRate":
        """OSP supply -a yᵀy + yᵀu."""
        return cls(-a * np.eye(m), 0.5 * np.eye(m), np.zeros((m, m)),
                   warn_definite=False)

    @classmethod
    def input_feedforward(cls, nu: float, m: int) -> "SupplyRate":
        """IFP supply yᵀu - nu uᵀu."""
        return cls(np.zeros((m, m)), 0.5 * np.eye(m), -nu * np.eye(m),
                   warn_definite=False)


# ---------------------------------------------------------------------------
# storage generators


@dataclass
class StorageGenerator:
    """Convex scalar function with gradient, from which Bregman storage
    families are derived.

    ``convexity_class`` is one of {"convex", "strictly_convex",
    "strongly_convex"}; ``mu`` is the declared strong-convexity modulus (only
    meaningful for the last class).
    """

    V: Callable[[np.ndarray], float]
    grad_V: Callable[[np.ndarray], np.ndarray]
    convexity_class: str = "convex"
    mu: float = 0.0
    name: str = "storage"
    _stacked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _values(self, attr: str, x) -> np.ndarray:
        """``V`` or ``grad_V`` (by name) at one state or on an (N, n) stack,
        through one stack rule per field, rebuilt when the field's callable
        is replaced."""
        fn = getattr(self, attr)
        rule = self._stacked.get(attr)
        if rule is None or rule.fn is not fn:
            rule = self._stacked[attr] = _Stacked(fn, 0 if attr == "V" else 1)
        return rule(x)

    def validate(self, region, probes: int = 1000, seed: int = 0) -> dict:
        """Sampled consistency checks inside a box region (lo, hi).

        Checks the analytic gradient against finite differences (to 1e-5
        relative) and, for a declared strongly convex generator, the secant
        inequality [∇V(x)-∇V(z)]ᵀ(x-z) >= mu ||x-z||² on one (probes, 2, n)
        block of random pairs, ``probes`` >= 1.
        """
        if probes < 1:
            raise ValueError(f"need at least one probe, got probes={probes}")
        lo, hi = (np.asarray(b, dtype=float) for b in region)
        rng = np.random.default_rng(seed)
        X, Z = rng.uniform(lo, hi, size=(probes, 2, lo.size)).transpose(1, 0, 2)
        g = self._values("grad_V", X)
        g_fd = numerics.fd_gradient(lambda x: self._values("V", x), X)
        mismatch = np.linalg.norm(g - g_fd, axis=1) / np.maximum(np.linalg.norm(g, axis=1), 1.0)
        worst_grad = float(np.max(mismatch, initial=0.0))
        d = np.linalg.norm(X - Z, axis=1) ** 2
        apart = d > 1e-16
        secant = np.einsum("ij,ij->i", g - self._values("grad_V", Z), X - Z)[apart] / d[apart]
        worst_secant = float(np.min(secant, initial=np.inf))
        mu_req = self.mu if self.convexity_class == "strongly_convex" else 0.0
        return {
            "grad_consistent": worst_grad <= 1e-5,
            "max_grad_mismatch": worst_grad,
            "min_secant_ratio": worst_secant,
            "secant_ok": worst_secant >= mu_req - 1e-9,
        }

    @classmethod
    def quadratic(cls, P, name: str = "quadratic") -> "StorageGenerator":
        P = numerics.symmetrize(np.atleast_2d(np.asarray(P, dtype=float)))
        eig = numerics.sym_eigen(P)
        mu = max(eig.min, 0.0)
        cls_name = "strongly_convex" if eig.min > 1e-12 else "convex"
        # x @ P rather than P @ x: the same for one state (P is symmetric),
        # and row by row on an (N, n) stack, even where N = n
        grad_V = lambda x: np.atleast_1d(np.asarray(x, dtype=float)) @ P
        return cls(
            V=lambda x: 0.5 * (grad_V(x) * np.atleast_1d(x)).sum(axis=-1),
            grad_V=grad_V,
            convexity_class=cls_name,
            mu=mu,
            name=name,
        )


def _logcosh(z):
    # overflow-safe log(cosh(z))
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - np.log(2.0)


class SeparableConvex:
    """Separable phi(z) = sum_i (mu_i/2) z_i² + c_i log cosh(z_i).

    Smooth, strongly convex with modulus min(mu_i), gradient Lipschitz with
    constant max(mu_i + c_i); both constants are known in closed form, which
    is why this family backs the catalog systems used in gain tests.
    """

    def __init__(self, mu, c=None, n: Optional[int] = None):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if n is not None and mu.size == 1:
            mu = np.full(n, mu[0])
        if c is None:
            c = np.zeros_like(mu)
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.size == 1 and mu.size > 1:
            c = np.full(mu.size, c[0])
        if c.shape != mu.shape:
            raise DimensionMismatchError("mu and c must have matching length")
        if np.any(mu <= 0) or np.any(c < 0):
            raise ValueError("need mu_i > 0 and c_i >= 0")
        self.mu_vec = mu
        self.c_vec = c
        self.n = mu.size

    @property
    def mu(self) -> float:
        return float(self.mu_vec.min())

    @property
    def lipschitz(self) -> float:
        return float((self.mu_vec + self.c_vec).max())

    def __call__(self, z) -> float:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return (0.5 * self.mu_vec * z**2 + self.c_vec * _logcosh(z)).sum(axis=-1)

    def grad(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return self.mu_vec * z + self.c_vec * np.tanh(z)


# ---------------------------------------------------------------------------
# systems


_AS_VALUE = (lambda v: v.reshape(()), np.atleast_1d, np.atleast_2d)


class _Stacked:
    """The one stack rule for a user callable of one or more states: ``fn``
    at one point, or on one (N, k) stack per argument.  On the first stack
    of each argument width (a tuple of widths for several arguments), a
    fixed 3-row probe decides whether ``fn`` maps stacks to the stack of its
    row values; raising, a wrong shape or a wrong value all say no, and such
    stacks go row by row.  Each value has ``ndim`` dimensions: 0, 1 (a
    scalar becomes length 1) or 2.  On the row path an empty stack takes
    the value shape of a probe row; if no probe row evaluates, the value
    axes have size 0.
    """

    def __init__(self, fn, ndim: int = 1):
        self.fn = fn
        self.ndim = ndim
        self._stacks = set()  # argument widths on which fn maps stacks
        self._rows = {}       # the other probed widths -> shape of one value

    def __call__(self, x, *more) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if more:
            more = [np.asarray(m, dtype=float) for m in more]
        elif x.ndim == 2 and x.shape[1] in self._stacks:
            # f and h run in every RK4 stage: a one-state stack of a width
            # known to map stacks goes straight to fn
            return np.asarray(self.fn(x), dtype=float)
        if x.ndim < 2:
            value = self.fn(x, *more) if more else self.fn(x)
            return _AS_VALUE[self.ndim](np.asarray(value, dtype=float))
        key = (x.shape[-1],) + tuple(m.shape[-1] for m in more) if more else x.shape[-1]
        if self.maps_stacks(key):
            return np.asarray(self.fn(x, *more), dtype=float)
        # the callable at each row; no rows keep the value shape
        out = np.array([self(*r) for r in zip(*(a.reshape(-1, a.shape[-1]) for a in (x, *more)))])
        return out.reshape(x.shape[:-1] + (out.shape[1:] if len(out) else self._rows[key]))

    def maps_stacks(self, key) -> bool:
        """Whether ``fn`` maps stacks of argument width ``key``, probed on
        the first call for each key."""
        if key in self._stacks or key in self._rows:
            return key in self._stacks
        widths = key if isinstance(key, tuple) else (key,)
        Z = np.linspace(-0.5, 0.7, 3 * sum(widths)).reshape(3, -1)
        X = np.split(Z, np.cumsum(widths)[:-1], axis=1)
        rows, maps = [], False
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            for r in zip(*X):
                with suppress(Exception):
                    rows.append(self(*r))
            with suppress(Exception):
                if len(rows) == 3:
                    rows, stacked = np.array(rows), np.asarray(self.fn(*X), dtype=float)
                    # a stacked matmul may round differently from a single-row one
                    maps = stacked.shape == rows.shape and bool(
                        np.max(np.abs(stacked - rows), initial=0.0)
                        <= 1e-12 * (1.0 + np.max(np.abs(rows), initial=0.0)))
        if maps:
            self._stacks.add(key)
        else:
            self._rows[key] = rows[-1].shape if len(rows) else (0,) * self.ndim
        return maps


class _ControlAffine:
    """Shared implementation for CT and DT control-affine systems.

    ``f`` and ``h`` accept one state or an (N, n) stack of states, each
    through its own stack rule (:class:`_Stacked`).
    """

    discrete: bool = False

    def __init__(self, f, h, G, J=None, f_jac=None, name: str = "system",
                 storage: Optional[StorageGenerator] = None, meta: Optional[dict] = None):
        self.G = np.atleast_2d(np.asarray(G, dtype=float))
        self.n, self.m = self.G.shape
        self._f = _Stacked(f)
        self._h = _Stacked(h)
        if J is None:
            J = np.zeros((self._h(np.zeros(self.n)).size, self.m))
        self.J = np.atleast_2d(np.asarray(J, dtype=float))
        self.p = self.J.shape[0]
        if self.J.shape != (self.p, self.m):
            raise DimensionMismatchError("J must be p x m")
        if self.m > self.n or self.p > self.n:
            raise DimensionMismatchError(
                f"require m, p <= n, got n={self.n}, m={self.m}, p={self.p}"
            )
        sv = np.linalg.svd(self.G, compute_uv=False)
        if sv.size < self.m or sv[self.m - 1] <= 1e-10:
            raise DimensionMismatchError("G must have full column rank")
        self.f_jac = f_jac
        self.name = name
        self.storage = storage
        self.meta = dict(meta or {})

    # f and h run in every RK4 stage; calling the rule's __call__ by name
    # skips the slower dispatch of calling the rule object itself
    def f(self, x) -> np.ndarray:
        """Drift at one state (n,) or at each row of an (N, n) stack."""
        return self._f.__call__(x)

    def h(self, x) -> np.ndarray:
        """Output map at one state (n,) or at each row of an (N, n) stack."""
        return self._h.__call__(x)

    def output(self, x, u) -> np.ndarray:
        return self.h(x) + np.atleast_1d(u) @ self.J.T

    @property
    def square(self) -> bool:
        return self.m == self.p

    def __repr__(self):
        kind = "DtSystem" if self.discrete else "CtSystem"
        return f"{kind}({self.name!r}, n={self.n}, m={self.m}, p={self.p})"


class CtSystem(_ControlAffine):
    """Continuous-time control-affine system xdot = f(x) + G u."""

    discrete = False

    def rhs(self, x, u) -> np.ndarray:
        return self.f(x) + np.atleast_1d(u) @ self.G.T


class DtSystem(_ControlAffine):
    """Discrete-time control-affine system x+ = f(x) + G u."""

    discrete = True

    def step(self, x, u) -> np.ndarray:
        return self.f(x) + np.atleast_1d(u) @ self.G.T


# ---------------------------------------------------------------------------
# static nonlinearities and sector bounds


@dataclass(frozen=True)
class SectorBounds:
    """Diagonal incremental sector [K1, K2] with K = K2 - K1 ≻ 0."""

    K1: np.ndarray
    K2: np.ndarray

    def __post_init__(self):
        K1 = np.atleast_2d(np.asarray(self.K1, dtype=float))
        K2 = np.atleast_2d(np.asarray(self.K2, dtype=float))
        object.__setattr__(self, "K1", K1)
        object.__setattr__(self, "K2", K2)
        if K1.shape != K2.shape or K1.shape[0] != K1.shape[1]:
            raise DimensionMismatchError("K1, K2 must be square and same size")
        for M in (K1, K2):
            if np.any(M - np.diag(np.diagonal(M)) != 0.0):
                raise NonSymmetricError("sector bounds must be diagonal")
        if np.any(np.diagonal(K2 - K1) <= 0):
            raise ValueError("require K2 - K1 positive definite")

    @property
    def K(self) -> np.ndarray:
        return self.K2 - self.K1

    @property
    def m(self) -> int:
        return self.K1.shape[0]

    @classmethod
    def scalar(cls, alpha: float, beta: float, m: int = 1) -> "SectorBounds":
        return cls(alpha * np.eye(m), beta * np.eye(m))


@dataclass
class StaticNonlinearity:
    """Memoryless map psi: R^m -> R^m with an optional declared sector."""

    psi: Callable[[np.ndarray], np.ndarray]
    m: int = 1
    bounds: Optional[SectorBounds] = None
    name: str = "psi"

    def __call__(self, z) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.psi(np.atleast_1d(z)), dtype=float))


# ---------------------------------------------------------------------------
# catalog


def _require(params: dict, *keys):
    missing = [k for k in keys if k not in params]
    if missing:
        raise MissingParamError(f"missing parameter(s): {', '.join(missing)}")


def _phi_from_params(params: dict, n_key: str = "n") -> SeparableConvex:
    _require(params, "mu")
    return SeparableConvex(params["mu"], params.get("c"), n=params.get(n_key))


def _matrix_drift(A, B, d=0.0):
    """The drift x A + tanh(x) B + d at one state or on an (N, n) stack, from
    matrices formed once at build time; a zero B leaves out the tanh term."""
    if np.any(B):
        return lambda x: np.atleast_1d(x) @ A + np.tanh(np.atleast_1d(x)) @ B + d
    return lambda x: np.atleast_1d(x) @ A + d


def _build_second_order(params: dict):
    # xdot1 = x2, xdot2 = -U'(x1) - x2 + u, y = x2, with U strictly convex
    U = _phi_from_params({**params, "n": 1})

    def f(x):
        # components are read from x.T and the result transposed back, which
        # handles an (N, n) stack and costs one state no more than np.array
        xt = x.T
        v = xt[1]
        return np.array([v, -U.grad(xt[:1])[0] - v]).T

    h = lambda x: x[..., 1:]
    G = np.array([[0.0], [1.0]])
    gen = StorageGenerator(
        V=lambda x: U(x[..., :1]) + 0.5 * x[..., 1] ** 2,
        grad_V=lambda x: np.array([U.grad(x.T[:1])[0], x.T[1]]).T,
        convexity_class="strongly_convex",
        mu=min(U.mu, 1.0),
        name="mechanical energy",
    )
    return CtSystem(f, h, G, name="second_order", storage=gen,
                    meta={"family": "second_order", "U": U})


def _build_port_hamiltonian(params: dict):
    _require(params, "J", "R", "G")
    Jm = np.atleast_2d(np.asarray(params["J"], dtype=float))
    Rm = numerics.symmetrize(np.atleast_2d(np.asarray(params["R"], dtype=float)))
    G = np.atleast_2d(np.asarray(params["G"], dtype=float))
    n = G.shape[0]
    if np.linalg.norm(Jm + Jm.T) > 1e-10:
        raise NonSymmetricError("interconnection matrix must be skew-symmetric")
    if numerics.sym_eigen(Rm).min < -1e-10:
        raise ValueError("dissipation matrix must be PSD")
    d = np.asarray(params.get("d", np.zeros(n)), dtype=float)
    ham = params.get("hamiltonian", {})
    P = np.atleast_2d(np.asarray(ham.get("P", np.eye(n)), dtype=float))
    c = np.atleast_1d(np.asarray(ham.get("c", np.zeros(n)), dtype=float))

    Pt = P.T

    def H(x):
        x = np.atleast_1d(x)
        return (0.5 * (x @ Pt) * x + c * _logcosh(x)).sum(axis=-1)

    def grad_H(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return x @ Pt + c * np.tanh(x)

    mu = max(numerics.sym_eigen(P).min, 0.0)
    gen = StorageGenerator(V=H, grad_V=grad_H,
                           convexity_class="strongly_convex" if mu > 1e-12 else "convex",
                           mu=mu, name="hamiltonian")
    At = (Jm - Rm).T
    # grad_H(x) Aᵀ + d = x PᵀAᵀ + tanh(x) diag(c) Aᵀ + d
    f = _matrix_drift(Pt @ At, c[:, None] * At, d)
    h = lambda x: grad_H(x) @ G
    sqR = numerics.psd_sqrt(Rm)
    meta = {"family": "port_hamiltonian", "R": Rm, "Jmat": Jm, "sqrt_R": sqR,
            "grad_H": grad_H}
    return CtSystem(f, h, G, name="port_hamiltonian", storage=gen, meta=meta)


def _build_gradient_ff(params: dict):
    # tau xdot = -grad(phi) + g u, y = g x + j u; square system m = p = n
    _require(params, "g", "j")
    phi = _phi_from_params(params)
    n = phi.n
    g = float(params["g"])
    j = float(params["j"])
    tau = np.atleast_1d(np.asarray(params.get("tau", np.ones(n)), dtype=float))
    if tau.size == 1:
        tau = np.full(n, tau[0])
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    tinv = 1.0 / tau
    f = _matrix_drift(np.diag(-tinv * phi.mu_vec), np.diag(-tinv * phi.c_vec))
    h = lambda x: g * np.atleast_1d(x)
    G = np.diag(tinv) * g
    J = j * np.eye(n)
    gen = StorageGenerator.quadratic(np.diag(tau), name="tau-weighted quadratic")
    meta = {"family": "gradient_ff", "phi": phi, "g": g, "j": j, "tau": tau}
    return CtSystem(f, h, G, J=J, name="gradient_ff", storage=gen, meta=meta)


def _build_ahu_saddle(params: dict):
    # primal-dual flow for min phi(z) + 0.5(Az-b)'K(Az-b) s.t. Az = b,
    # with disturbance input on the primal dynamics and output y = z
    _require(params, "A", "b")
    phi = _phi_from_params(params, n_key="n1")
    A = np.atleast_2d(np.asarray(params["A"], dtype=float))
    b = np.atleast_1d(np.asarray(params["b"], dtype=float))
    n2, n1 = A.shape
    if n1 != phi.n or b.size != n2:
        raise DimensionMismatchError("A, b, phi dimensions inconsistent")
    if np.linalg.matrix_rank(A) < n2:
        raise ValueError("A must have full row rank")
    K = numerics.symmetrize(np.atleast_2d(np.asarray(params.get("K", np.zeros((n2, n2))), dtype=float)))
    if numerics.sym_eigen(K).min < -1e-10:
        raise ValueError("K must be PSD")

    M_plus = np.diag(phi.mu_vec) + A.T @ K @ A
    lam_min = numerics.sym_eigen(M_plus).min
    alpha = float(params.get("alpha", 2.0 / lam_min if lam_min > 0 else 1.0))

    # [-grad phi(z) - (res K + lam) A, res] with res = z Aᵀ - b, in x = [z, lam]
    Af = np.block([[-np.diag(phi.mu_vec) - A.T @ K @ A, A.T], [-A, np.zeros((n2, n2))]])
    f = _matrix_drift(Af, np.diag(np.concatenate([-phi.c_vec, np.zeros(n2)])),
                      np.concatenate([b @ K @ A, -b]))
    h = lambda x: x[..., :n1]
    G = np.vstack([np.eye(n1), np.zeros((n2, n1))])
    gen = StorageGenerator.quadratic(
        np.diag(np.concatenate([np.full(n1, alpha), np.ones(n2)])),
        name="weighted saddle quadratic",
    )
    meta = {"family": "ahu_saddle", "phi": phi, "A": A, "b": b, "K": K,
            "alpha": alpha, "n1": n1, "n2": n2}
    return CtSystem(f, h, G, name="ahu_saddle", storage=gen, meta=meta)


def _build_smib(params: dict):
    # swing dynamics: thetadot = omega, M omegadot = P_m - b V² sin(theta) - D omega + u
    _require(params, "M", "D", "b", "V")
    M = float(params["M"])
    D = float(params["D"])
    bcoef = float(params["b"])
    Vbus = float(params["V"])
    Pm = float(params.get("P_m", 0.0))
    if min(M, D, bcoef, Vbus) <= 0:
        raise ValueError("M, D, b, V must be positive")
    bv2 = bcoef * Vbus**2

    def f(x):
        xt = x.T  # see _build_second_order
        omega = xt[1]
        return np.array([omega, (Pm - bv2 * np.sin(xt[0]) - D * omega) / M]).T

    h = lambda x: x[..., 1:]
    G = np.array([[0.0], [1.0 / M]])
    # energy function; convex only on |theta| <= pi/2, which is the region
    # the absolute-stability analysis restricts itself to
    gen = StorageGenerator(
        V=lambda x: 0.5 * M * x[..., 1] ** 2 + bv2 * (1.0 - np.cos(x[..., 0])),
        grad_V=lambda x: np.array([bv2 * np.sin(x.T[0]), M * x.T[1]]).T,
        convexity_class="convex",
        name="smib energy",
    )
    meta = {"family": "smib", "M": M, "D": D, "b": bcoef, "V": Vbus, "P_m": Pm}
    return CtSystem(f, h, G, name="smib", storage=gen, meta=meta)


def _build_dt_gradient(params: dict):
    # x+ = x - alpha (grad phi(x) - v), y = x
    _require(params, "alpha")
    phi = _phi_from_params(params)
    alpha = float(params["alpha"])
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = phi.n
    f = _matrix_drift(np.eye(n) - alpha * np.diag(phi.mu_vec), np.diag(-alpha * phi.c_vec))
    h = lambda x: np.atleast_1d(x)
    G = alpha * np.eye(n)
    gen = StorageGenerator.quadratic(np.eye(n) / alpha, name="scaled quadratic")
    meta = {"family": "dt_gradient", "phi": phi, "alpha": alpha,
            "P": np.eye(n) / (2.0 * alpha)}
    return DtSystem(f, h, G, name="dt_gradient", storage=gen, meta=meta)


def _build_dt_integrator(params: dict):
    _require(params, "alpha")
    alpha = float(params["alpha"])
    n = int(params.get("n", 1))
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    f = h = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    G = alpha * np.eye(n)
    gen = StorageGenerator.quadratic(np.eye(n) / alpha, name="scaled quadratic")
    meta = {"family": "dt_integrator", "alpha": alpha, "f_is_identity": True,
            "P": np.eye(n) / (2.0 * alpha)}
    return DtSystem(f, h, G, name="dt_integrator", storage=gen, meta=meta)


def _build_lti(params: dict):
    _require(params, "F", "G")
    F = np.atleast_2d(np.asarray(params["F"], dtype=float))
    G = np.atleast_2d(np.asarray(params["G"], dtype=float))
    n = F.shape[0]
    H = np.atleast_2d(np.asarray(params.get("H", np.eye(n)), dtype=float))
    J = np.atleast_2d(np.asarray(params["J"], dtype=float)) if "J" in params else None
    discrete = bool(params.get("discrete", False))
    Ft, Ht = F.T, H.T
    f = lambda x: np.atleast_1d(x) @ Ft
    h = lambda x: np.atleast_1d(x) @ Ht
    meta = {"family": "lti", "F": F, "H": H, "f_is_zero": bool(np.all(F == 0))}
    cls = DtSystem if discrete else CtSystem
    return cls(f, h, G, J=J, f_jac=lambda x: F, name="lti", meta=meta)


_FAMILIES = {
    "second_order": _build_second_order,
    "port_hamiltonian": _build_port_hamiltonian,
    "gradient_ff": _build_gradient_ff,
    "ahu_saddle": _build_ahu_saddle,
    "smib": _build_smib,
    "dt_gradient": _build_dt_gradient,
    "dt_integrator": _build_dt_integrator,
    "lti": _build_lti,
}


def catalog_build(name: str, params: Optional[dict] = None):
    """Build a catalog system by family name.

    Known families: second_order, port_hamiltonian, gradient_ff, ahu_saddle,
    smib, dt_gradient, dt_integrator, lti.
    """
    if name not in _FAMILIES:
        raise UnknownSystemError(
            f"unknown family {name!r}; known: {sorted(_FAMILIES)}"
        )
    return _FAMILIES[name](dict(params or {}))


def load_system(source):
    """Load a system from a JSON file path, JSON string, or parsed dict.

    A dict is used as is, a string whose first non-blank character is ``{``
    is JSON text, and any other ``str`` or ``os.PathLike`` is a path.  Schema:
    {"schema": 1, "family": "<name>", "params": {...}} with matrices as
    row-major nested arrays.  Any other source, a document or ``params``
    that is not a JSON object, and unknown top-level keys are ConfigErrors.
    """
    doc = source
    if isinstance(source, (str, os.PathLike)):
        text = source
        try:
            if not (isinstance(source, str) and source.lstrip().startswith("{")):
                with open(source) as fh:
                    text = fh.read()
            doc = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load system description: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"system description must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"schema", "family", "params"}
    if unknown:
        raise ConfigError(f"unknown keys in system file: {sorted(unknown)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}, expected {SCHEMA_VERSION}")
    if "family" not in doc:
        raise ConfigError("system file missing 'family'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("system 'params' must be a JSON object")
    return catalog_build(doc["family"], params)


# ---------------------------------------------------------------------------
# validation


def validate_system(sys, probes: int = 20, seed: int = 0) -> dict:
    """Sampled sanity report for a system: rank(G), finiteness of f and h at
    ``probes`` >= 1 random states in [-2, 2]ⁿ, and consistency of an
    analytic Jacobian when present.

    Failures are recorded in the report, never raised.
    """
    if probes < 1:
        raise ValueError(f"need at least one probe, got probes={probes}")
    checks = {}
    sv = np.linalg.svd(sys.G, compute_uv=False)
    checks["G_full_column_rank"] = bool(sv.size >= sys.m and sv[sys.m - 1] > 1e-10)
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(probes, sys.n))
    worst_jac = 0.0
    try:
        checks["f_h_finite"] = bool(np.isfinite(sys.f(X)).all() and np.isfinite(sys.h(X)).all())
    except Exception:
        checks["f_h_finite"] = False
    else:
        if sys.f_jac is not None:
            Jn = numerics.fd_jacobian(sys.f, X)
            mismatch = (np.linalg.norm(_Stacked(sys.f_jac, 2)(X) - Jn, axis=(1, 2))
                        / np.maximum(np.linalg.norm(Jn, axis=(1, 2)), 1.0))
            # fmax passes over the NaN of a non-finite row, which f_h_finite reports
            worst_jac = float(np.fmax.reduce(mismatch, initial=0.0))
    if sys.f_jac is not None:
        checks["jacobian_consistent"] = worst_jac <= 1e-4
        checks["max_jacobian_mismatch"] = worst_jac
    checks["ok"] = all(v for k, v in checks.items() if isinstance(v, bool))
    return checks
