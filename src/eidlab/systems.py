"""Control-affine system representations and the example-system catalog.

Continuous-time systems are ``xdot = f(x) + G u, y = h(x) + J u`` and
discrete-time systems are ``x+ = f(x) + G u, y = h(x) + J u``, with constant
input and feedthrough matrices.  The catalog builds the benchmark families
used throughout the package from plain parameter dictionaries, so they can
also be loaded from JSON files.
"""

from __future__ import annotations

import csv
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
    DomainError,
    MissingParamError,
    NonSymmetricError,
    RankDeficientError,
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
                f"incompatible supply blocks Q{self.Q.shape} S{self.S.shape} R{self.R.shape}")
        self.p, self.m = p, m
        if warn_definite:
            eig = numerics.sym_eigen(self.block())
            if eig[0] > -1e-12 or eig[-1] < 1e-12:
                # sign-definite supplies make the dissipation inequality
                # trivial or infeasible; callers may do this on purpose
                warnings.warn("supply-rate block matrix is sign-definite", stacklevel=2)

    def block(self) -> np.ndarray:
        return np.block([[self.Q, self.S], [self.S.T, self.R]])

    def evaluate(self, u, y):
        """w(u, y) as a float for one (u, y) pair, or as a (K,) array for
        (K, m) / (K, p) stacks of pairs."""
        u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
        U, Y = np.atleast_2d(u, y)
        vals = (np.sum((Y @ self.Q) * Y, axis=1) + 2.0 * np.sum((Y @ self.S) * U, axis=1)
                + np.sum((U @ self.R) * U, axis=1))
        return float(vals[0]) if max(u.ndim, y.ndim) < 2 else vals

    def rhat(self, J) -> np.ndarray:
        """Feedthrough-matched input block R + JᵀS + SᵀJ + JᵀQJ."""
        J = np.atleast_2d(np.asarray(J, dtype=float))
        JS = J.T @ self.S
        return self.R + JS + JS.T + J.T @ self.Q @ J

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

    ``mu`` is the declared strong-convexity modulus: a generator with
    ``mu > 0`` is strongly convex, one with ``mu = 0`` (the default) convex.
    """

    V: Callable[[np.ndarray], float]
    grad_V: Callable[[np.ndarray], np.ndarray]
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
        block of random pairs, ``probes`` >= 1 (monotonicity at ``mu = 0``).
        """
        if probes < 1:
            raise DomainError(f"need at least one probe, got probes={probes}")
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
        return {
            "grad_consistent": worst_grad <= 1e-5,
            "max_grad_mismatch": worst_grad,
            "min_secant_ratio": worst_secant,
            "secant_ok": worst_secant >= self.mu - 1e-9,
        }

    @classmethod
    def quadratic(cls, P, c=None, name: str = "quadratic") -> "StorageGenerator":
        """½xᵀPx + Σ cᵢ log cosh xᵢ, convex: P is checked PSD (RhatNotPsdError) and c >= 0
        (DomainError); mu = max(λ_min(P), 0) and ∇V is the form x P + tanh(x) c."""
        P, least = numerics.require_psd(P, "storage P")
        c = np.zeros(len(P)) if c is None else c
        c = np.atleast_1d(_positive("storage weights c", c, strict=False))
        if c.shape != (len(P),):
            raise DimensionMismatchError(f"need {len(P)} storage weights c, got {c.shape}")
        grad_V, Pt = _Affine(P, c), P.T

        def V(x):
            x = np.atleast_1d(x)
            v = 0.5 * (x @ Pt) * x
            return (v if grad_V.B is None else v + c * _logcosh(x)).sum(axis=-1)
        return cls(V=V, grad_V=grad_V, mu=max(least, 0.0), name=name)


def _logcosh(z):
    # overflow-safe log(cosh(z))
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - np.log(2.0)


# ---------------------------------------------------------------------------
# systems


_AS_VALUE = (lambda v: v.reshape(()), np.atleast_1d, np.atleast_2d)


class _Stacked:
    """The one stack rule for a user callable of one state: ``fn`` at one
    point, or on an (N, k) stack.  On the first stack of each width k, a
    fixed 3-row probe decides whether ``fn`` maps stacks to the stack of its
    row values; raising, a wrong shape or a wrong value all say no, and such
    stacks go row by row, the result shaped once.  Each value has ``ndim``
    dimensions: 0, 1 (a scalar becomes length 1) or 2.  On the row path an
    empty stack takes the value shape of a probe row; if no probe row
    evaluates, the value axes have size 0.  :meth:`bind` picks the rule
    once for the many calls of one trajectory's RK4 stages."""

    def __init__(self, fn, ndim: int = 1):
        self.fn = fn
        self.ndim = ndim
        self._stacks = set()  # widths on which fn maps stacks
        self._rows = {}       # the other probed widths -> shape of one value

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            return _AS_VALUE[self.ndim](np.asarray(self.fn(x), dtype=float))
        k = x.shape[-1]
        if k in self._stacks or self.maps_stacks(k):  # the set first: closures run per RK4 stage
            return np.asarray(self.fn(x), dtype=float)
        # fn at each row (ragged values raise); no rows keep a probe row's shape
        out = np.array([self.fn(r) for r in x.reshape(-1, k)], dtype=float)
        value = _AS_VALUE[self.ndim](out[0]).shape if len(out) else self._rows[k]
        return out.reshape(x.shape[:-1] + value)

    def bind(self, x):
        """The callable for arrays shaped like ``x``: ``fn`` where it maps them, else the rule."""
        if isinstance(self.fn, _Affine) or (np.ndim(x) == 2 and self.maps_stacks(x.shape[1])):
            return self.fn
        return self.__call__

    def maps_stacks(self, k) -> bool:
        """Whether ``fn`` maps stacks of width ``k``, probed on the first
        call for each width."""
        if k in self._stacks or k in self._rows:
            return k in self._stacks
        X = np.linspace(-0.5, 0.7, 3 * k).reshape(3, k)
        rows, maps = [], False
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            for r in X:
                with suppress(Exception):
                    rows.append(self(r))
            with suppress(Exception):
                if len(rows) == 3:
                    rows, stacked = np.array(rows), np.asarray(self.fn(X), dtype=float)
                    # a stacked matmul may round differently from a single-row one
                    maps = stacked.shape == rows.shape and bool(
                        np.max(np.abs(stacked - rows), initial=0.0)
                        <= 1e-12 * (1.0 + np.max(np.abs(rows), initial=0.0)))
        if maps:
            self._stacks.add(k)
        else:
            self._rows[k] = rows[-1].shape if len(rows) else (0,) * self.ndim
        return maps


class _Affine:
    """The matrix form x A + tanh(x) B + d at one state or on an (N, n) stack,
    from matrices formed once at build time, a zero B or d left out and a 1-D
    B read as diag(B), applied elementwise; ``jac`` is its Jacobian
    Aᵀ + Bᵀ diag(sech² x), one matrix per row."""

    def __init__(self, A, B=None, d=None):
        self.A = A
        self.B, self.d = (None if v is None or not np.any(v) else v for v in (B, d))

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(x)
        y = x @ self.A if self.B is None else x @ self.A + (
            np.tanh(x) * self.B if self.B.ndim == 1 else np.tanh(x) @ self.B)
        return y if self.d is None else y + self.d

    def jac(self, x) -> np.ndarray:
        x = np.atleast_1d(x)
        At = np.broadcast_to(self.A.T, x.shape[:-1] + self.A.T.shape)
        Bt = None if self.B is None else np.diag(self.B) if self.B.ndim == 1 else self.B.T
        return At if Bt is None else At + Bt * (1.0 - np.tanh(x) ** 2)[..., None, :]


class _ControlAffine:
    """Shared implementation for CT and DT control-affine systems.

    ``f``, ``h`` and an optional ``f_jac`` accept one state or an (N, n)
    stack of states, each through a stack rule (:class:`_Stacked`).
    A matrix-form f (:class:`_Affine`) gives ``f_jac`` when none is passed,
    and a matrix-form h gives the read-only ``h_jac``, None for any other h.
    """

    discrete: bool = False

    def __init__(self, f, h, G, J=None, f_jac=None, name: str = "system",
                 storage: Optional[StorageGenerator] = None, meta: Optional[dict] = None):
        self.G = np.atleast_2d(np.asarray(G, dtype=float))
        self.n, self.m = self.G.shape
        self._f, self._h = _Stacked(f), _Stacked(h)
        self.p = self._h(np.zeros(self.n)).size
        if J is None:
            J = np.zeros((self.p, self.m))
        self.J = np.atleast_2d(np.asarray(J, dtype=float))
        if self.J.shape != (self.p, self.m):
            raise DimensionMismatchError(f"J must be p x m = {self.p} x {self.m}")
        if self.m > self.n or self.p > self.n:
            raise DimensionMismatchError(f"require m, p <= n; n={self.n}, m={self.m}, p={self.p}")
        if not numerics.full_row_rank(self.G.T):
            raise DimensionMismatchError("G must have full column rank")
        f_jac = f.jac if f_jac is None and isinstance(f, _Affine) else f_jac
        self.f_jac = None if f_jac is None else _Stacked(f_jac, 2)
        self.name, self.storage, self.meta = name, storage, dict(meta or {})

    @property
    def h_jac(self):
        return self._h.fn.jac if isinstance(self._h.fn, _Affine) else None

    # a closure's f and h (static_feedback's) run in every RK4 stage; calling
    # the rule's __call__ by name skips the slower dispatch of the rule object
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
# sector bounds


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
            raise DomainError("require K2 - K1 positive definite")

    @property
    def K(self) -> np.ndarray:
        return self.K2 - self.K1

    @property
    def m(self) -> int:
        return self.K1.shape[0]

    @classmethod
    def scalar(cls, alpha: float, beta: float, m: int = 1) -> "SectorBounds":
        return cls(alpha * np.eye(m), beta * np.eye(m))


# ---------------------------------------------------------------------------
# catalog


def _require(params: dict, *keys):
    missing = [k for k in keys if k not in params]
    if missing:
        raise MissingParamError(f"missing parameter(s): {', '.join(missing)}")


def _positive(name: str, value, strict: bool = True) -> np.ndarray:
    """``value`` as floats if each is > 0 (>= 0 unless ``strict``; NaN fails both), else a
    DomainError naming ``name``: the one check of the library's positive parameters."""
    v = np.asarray(value, dtype=float)
    if not all(x > 0 if strict else x >= 0 for x in v.ravel().tolist()):  # no numpy dispatch
        raise DomainError(f"{name} must be {'positive' if strict else 'nonnegative'}")
    return v


def _per_coordinate(name: str, value, n, strict: bool = True) -> np.ndarray:
    """``value`` as n floats, one entry standing for all n, each passing :func:`_positive`;
    any other shape, or n < 1, is a DimensionMismatchError."""
    v = np.atleast_1d(_positive(name, value, strict))
    if n < 1 or v.shape not in ((1,), (n,)):
        raise DimensionMismatchError(f"need n >= 1 and 1 or n = {n} {name} values, got {v.shape}")
    return np.full(n, v[0]) if v.size < n else v


def _integer(params: dict, key: str, default: int) -> int:
    """``params[key]``, ``default`` where it is absent or null; a ConfigError naming ``key``
    unless it is an integer (a bool, a string or a float such as 2.0 is not)."""
    v = params.get(key)
    if v is None:
        return default
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _phi_from_params(params: dict, n_key: str = "n"):
    """(mu, c, phi) for phi(z) = Σ ½ muᵢ zᵢ² + cᵢ log cosh zᵢ, n = params[n_key] or len(mu)."""
    _require(params, "mu")
    n = _integer(params, n_key, np.size(params["mu"]))
    mu = _per_coordinate("mu", params["mu"], n)
    c = _per_coordinate("c", 0.0 if params.get("c") is None else params["c"], n, strict=False)
    return mu, c, StorageGenerator.quadratic(np.diag(mu), c)


def _build_second_order(params: dict):
    # xdot1 = x2, xdot2 = -U'(x1) - x2 + u, y = x2, with U strictly convex;
    # U'(z) = mu z + c tanh z makes the drift a matrix form
    (mu,), (c,), U = _phi_from_params({**params, "n": 1})
    f = _Affine(np.array([[0.0, -mu], [1.0, -1.0]]), np.array([[0.0, -c], [0.0, 0.0]]))
    h = _Affine(np.array([[0.0], [1.0]]))
    G = np.array([[0.0], [1.0]])
    gen = StorageGenerator.quadratic(np.diag([mu, 1.0]), [c, 0.0], name="mechanical energy")
    return CtSystem(f, h, G, name="second_order", storage=gen,
                    meta={"family": "second_order", "U": U})


def _build_port_hamiltonian(params: dict):
    _require(params, "J", "R", "G")
    Jm = np.atleast_2d(np.asarray(params["J"], dtype=float))
    Rm = np.atleast_2d(np.asarray(params["R"], dtype=float))
    G = np.atleast_2d(np.asarray(params["G"], dtype=float))
    n = G.shape[0]
    d = np.asarray(params.get("d", np.zeros(n)), dtype=float)
    ham = params.get("hamiltonian", {})
    P = np.atleast_2d(np.asarray(ham.get("P", np.eye(n)), dtype=float))
    c = np.atleast_1d(np.asarray(ham.get("c", np.zeros(n)), dtype=float))
    if any(M.shape != (n, n) for M in (Jm, Rm, P)) or c.shape != (n,) or d.shape != (n,):
        raise DimensionMismatchError(f"J, R and P must be {n} x {n} and c, d of length {n}"
                                     f" for the {n} rows of G")
    Rm = numerics.require_psd(Rm, "dissipation matrix R")[0]
    if np.linalg.norm(Jm + Jm.T) > 1e-10:
        raise NonSymmetricError("interconnection matrix must be skew-symmetric")
    gen = StorageGenerator.quadratic(P, c, name="hamiltonian")
    At = (Jm - Rm).T
    # ∇H(x) M = x Pᵀ M + tanh(x) diag(c) M, for M = Aᵀ (plus d) and M = G
    f = _Affine(P.T @ At, c[:, None] * At, d)
    h = _Affine(P.T @ G, c[:, None] * G)
    sqR = numerics.psd_sqrt(Rm)
    meta = {"family": "port_hamiltonian", "R": Rm, "Jmat": Jm, "sqrt_R": sqR,
            "grad_H": gen.grad_V}
    return CtSystem(f, h, G, name="port_hamiltonian", storage=gen, meta=meta)


def _build_gradient_ff(params: dict):
    # tau xdot = -grad(phi) + g u, y = g x + j u; square system m = p = n
    _require(params, "g", "j")
    mu, c, phi = _phi_from_params(params)
    n = mu.size
    g = float(params["g"])
    j = float(params["j"])
    tau = _per_coordinate("tau", params.get("tau", 1.0), n)
    tinv = 1.0 / tau
    f = _Affine(np.diag(-tinv * mu), -tinv * c)
    h = _Affine(g * np.eye(n))
    G = np.diag(tinv) * g
    J = j * np.eye(n)
    gen = StorageGenerator.quadratic(np.diag(tau), name="tau-weighted quadratic")
    meta = {"family": "gradient_ff", "phi": phi, "g": g, "j": j, "tau": tau}
    return CtSystem(f, h, G, J=J, name="gradient_ff", storage=gen, meta=meta)


def _build_ahu_saddle(params: dict):
    # primal-dual flow for min phi(z) + 0.5(Az-b)'K(Az-b) s.t. Az = b,
    # with disturbance input on the primal dynamics and output y = z
    _require(params, "A", "b")
    A = np.atleast_2d(np.asarray(params["A"], dtype=float))
    b = np.atleast_1d(np.asarray(params["b"], dtype=float))
    n2, n1 = A.shape
    K = numerics.require_psd(params.get("K", np.zeros((n2, n2))), "K")[0]
    mu, c, phi = _phi_from_params(params, n_key="n1")
    if n1 != mu.size or b.size != n2:
        raise DimensionMismatchError("A, b, phi dimensions inconsistent")
    if not numerics.full_row_rank(A):
        raise RankDeficientError("A must have full row rank")
    lam_min = numerics.sym_eigen(np.diag(mu) + A.T @ K @ A)[0]  # >= min mu > 0
    alpha = float(_positive("alpha", params.get("alpha", 2.0 / lam_min)))

    # [-grad phi(z) - (res K + lam) A, res] with res = z Aᵀ - b, in x = [z, lam]
    Af = np.block([[-np.diag(mu) - A.T @ K @ A, A.T], [-A, np.zeros((n2, n2))]])
    f = _Affine(Af, np.concatenate([-c, np.zeros(n2)]), np.concatenate([b @ K @ A, -b]))
    h = _Affine(np.eye(n1 + n2, n1))
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
    M, D, bcoef, Vbus = (float(_positive(k, params[k])) for k in ("M", "D", "b", "V"))
    Pm = float(params.get("P_m", 0.0))
    bv2 = bcoef * Vbus**2

    def f(x):
        xt = x.T  # read by component and transposed back: one state or a stack
        omega = xt[1]
        return np.array([omega, (Pm - bv2 * np.sin(xt[0]) - D * omega) / M]).T

    def f_jac(x):
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 1], J[..., 1, 0], J[..., 1, 1] = 1.0, -bv2 / M * np.cos(x[..., 0]), -D / M
        return J

    h = _Affine(np.array([[0.0], [1.0]]))
    G = np.array([[0.0], [1.0 / M]])
    # energy function; convex only on |theta| <= pi/2, which is the region
    # the absolute-stability analysis restricts itself to
    gen = StorageGenerator(
        V=lambda x: 0.5 * M * x[..., 1] ** 2 + bv2 * (1.0 - np.cos(x[..., 0])),
        grad_V=lambda x: np.array([bv2 * np.sin(x.T[0]), M * x.T[1]]).T,
        name="smib energy",
    )
    meta = {"family": "smib", "M": M, "D": D, "b": bcoef, "V": Vbus, "P_m": Pm}
    return CtSystem(f, h, G, f_jac=f_jac, name="smib", storage=gen, meta=meta)


def _build_dt_gradient(params: dict):
    # x+ = x - alpha (grad phi(x) - v), y = x
    _require(params, "alpha")
    mu, c, phi = _phi_from_params(params)
    alpha = float(_positive("alpha", params["alpha"]))
    n = mu.size
    f = _Affine(np.eye(n) - alpha * np.diag(mu), -alpha * c)
    h = _Affine(np.eye(n))
    G = alpha * np.eye(n)
    gen = StorageGenerator.quadratic(np.eye(n) / alpha, name="scaled quadratic")
    meta = {"family": "dt_gradient", "phi": phi, "alpha": alpha,
            "P": np.eye(n) / (2.0 * alpha)}
    return DtSystem(f, h, G, name="dt_gradient", storage=gen, meta=meta)


def _build_dt_integrator(params: dict):
    _require(params, "alpha")
    alpha = float(_positive("alpha", params["alpha"]))
    n = _integer(params, "n", 1)
    if n < 1:
        raise DimensionMismatchError(f"need n >= 1, got n = {n}")
    f = h = _Affine(np.eye(n))
    G = alpha * np.eye(n)
    gen = StorageGenerator.quadratic(np.eye(n) / alpha, name="scaled quadratic")
    meta = {"family": "dt_integrator", "alpha": alpha, "P": np.eye(n) / (2.0 * alpha)}
    return DtSystem(f, h, G, name="dt_integrator", storage=gen, meta=meta)


def _build_lti(params: dict):
    _require(params, "F", "G")
    F = np.atleast_2d(np.asarray(params["F"], dtype=float))
    G = np.atleast_2d(np.asarray(params["G"], dtype=float))
    n = G.shape[0]
    H = np.atleast_2d(np.asarray(params.get("H", np.eye(n)), dtype=float))
    if F.shape != (n, n) or H.shape[1] != n:
        raise DimensionMismatchError(f"F must be {n} x {n} and H have {n} columns"
                                     f" for the {n} rows of G")
    J = np.atleast_2d(np.asarray(params["J"], dtype=float)) if "J" in params else None
    discrete = bool(params.get("discrete", False))
    meta = {"family": "lti", "F": F, "H": H}
    cls = DtSystem if discrete else CtSystem
    return cls(_Affine(F.T), _Affine(H.T), G, J=J, name="lti", meta=meta)


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
        raise UnknownSystemError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}")
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


def _write_csv(path, columns: dict):
    """The one CSV format of the package's artifacts, with csv's CRLF line ends.  A 1-D
    column is one column named by its key, a 2-D one is ``key_1 … key_k``.  Row k holds row
    k of each column; a column with fewer rows than the first leaves its cells empty."""
    rows, blocks = len(next(iter(columns.values()))), []
    for key, col in columns.items():
        wide = np.ndim(col) == 2
        names = [f"{key}_{i + 1}" for i in range(np.shape(col)[1])] if wide else [key]
        body = list(col) if wide else [[v] for v in col]
        blocks.append([names, *body, *[[""] * len(names)] * (rows - len(body))])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([v for part in line for v in part] for line in zip(*blocks))


# ---------------------------------------------------------------------------
# validation


def validate_system(sys, probes: int = 20, seed: int = 0) -> dict:
    """Sampled sanity report for a system: rank(G), finiteness of f and h at
    ``probes`` >= 1 random states in [-2, 2]ⁿ, and consistency of an
    analytic Jacobian when present.

    Failures are recorded in the report, never raised.
    """
    if probes < 1:
        raise DomainError(f"need at least one probe, got probes={probes}")
    checks = {}
    checks["G_full_column_rank"] = numerics.full_row_rank(sys.G.T)
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(probes, sys.n))
    worst_jac = 0.0
    try:
        checks["f_h_finite"] = bool(np.isfinite(sys.f(X)).all() and np.isfinite(sys.h(X)).all())
    except Exception:
        checks["f_h_finite"] = False
    else:
        if sys.f_jac is not None:
            Jn = numerics.fd_jacobian(sys.f, X)
            mismatch = (np.linalg.norm(sys.f_jac(X) - Jn, axis=(1, 2))
                        / np.maximum(np.linalg.norm(Jn, axis=(1, 2)), 1.0))
            # fmax passes over the NaN of a non-finite row, which f_h_finite reports
            worst_jac = float(np.fmax.reduce(mismatch, initial=0.0))
    if sys.f_jac is not None:
        checks["jacobian_consistent"] = worst_jac <= 1e-4
        checks["max_jacobian_mismatch"] = worst_jac
    checks["ok"] = all(v for k, v in checks.items() if isinstance(v, bool))
    return checks
