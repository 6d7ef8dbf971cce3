"""Small dense linear algebra, root finding and fixed-step integration.

Everything here operates on plain numpy arrays of modest size (the systems
in this package have at most a few dozen states).  All functions are pure.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    RhatNotPsdError,
    SingularJacobianError,
)

DEFAULT_PSD_TOL = 1e-8
SYMMETRY_RTOL = 1e-12


def require_finite(a, what: str = "array") -> np.ndarray:
    """Return ``a`` as a float array, raising NonFiniteError on NaN/Inf."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return a


def symmetrize(A) -> np.ndarray:
    """Check A is symmetric to within SYMMETRY_RTOL (relative) and return
    (A+Aᵀ)/2."""
    A = require_finite(A, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {A.shape}")
    # Frobenius norms, as np.linalg.norm gives them, without its wrapper's cost
    scale = max(np.sqrt(np.vdot(A, A)), 1.0)
    asym = np.sqrt(np.vdot(A - A.T, A - A.T))
    if asym > SYMMETRY_RTOL * scale:
        raise NonSymmetricError(
            f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}")
    return 0.5 * (A + A.T)


def sym_eigen(A) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix not yet checked, or
    NonSymmetricError if its relative asymmetry exceeds SYMMETRY_RTOL.  A
    matrix from :func:`symmetrize` goes to ``np.linalg.eigh`` directly:
    single matrices go to ``eigh`` throughout, as in :func:`psd_sqrt`, since
    ``eigvalsh``'s eigenvalues can differ in the last bits from order 3 on."""
    return np.linalg.eigh(symmetrize(A)).eigenvalues


class Definiteness(str, Enum):
    PD = "PD"
    PSD = "PSD"
    INDEFINITE = "Indefinite"
    NSD = "NSD"
    ND = "ND"


def psd_check(A, tol: float = DEFAULT_PSD_TOL) -> Definiteness:
    """Classify a symmetric matrix by its eigenvalue range against ±tol.

    A matrix with all |eigenvalues| <= tol (e.g. the zero matrix) is both
    PSD and NSD; this function reports PSD for that case.
    """
    eig = sym_eigen(A)
    lo, hi = eig[0], eig[-1]
    if lo > tol:
        return Definiteness.PD
    if hi < -tol:
        return Definiteness.ND
    if lo >= -tol:
        return Definiteness.PSD
    if hi <= tol:
        return Definiteness.NSD
    return Definiteness.INDEFINITE


def psd_sqrt(A, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Symmetric PSD square root, clipping eigenvalues in [-tol, 0] to zero.

    Raises RhatNotPsdError when ``A`` has an eigenvalue below -tol.
    """
    lam, V = np.linalg.eigh(symmetrize(A))
    if lam[0] < -tol:
        raise RhatNotPsdError(f"matrix has eigenvalue {lam[0]:.3e} < 0")
    return (V * np.sqrt(np.clip(lam, 0.0, None))) @ V.T


def psd_storage(P) -> np.ndarray:
    """A discrete-time storage matrix P, symmetrised; RhatNotPsdError unless
    it is positive semidefinite to within 1e-10.  Every use of a P checks it
    here: certificates, margins and trajectory audits."""
    P = symmetrize(np.atleast_2d(np.asarray(P, dtype=float)))
    if np.linalg.eigh(P).eigenvalues[0] < -1e-10:
        raise RhatNotPsdError("P must be positive semidefinite")
    return P


def fd_jacobian(F, x) -> np.ndarray:
    """Central-difference Jacobian of ``F`` at ``x``, or the (N, k, n) stack
    of Jacobians at each row of an (N, n) stack ``x`` for an ``F`` that maps
    stacks: 2n calls of ``F`` either way.

    Step per coordinate is h_i = max(1e-6, 1e-6 * |x_i|).  It is the Jacobian
    of :func:`newton_root` calls without ``jac``: among the equilibrium
    solves, those of systems without an ``f_jac``.
    """
    x = np.asarray(x, dtype=float)
    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    columns = []
    for i in range(x.shape[-1]):
        step = np.zeros_like(x)
        step[..., i] = h[..., i]
        columns.append((np.atleast_1d(F(x + step)) - np.atleast_1d(F(x - step)))
                       / (2.0 * h[..., i, None]))
    return np.stack(columns, axis=-1)


def fd_gradient(V, x) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``, or the
    (N, n) stack of gradients at each row of an (N, n) stack ``x`` for a
    ``V`` that maps stacks, as for :func:`fd_jacobian`."""
    return fd_jacobian(lambda z: np.asarray(V(z), dtype=float)[..., None], x)[..., 0, :]


def _min_norm_step(J, R):
    """Minimum-norm solutions s_k = J_kᵀ(J_k J_kᵀ)⁻¹ r_k of J_k s_k = r_k, by
    one batched ``eigh`` of the q x q Gram matrices of a (K, q, n) stack,
    q <= n (else DimensionMismatchError).  Rank rule: NaN rows where J_k or
    r_k is not finite or the Gram's least eigenvalue is at most eps·max(q, n)
    times its largest, i.e. cond(J_k) >= 1/sqrt(eps·max(q, n)), ~5e7 at 2."""
    K, q, n = J.shape
    if q > n:
        raise DimensionMismatchError(f"{q} equations in {n} unknowns: overdetermined")
    ok = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(R).all(axis=1)
    J, R = J[ok], R[ok]
    lam, V = np.linalg.eigh(J @ J.transpose(0, 2, 1))
    full = lam[:, :1] > np.finfo(float).eps * max(q, n) * lam[:, -1:]
    y = np.einsum("kij,kj->ki", V, np.einsum("kji,kj->ki", V, R) / np.where(full, lam, np.inf))
    step = np.full((K, n), np.nan)
    step[ok] = np.where(full, np.einsum("kqn,kq->kn", J, y), np.nan)
    return step


def newton_root(F, x0, tol: float = 1e-10, max_iter: int = 50, jac=None) -> np.ndarray:
    """Gauss-Newton for ``F(x) = 0`` from one state or from each row of an
    (N, n) stack, all rows stepping together with minimum-norm steps
    (:func:`_min_norm_step`) until |F| <= ``tol``, checked once more after
    the last of ``max_iter`` steps.

    On a stack, ``F`` maps (N, n) to (N, q) and ``jac`` (if supplied; central
    finite differences otherwise) to (N, q, n).  A row whose residual or
    Jacobian goes non-finite, whose Jacobian loses rank or which does not
    converge comes back NaN.  One state alone raises NonFiniteError,
    SingularJacobianError or NoConvergenceError instead.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim < 2:  # one state: F and jac see the state itself
        F1, jac1 = F, jac
        F = lambda X: np.atleast_1d(np.asarray(F1(X[0]), dtype=float))[None]
        jac = None if jac1 is None else (lambda X: np.atleast_2d(jac1(X[0]))[None])
    X = np.atleast_2d(x0).copy()
    active = np.arange(len(X))
    with np.errstate(all="ignore"):
        for k in range(max_iter + 1):
            if not active.size:
                break
            R = F(X[active])
            moving = ~(np.linalg.norm(R, axis=1) <= tol)  # keeps NaN rows for the step to fail
            active, R = active[moving], R[moving]
            if not active.size or k == max_iter:
                break
            step = _min_norm_step(fd_jacobian(F, X[active]) if jac is None else jac(X[active]), R)
            X[active] -= step  # a failed row turns NaN and leaves the loop
            active = active[~np.isnan(step[:, 0])]
    X[active] = np.nan
    if x0.ndim < 2 and np.isnan(X[0, 0]):
        if active.size:
            raise NoConvergenceError(
                f"no convergence after {max_iter} iterations, |F| = {np.linalg.norm(R):.3e}")
        if not np.isfinite(R).all():
            raise NonFiniteError("residual became non-finite during Newton solve")
        raise SingularJacobianError("Newton step from a non-finite or rank-deficient Jacobian")
    return X if x0.ndim > 1 else X[0]


def rk4_step(f, x, u, dt: float) -> np.ndarray:
    """Classical RK4 update for ``xdot = f(x, u)`` with ``u`` held constant.

    ``x`` is one state or an (N, n) stack, and ``u`` whatever ``f`` takes
    with it (one input or per-row inputs).  The update is returned as
    computed: a non-finite result is for the caller to detect, as the
    simulation loops do per row.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x, u), dtype=float)
    k2 = np.asarray(f(x + 0.5 * dt * k1, u), dtype=float)
    k3 = np.asarray(f(x + 0.5 * dt * k2, u), dtype=float)
    k4 = np.asarray(f(x + dt * k3, u), dtype=float)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
