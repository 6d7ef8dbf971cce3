"""Small dense linear algebra, root finding and fixed-step integration.

Everything here operates on plain numpy arrays of modest size (the systems
in this package have at most a few dozen states).  All functions are pure.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    RhatNotPsdError,
    SingularJacobianError,
)

DEFAULT_PSD_TOL = 1e-8
SYMMETRY_RTOL = 1e-12
_SCALAR_SHAPES = ((1, 1), (2, 2))  # solved by sym_eigh without LAPACK


def require_finite(a, what: str = "array") -> np.ndarray:
    """Return ``a`` as a float array, raising NonFiniteError on NaN/Inf."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return a


def _require_symmetric(asym, scale) -> None:
    """NonSymmetricError if the asymmetry exceeds SYMMETRY_RTOL times the scale."""
    if asym > SYMMETRY_RTOL * scale:
        raise NonSymmetricError(
            f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}")


def symmetrize(A) -> np.ndarray:
    """Check A is symmetric to within SYMMETRY_RTOL (relative) and return
    (A+Aᵀ)/2."""
    A = require_finite(A, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {A.shape}")
    # Frobenius norms, as np.linalg.norm gives them, without its wrapper's cost
    _require_symmetric(np.sqrt(np.vdot(A - A.T, A - A.T)), max(np.sqrt(np.vdot(A, A)), 1.0))
    return 0.5 * (A + A.T)


def _scalar_eigh(A: np.ndarray) -> tuple:
    """Ascending eigenvalues, and the unit eigenvector (cs, sn) of the largest, as
    Python floats, of a matrix of order 1 or 2 after :func:`symmetrize`'s checks made on
    its entries; at order 2, DLAEV2's roots (as :func:`stack_eigvalsh`) and its vector."""
    entries = A.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if len(entries) == 1:
        return entries, 1.0, 0.0
    a, b, b2, c = entries
    _require_symmetric(math.hypot(b - b2, b2 - b), max(math.hypot(*entries), 1.0))
    b = 0.5 * (b + b2)
    sm, df = a + c, a - c
    rt = math.hypot(df, 2.0 * b)
    rt1 = 0.5 * (sm + (rt if sm >= 0 else -rt))  # the root of larger modulus
    big, small = (a, c) if abs(a) > abs(c) else (c, a)
    # the other with relative accuracy; rt1 is 0 only at the zero matrix
    rt2 = (big / rt1) * small - (b / rt1) * b if rt1 else 0.0
    # the larger's eigenvector (hi - c, b) ~ (b, hi - a) in its form free of
    # cancellation, 2 (hi - c) = df + rt or 2 (hi - a) = rt - df; (1, 0) at a tie
    x, y = (df + rt or 1.0, 2.0 * b) if df >= 0 else (2.0 * b, rt - df)
    n = math.hypot(x, y)
    return [min(rt1, rt2), max(rt1, rt2)], x / n, y / n


def sym_eigh(A) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvectors (the columns) of one
    symmetric matrix, with :func:`symmetrize`'s checks: in closed form on
    Python floats at orders 1-2 (:func:`_scalar_eigh`), where ``np.linalg.eigh``
    spends 7-8 µs in call overhead, and ``eigh`` from order 3 on."""
    A = np.asarray(A, dtype=float)
    if A.shape not in _SCALAR_SHAPES:
        return np.linalg.eigh(symmetrize(A))
    lam, cs, sn = _scalar_eigh(A)
    return np.array(lam), np.array([[-sn, cs], [cs, sn]] if len(lam) == 2 else [[cs]])


def sym_eigen(A) -> np.ndarray:
    """The ascending eigenvalues of :func:`sym_eigh`.  Stacks go to
    :func:`stack_eigvalsh`, and so does a Q_cl that a kappa search ranked."""
    return sym_eigh(A)[0]


def stack_eigvalsh(A) -> np.ndarray:
    """Ascending eigenvalues, as (K, k), of each matrix of a (K, k, k) symmetric
    stack: the entries at order 1, LAPACK's DLAEV2 formulas on the whole stack
    at order 2, where ``np.linalg.eigvalsh`` spends ~300 ns per matrix in call
    overhead, and ``eigvalsh`` from order 3 on.  A matrix with a NaN or Inf
    entry has no finite eigenvalue; ``eigvalsh`` may ignore a NaN, or raise."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 1:
        return A[..., 0].copy()
    if A.shape[-1] > 2:
        finite = np.isfinite(A).all(axis=(-2, -1))
        lam = np.linalg.eigvalsh(A if finite.all() else np.where(finite[..., None, None], A, 0.0))
        lam[~finite] = np.nan
        return lam
    a, b, c = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
    big = np.abs(a) > np.abs(c)
    with np.errstate(all="ignore"):  # rt1 is 0 only at the zero matrix, where sm = 0
        sm, rt = a + c, np.hypot(a - c, 2.0 * b)
        rt1 = 0.5 * (sm + np.where(sm < 0, -rt, rt))  # the root of larger modulus
        # the other as (acmx/rt1)·acmn - (b/rt1)·b, which keeps relative accuracy
        rt2 = np.where(sm == 0, -0.5 * rt,
                       (np.where(big, a, c) / rt1) * np.where(big, c, a) - (b / rt1) * b)
    return np.stack([np.minimum(rt1, rt2), np.maximum(rt1, rt2)], axis=-1)


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
    return psd_sqrt_pinv(A, tol)[0]


def _spectral(d, c, s) -> np.ndarray:
    """The matrix of order len(d) with eigenvalues d on :func:`_scalar_eigh`'s eigenvectors."""
    if len(d) == 1:
        return np.array([d])
    off = (d[1] - d[0]) * c * s
    return np.array([[d[0] * s * s + d[1] * c * c, off], [off, d[0] * c * c + d[1] * s * s]])


def psd_sqrt_pinv(A, tol: float) -> tuple:
    """:func:`psd_sqrt` of A and its pseudo-inverse, from one eigen-solve as in
    :func:`sym_eigh` (both formed from its Python floats at orders 1-2): roots at
    most eps·k·√λ_max are dropped, as ``lstsq(rcond=None)`` drops them."""
    A = np.asarray(A, dtype=float)
    if A.shape in _SCALAR_SHAPES:
        lam, cs, sn = _scalar_eigh(A)
        form = lambda d: _spectral(d, cs, sn)
    else:
        lam, V = np.linalg.eigh(symmetrize(A))
        form = lambda d: (V * d) @ V.T
    if lam[0] < -tol:
        raise RhatNotPsdError(f"matrix has eigenvalue {lam[0]:.3e} < 0")
    root = [math.sqrt(max(x, 0.0)) for x in lam]
    cut = math.ulp(1.0) * len(root) * root[-1]
    return form(root), form([1.0 / r if r > cut else 0.0 for r in root])


def require_psd(A, what: str) -> tuple:
    """``A`` symmetrised, after :func:`symmetrize`'s checks, and its least eigenvalue from
    :func:`sym_eigen` (no LAPACK at orders 1-2); RhatNotPsdError naming it ``what`` unless
    that is at least -1e-10.  Storage P and model R, K are checked here."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    least = float(sym_eigen(A)[0])
    if least < -1e-10:
        raise RhatNotPsdError(f"{what} must be positive semidefinite")
    return 0.5 * (A + A.T), least


def full_row_rank(A) -> bool:
    """Whether ``A`` has full row rank: its least singular value exceeds max(rows, cols)·eps
    times its largest (``np.linalg.matrix_rank``'s threshold).  Columns: pass the transpose."""
    sv = np.linalg.svd(A, compute_uv=False)
    return len(sv) == len(A) and bool(sv[-1] > max(A.shape) * np.finfo(float).eps * sv[0])


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
    if not dt > 0:  # NaN fails too
        raise DomainError("dt must be positive")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x, u), dtype=float)
    k2 = np.asarray(f(x + 0.5 * dt * k1, u), dtype=float)
    k3 = np.asarray(f(x + 0.5 * dt * k2, u), dtype=float)
    k4 = np.asarray(f(x + dt * k3, u), dtype=float)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
