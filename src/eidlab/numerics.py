"""Small dense linear algebra, root finding and fixed-step integration.

Everything here operates on plain numpy arrays of modest size (the systems
in this package have at most a few dozen states).  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
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
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return a


def symmetrize(A, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Check A is symmetric to within ``rtol`` (relative) and return (A+Aᵀ)/2."""
    A = require_finite(A, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {A.shape}")
    scale = max(np.linalg.norm(A), 1.0)
    asym = np.linalg.norm(A - A.T)
    if asym > rtol * scale:
        raise NonSymmetricError(
            f"matrix asymmetry {asym:.3e} exceeds {rtol:.1e} * {scale:.3e}"
        )
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class EigenResult:
    """Spectral decomposition of a symmetric matrix.

    Eigenvalues are sorted ascending; ``eigenvectors[:, i]`` corresponds to
    ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


def sym_eigen(A, rtol: float = SYMMETRY_RTOL) -> EigenResult:
    """Full spectral decomposition of a symmetric matrix.

    Raises NonSymmetricError if the relative asymmetry of ``A`` exceeds
    ``rtol``.  Ordering is deterministic (ascending eigenvalues).
    """
    As = symmetrize(A, rtol)
    vals, vecs = np.linalg.eigh(As)
    return EigenResult(eigenvalues=vals, eigenvectors=vecs)


class Definiteness(str, Enum):
    PD = "PD"
    PSD = "PSD"
    INDEFINITE = "Indefinite"
    NSD = "NSD"
    ND = "ND"


def psd_check(A, tol: float = DEFAULT_PSD_TOL) -> Definiteness:
    """Classify a symmetric matrix by its eigenvalue range against ±tol.

    A matrix with all |eigenvalues| <= tol (e.g. the zero matrix) is both
    PSD and NSD; this function reports PSD for that case, and the
    predicates :func:`is_psd` / :func:`is_nsd` can be used when the
    one-sided question is all that matters.
    """
    eig = sym_eigen(A)
    lo, hi = eig.min, eig.max
    if lo > tol:
        return Definiteness.PD
    if hi < -tol:
        return Definiteness.ND
    if lo >= -tol:
        return Definiteness.PSD
    if hi <= tol:
        return Definiteness.NSD
    return Definiteness.INDEFINITE


def is_psd(A, tol: float = DEFAULT_PSD_TOL) -> bool:
    return sym_eigen(A).min >= -tol


def is_nsd(A, tol: float = DEFAULT_PSD_TOL) -> bool:
    return sym_eigen(A).max <= tol


def psd_sqrt(A, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Symmetric PSD square root, clipping eigenvalues in [-tol, 0] to zero.

    Raises RhatNotPsdError when ``A`` has an eigenvalue below -tol.
    """
    eig = sym_eigen(A)
    if eig.min < -tol:
        raise RhatNotPsdError(f"matrix has eigenvalue {eig.min:.3e} < 0")
    vals = np.clip(eig.eigenvalues, 0.0, None)
    V = eig.eigenvectors
    return V @ np.diag(np.sqrt(vals)) @ V.T


def fd_jacobian(F, x) -> np.ndarray:
    """Central-difference Jacobian of ``F`` at ``x``, or the (N, k, n) stack
    of Jacobians at each row of an (N, n) stack ``x`` for an ``F`` that maps
    stacks: 2n calls of ``F`` either way.

    Step per coordinate is h_i = max(1e-6, 1e-6 * |x_i|); every equilibrium
    solve in the package ultimately depends on this choice.
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


def newton_root(
    F,
    x0,
    tol: float = 1e-10,
    max_iter: int = 50,
    jac=None,
) -> np.ndarray:
    """Newton's method for ``F(x) = 0`` on small dense systems.

    Uses ``jac`` if supplied, otherwise central finite differences.  Raises
    SingularJacobianError when the Newton step cannot be computed and
    NoConvergenceError after ``max_iter`` iterations.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    for _ in range(max_iter):
        r = np.atleast_1d(np.asarray(F(x), dtype=float))
        if not np.all(np.isfinite(r)):
            raise NonFiniteError("residual became non-finite during Newton solve")
        if np.linalg.norm(r) <= tol:
            return x
        J = np.atleast_2d(jac(x) if jac is not None else fd_jacobian(F, x))
        try:
            if J.shape[0] == J.shape[1]:
                cond = np.linalg.cond(J)
                if not np.isfinite(cond) or cond > 1e14:
                    raise SingularJacobianError(
                        f"Jacobian condition number {cond:.2e}"
                    )
                step = np.linalg.solve(J, r)
            else:
                step, *_ = np.linalg.lstsq(J, r, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        x = x - step
    r = np.atleast_1d(F(x))
    if np.linalg.norm(r) <= tol:
        return x
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations, |F| = {np.linalg.norm(r):.3e}"
    )


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
