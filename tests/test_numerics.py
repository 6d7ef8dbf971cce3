import numpy as np
import pytest

from eidlab import certify, gains, numerics
from eidlab.errors import (
    DimensionMismatchError,
    DomainError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    RhatNotPsdError,
    SingularJacobianError,
)
from eidlab.systems import StorageGenerator, SupplyRate, catalog_build


def test_require_finite_passes_and_raises():
    a = numerics.require_finite([1.0, 2.0])
    assert a.dtype == float
    with pytest.raises(NonFiniteError):
        numerics.require_finite([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        numerics.require_finite([np.inf])


def test_symmetrize_accepts_roundoff_asymmetry():
    A = np.array([[2.0, 1.0], [1.0 + 1e-15, 3.0]])
    S = numerics.symmetrize(A)
    assert np.allclose(S, S.T)


def test_psd_sqrt_rejects_negative_eigenvalue_by_value():
    with pytest.raises(RhatNotPsdError, match=r"-5\.000e-01"):
        numerics.psd_sqrt(np.diag([1.0, -0.5]))


def test_symmetrize_rejects_genuine_asymmetry():
    with pytest.raises(NonSymmetricError):
        numerics.symmetrize(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(NonSymmetricError):
        numerics.symmetrize(np.ones((2, 3)))


_I2, _W = np.eye(2), SupplyRate.l2_gain(2.0, 2, 2)
_PH = {"J": [[0.0, 1.0], [-1.0, 0.0]], "R": 0.5 * _I2, "G": [[1.0], [0.0]]}
_DTI = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
# each public entry of a symmetric matrix, as a call of that matrix: the
# matrix is checked there once, and later eigen-solves take it as it is
_ENTRY_POINTS = {
    "SupplyRate.Q": lambda M: SupplyRate(M, 0.5 * _I2, -_I2, warn_definite=False),
    "SupplyRate.R": lambda M: SupplyRate(-_I2, 0.5 * _I2, M, warn_definite=False),
    "StorageGenerator.quadratic": StorageGenerator.quadratic,
    "port_hamiltonian.R": lambda M: catalog_build("port_hamiltonian", {**_PH, "R": M}),
    "port_hamiltonian.P": lambda M: catalog_build("port_hamiltonian",
                                                  {**_PH, "hamiltonian": {"P": M}}),
    "ahu_saddle.K": lambda M: catalog_build("ahu_saddle", {"mu": 1.0, "n1": 2, "A": _I2,
                                                           "b": [0.0, 0.0], "K": M}),
    "ahu_gain.K": lambda M: gains.ahu_gain(_I2, _I2, M),
    "verify_eid_dt.P": lambda M: certify.verify_eid_dt(
        _DTI, _W, M, certify.sample_pairs(_DTI, (-np.ones(2), np.ones(2)), count=4, seed=0)),
    "verify_kyp_lti.P": lambda M: certify.verify_kyp_lti(-_I2, _I2, _I2, 0.0 * _I2, _W, M),
}


@pytest.mark.parametrize("bad, error", [
    ([[1.0, 0.5], [0.0, 1.0]], NonSymmetricError),
    ([[1.0, 0.0], [0.0, np.nan]], NonFiniteError),
], ids=["asymmetric", "nan"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_each_matrix_entry_point_checks_its_matrix(entry, bad, error):
    call = _ENTRY_POINTS[entry]
    call(np.eye(2))  # a valid matrix passes the entry
    with pytest.raises(error):
        call(np.array(bad))


def test_sym_eigen_matches_characteristic_polynomial():
    # 2x2 eigenvalues by the quadratic formula as an independent oracle
    A = np.array([[3.0, 1.0], [1.0, -2.0]])
    tr, det = np.trace(A), np.linalg.det(A)
    disc = np.sqrt(tr**2 - 4.0 * det)
    lo, hi = (tr - disc) / 2.0, (tr + disc) / 2.0
    eig = numerics.sym_eigen(A)
    # a plain ascending array
    assert isinstance(eig, np.ndarray) and eig.shape == (2,)
    assert eig[0] == pytest.approx(lo, abs=1e-12)
    assert eig[-1] == pytest.approx(hi, abs=1e-12)
    # each eigenvalue makes A - lambda I singular
    for lam in eig:
        assert abs(np.linalg.det(A - lam * np.eye(2))) < 1e-12



# ---------------------------------------------------------------------------
# the stack eigenvalue kernel


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stack_eigvalsh_matches_lapack(k, scale):
    rng = np.random.default_rng(k)
    A = scale * rng.normal(size=(2000, k, k))
    A = A + A.transpose(0, 2, 1)
    lam = numerics.stack_eigvalsh(A)
    assert lam.shape == (2000, k) and (np.diff(lam, axis=1) >= 0).all()
    bound = 4 * np.finfo(float).eps * (1 + np.abs(A).max(axis=(1, 2)))
    assert (np.abs(lam - np.linalg.eigvalsh(A)).max(axis=1) <= bound).all()


@pytest.mark.parametrize("s", [1e-7, 1e-8, 0.0])
def test_stack_eigvalsh_small_eigenvalue_is_exact(s):
    # the smaller root keeps relative accuracy: s² exactly, in either slot
    lam = numerics.stack_eigvalsh(np.array([np.diag([1.0, s * s]), np.diag([s * s, 1.0])]))
    assert np.array_equal(lam, [[s * s, 1.0], [s * s, 1.0]])


def test_stack_eigvalsh_zero_matrix_and_equal_diagonal_ties():
    A = np.array([np.zeros((2, 2)), 2.0 * np.eye(2), -3.0 * np.eye(2),
                  [[-0.0, 1.0], [1.0, -0.0]], [[0.0, -2.0], [-2.0, 0.0]],
                  [[1.0, 1e-9], [1e-9, 1.0]], [[-5.0, 3.0], [3.0, -5.0]]])
    lam = numerics.stack_eigvalsh(A)
    assert np.array_equal(lam[:5], [[0.0, 0.0], [2.0, 2.0], [-3.0, -3.0], [-1.0, 1.0],
                                    [-2.0, 2.0]])
    np.testing.assert_allclose(lam[5:], [[1.0 - 1e-9, 1.0 + 1e-9], [-8.0, -2.0]],
                               rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stack_eigvalsh_non_finite_matrices_have_no_finite_eigenvalue(k):
    # every placement of NaN, Inf and -Inf; eigvalsh alone returns [0, 0]
    # for [[NaN, 0], [0, 1]] and raises from order 3 on
    rng = np.random.default_rng(0)
    stack = [[[0.0, np.inf], [np.inf, 0.0]]] if k == 2 else []
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(k):
            for j in range(i, k):
                A = rng.normal(size=(k, k))
                A = A + A.T
                A[i, j] = A[j, i] = bad
                stack.append(A)
    stack.append([[np.nan, 0.0], [0.0, 1.0]] if k == 2 else np.full((k, k), np.nan))
    A = np.array(stack + [np.eye(k)])
    lam = numerics.stack_eigvalsh(A)
    assert not np.isfinite(lam[:-1]).any(axis=1).any()
    assert np.isnan(lam[np.isnan(A).any(axis=(1, 2))]).all()
    assert np.array_equal(lam[-1], np.ones(k))


def test_stacked_eigenvalues_go_through_the_kernel():
    # an AST scan of src/eidlab: eigvalsh is named only inside
    # numerics.stack_eigvalsh, so no stacked solve can bypass the kernel
    import ast
    from pathlib import Path

    found, kernel = [], set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "eidlab").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "numerics.py":
            kernel = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      and fn.name == "stack_eigvalsh" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            names = ([a.name.split(".")[-1] for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [getattr(node, "attr", getattr(node, "id", None))])
            if "eigvalsh" in names and id(node) not in kernel:
                found.append(f"{path.name}:{node.lineno}")
    assert kernel and not found, f"eigvalsh outside numerics.stack_eigvalsh: {found}"


def test_single_eigen_solves_go_through_numerics():
    # an AST scan of src/eidlab: eigh is named only in numerics.py, so every
    # single-matrix solve elsewhere goes through sym_eigh / sym_eigen
    import ast
    from pathlib import Path

    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "eidlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name.split(".")[-1] for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [getattr(node, "attr", getattr(node, "id", None))])
            if "eigh" in names and path.name != "numerics.py":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"eigh outside numerics.py: {found}"


def test_every_raise_names_an_eidlab_error():
    # an AST scan of src/eidlab: each raise names a class defined in errors.py,
    # so every failed check is an EidLabError, and the three that reject an
    # argument are also ValueErrors for callers that catch those
    import ast
    from pathlib import Path

    from eidlab import errors

    src = Path(__file__).resolve().parents[1] / "src" / "eidlab"
    defined = {node.name for node in ast.walk(ast.parse((src / "errors.py").read_text()))
               if isinstance(node, ast.ClassDef)}
    assert all(issubclass(getattr(errors, name), errors.EidLabError) for name in defined)
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) not in defined:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise of a class not defined in errors.py: {found}"
    argument_errors = {errors.DimensionMismatchError, errors.NonSquareError, errors.DomainError}
    assert {getattr(errors, name) for name in defined
            if issubclass(getattr(errors, name), ValueError)} == argument_errors


def test_full_row_rank_threshold_is_relative():
    # matrix_rank's rule: the least singular value above max(rows, cols)·eps
    # times the largest, so scaling a matrix does not change its rank
    for scale in (1e-150, 1e-11, 1.0, 1e150):
        assert numerics.full_row_rank(scale * np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.5]]))
        assert not numerics.full_row_rank(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert numerics.full_row_rank(scale * np.diag([1.0, 3.0 * _EPS]))
        assert not numerics.full_row_rank(scale * np.diag([1.0, _EPS]))
    assert not numerics.full_row_rank(np.ones((3, 2)))  # more rows than columns
    assert not numerics.full_row_rank(np.zeros((1, 2)))

# ---------------------------------------------------------------------------
# the single-matrix kernel: closed form at orders 1-2, eigh from order 3


_EPS = np.finfo(float).eps
_SCALES = [1e-150, 1e-50, 1e-8, 1.0, 1e8, 1e50, 1e150]


def _small_matrices(k, seed, count=400):
    """Symmetric k x k matrices: indefinite, PSD, near rank 1 and diagonal."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        B = rng.normal(size=(k, k))
        v = rng.normal(size=k)
        yield (B + B.T, B @ B.T, np.outer(v, v) + 1e-9 * B @ B.T, np.diag(v))[i % 4]


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("k", [1, 2])
def test_sym_eigh_matches_lapack(k, scale):
    # eigenvalues, orthonormality and the reconstruction within a few ulps of |A|
    for A in _small_matrices(k, seed=k):
        A = scale * A
        lam, V = numerics.sym_eigh(A)
        ref = np.linalg.eigh(A).eigenvalues
        norm = np.linalg.norm(A)
        assert lam.shape == (k,) and V.shape == (k, k) and lam[0] <= lam[-1]
        assert np.abs(lam - ref).max() <= 4 * _EPS * norm
        assert np.abs(V.T @ V - np.eye(k)).max() <= 4 * _EPS
        assert np.abs((V * lam) @ V.T - A).max() <= 4 * _EPS * norm


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("k", [1, 2])
def test_psd_sqrt_pinv_matches_lapack(k, scale):
    # the root of a PSD matrix to 1e-13 relative where eigh's least eigenvalue
    # is not rounding noise (on a near rank-1 matrix its root is ~1e-8 |W|
    # off), and the pseudo-inverse where it is well conditioned; W² = A holds
    # within a few ulps of |A| everywhere
    for A in _small_matrices(k, seed=10 + k):
        A = scale * (A @ A.T)
        W, W_pinv = numerics.psd_sqrt_pinv(A, np.inf)
        lam, V = np.linalg.eigh(A)
        root = np.sqrt(np.clip(lam, 0.0, None))
        assert np.array_equal(W, W.T) and np.array_equal(W_pinv, W_pinv.T)
        assert np.abs(W @ W - A).max() <= 8 * _EPS * np.linalg.norm(A)
        if lam[0] >= 1e-4 * lam[-1]:
            assert np.abs(W - (V * root) @ V.T).max() <= 1e-13 * root[-1]
        if lam[0] >= 1e-2 * lam[-1]:
            assert np.abs(W_pinv - (V / root) @ V.T).max() <= 1e-13 / root[0]


def test_small_kernel_exact_cases():
    eigh, sqrt_pinv = numerics.sym_eigh, lambda A: numerics.psd_sqrt_pinv(A, 1e-10)
    for k in (1, 2):
        lam, V = eigh(np.zeros((k, k)))
        assert np.array_equal(lam, np.zeros(k)) and np.array_equal(V.T @ V, np.eye(k))
        for M in sqrt_pinv(np.zeros((k, k))):
            assert np.array_equal(M, np.zeros((k, k)))
        # a tie on the diagonal, and an eigenvalue in [-tol, 0] clipped to 0
        assert np.array_equal(eigh(-3.0 * np.eye(k))[0], [-3.0] * k)
        W, W_pinv = sqrt_pinv(4.0 * np.eye(k))
        assert np.array_equal(W, 2.0 * np.eye(k)) and np.array_equal(W_pinv, 0.5 * np.eye(k))
        W, W_pinv = sqrt_pinv(np.diag([-1e-12, 4.0][:k]))
        assert np.array_equal(W, np.diag([0.0, 2.0][:k]))
        assert np.array_equal(W_pinv, np.diag([0.0, 0.5][:k]))
        # beyond tol: the value in the message, as on the eigh path
        with pytest.raises(RhatNotPsdError, match=r"-5\.000e-01"):
            sqrt_pinv(np.diag([-0.5, 4.0][:k]))
    # the smaller eigenvalue keeps relative accuracy, in either slot
    for d in ([1.0, 1e-16], [1e-16, 1.0]):
        assert np.array_equal(eigh(np.diag(d))[0], [1e-16, 1.0])
    # distinct diagonal entries in either order
    for d in ([1.0, 4.0], [4.0, 1.0]):
        W, W_pinv = sqrt_pinv(np.diag(d))
        assert np.array_equal(W, np.diag(np.sqrt(d)))
        assert np.array_equal(W_pinv, np.diag(1 / np.sqrt(d)))
    # rank 1: the zero eigenvalue exactly, and its root dropped from both
    A = np.array([[3.0, 3.0], [3.0, 3.0]])
    assert np.array_equal(eigh(A)[0], [0.0, 6.0])
    for M in sqrt_pinv(A):
        assert np.array_equal(M @ [1.0, -1.0], [0.0, 0.0])
    W, W_pinv = sqrt_pinv(A)
    np.testing.assert_allclose(W, A / np.sqrt(6.0), rtol=2 * _EPS)
    np.testing.assert_allclose(W_pinv, A / 6.0 ** 1.5, rtol=2 * _EPS)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_small_kernel_raises_at_the_eigh_path_thresholds(scale):
    # the same errors as symmetrize and the order-3 path, at the same
    # asymmetry and eigenvalue thresholds, on either side of each
    k3 = lambda A: np.block([[A, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]])
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            A = scale * np.eye(2)
            A[i, j] = bad
            for call in (numerics.sym_eigh, numerics.sym_eigen,
                         lambda M: numerics.require_psd(M, "P"),
                         lambda M: numerics.psd_sqrt_pinv(M, np.inf)):
                with pytest.raises(NonFiniteError):
                    call(A)
        with pytest.raises(NonFiniteError):
            numerics.sym_eigh(np.array([[bad]]))
    base = scale * np.array([[2.0, 1.0], [1.0, 3.0]])
    threshold = numerics.SYMMETRY_RTOL * max(np.linalg.norm(base), 1.0) / np.sqrt(2.0)
    for factor in (0.5, 0.9, 1.1, 2.0):
        A = base + [[0.0, 0.0], [factor * threshold, 0.0]]
        raised = []
        for call in (numerics.symmetrize, numerics.sym_eigh, lambda M: numerics.sym_eigh(k3(M))):
            try:
                call(A)
                raised.append(False)
            except NonSymmetricError:
                raised.append(True)
        assert raised == [factor > 1.0] * 3, factor
    tol = 1e-3 * scale
    for factor in (0.9, 1.1):
        A = scale * np.diag([-factor * 1e-3, 1.0])
        for M in (A, k3(A)):
            if factor > 1.0:
                with pytest.raises(RhatNotPsdError):
                    numerics.psd_sqrt_pinv(M, tol)
            else:
                assert numerics.psd_sqrt_pinv(M, tol)[0][0, 0] == 0.0


def _form_oracle(A, tol=1e-8, trials=2000, seed=0):
    """Sign classification of x'Ax by dense sampling plus eigen-direction
    probes; independent of psd_check's implementation."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(trials, A.shape[0]))
    vecs = np.vstack([vecs, np.linalg.eigh(0.5 * (A + A.T))[1].T])
    vals = np.einsum("ij,jk,ik->i", vecs, A, vecs) / np.einsum("ij,ij->i", vecs, vecs)
    has_pos = np.any(vals > tol)
    has_neg = np.any(vals < -tol)
    if has_pos and has_neg:
        return "Indefinite"
    if has_pos:
        return "PD" if np.all(vals > tol) else "PSD"
    if has_neg:
        return "ND" if np.all(vals < -tol) else "NSD"
    return "PSD"  # matches psd_check's convention for the near-zero matrix


def test_psd_check_constructed_cases():
    assert numerics.psd_check(np.eye(3)) == "PD"
    assert numerics.psd_check(-np.eye(3)) == "ND"
    assert numerics.psd_check(np.diag([1.0, 0.0])) == "PSD"
    assert numerics.psd_check(np.diag([-1.0, 0.0])) == "NSD"
    assert numerics.psd_check(np.diag([1.0, -1.0])) == "Indefinite"
    assert numerics.psd_check(np.zeros((2, 2))) == "PSD"
    # eigenvalues within ±tol of zero are both PSD and NSD, reported as PSD
    assert numerics.psd_check(np.diag([1e-9, -1e-9])) == "PSD"


def test_psd_check_against_quadratic_form_oracle():
    rng = np.random.default_rng(42)
    for k in range(200):
        B = rng.normal(size=(3, 3))
        kind = k % 4
        if kind == 0:
            A = B @ B.T + 0.1 * np.eye(3)
        elif kind == 1:
            A = -(B @ B.T) - 0.1 * np.eye(3)
        elif kind == 2:
            A = 0.5 * (B + B.T)
        else:
            v = rng.normal(size=3)
            A = np.outer(v, v)  # rank-1 PSD
        verdict = numerics.psd_check(A).value
        oracle = _form_oracle(A, seed=k)
        assert verdict == oracle, f"case {k}: {verdict} vs oracle {oracle}"


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(4, 4))
    A = B @ B.T
    S = numerics.psd_sqrt(A)
    assert np.allclose(S @ S, A, atol=1e-10)
    assert np.allclose(S, S.T)


def test_fd_jacobian_against_analytic():
    F = lambda x: np.array([x[0] ** 2 + x[1], np.sin(x[0]) * x[1]])
    x = np.array([0.7, -1.2])
    J_true = np.array([[2 * x[0], 1.0], [np.cos(x[0]) * x[1], np.sin(x[0])]])
    assert np.allclose(numerics.fd_jacobian(F, x), J_true, atol=1e-7)
    g = numerics.fd_gradient(lambda z: z[0] ** 3 + z[1] ** 2, x)
    assert np.allclose(g, [3 * x[0] ** 2, 2 * x[1]], atol=1e-6)


def _bisection(f, lo, hi, tol=1e-12):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol or hi - lo < tol:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_newton_against_bisection_oracle():
    f = lambda x: np.cos(x[0]) - x[0]
    root = numerics.newton_root(f, np.array([0.5]))
    oracle = _bisection(lambda t: np.cos(t) - t, 0.0, 1.0)
    assert abs(root[0] - oracle) < 1e-9


def test_newton_multidim_and_supplied_jacobian():
    F = lambda x: np.array([x[0] ** 2 - 2.0, x[0] * x[1] - 1.0])
    J = lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]]])
    root = numerics.newton_root(F, [1.0, 1.0], jac=J)
    assert np.allclose(root, [np.sqrt(2.0), 1.0 / np.sqrt(2.0)], atol=1e-9)


def test_newton_singular_jacobian_raises():
    with pytest.raises(SingularJacobianError):
        numerics.newton_root(lambda x: np.array([x[0] ** 2]), [10.0], jac=lambda x: np.array([[0.0]]))


def test_newton_no_convergence_raises():
    with pytest.raises(NoConvergenceError):
        # Newton on the cube root diverges (x <- -2x), never reaching tol
        numerics.newton_root(lambda x: np.cbrt(x), [1.0], max_iter=5)


def _stack_residual(X):
    # x0² + exp(40 x1) - 1: overflows at x1 = 19, has the rank-0 Jacobian
    # (0, 0) at (0, -30), and needs about 200 steps from x1 = 5
    return (X[..., 0] ** 2 + np.exp(40.0 * X[..., 1]) - 1.0)[..., None]


def test_newton_stack_rows_equal_one_state_solves():
    circle = lambda X: np.stack([X[..., 0] ** 2 + X[..., 1] ** 2 - 1.0,
                                 X[..., 0] * X[..., 1] - 0.25], axis=-1)
    for F in (circle, _stack_residual):
        X0 = np.random.default_rng(0).uniform(0.2, 1.5, size=(12, 2)) * [1.0, 0.05]
        X = numerics.newton_root(F, X0)
        assert not np.isnan(X).any()
        for x, x0 in zip(X, X0):
            np.testing.assert_allclose(x, numerics.newton_root(F, x0), rtol=0, atol=1e-12)
            assert np.linalg.norm(F(x)) <= 1e-10


def test_newton_failed_rows_are_nan_in_a_stack():
    X0 = np.array([[0.5, 0.0], [0.0, 19.0], [0.0, -30.0], [0.0, 5.0], [0.8, 0.01]])
    X = numerics.newton_root(_stack_residual, X0)
    assert np.isnan(X[1:4]).all()
    for i in (0, 4):
        assert np.abs(_stack_residual(X[i])).max() <= 1e-10
        np.testing.assert_allclose(X[i], numerics.newton_root(_stack_residual, X0[i]),
                                   rtol=0, atol=1e-12)
    for x0, error in zip(X0[1:4], (NonFiniteError, SingularJacobianError, NoConvergenceError)):
        with pytest.raises(error):
            numerics.newton_root(_stack_residual, x0)


def test_gram_step_rank_rule_threshold():
    # rank-deficient when the Gram's least eigenvalue s² is at most
    # 2 eps times its largest, 1: s above about 2.1e-8 keeps full rank
    r = np.array([[1.0, 1.0]])
    for s, full in ((1e-7, True), (1e-8, False), (0.0, False)):
        step = numerics._min_norm_step(np.diag([1.0, s])[None], r)
        if full:
            np.testing.assert_allclose(step, [[1.0, 1.0 / s]], rtol=1e-8)
        else:
            assert np.isnan(step).all()
    wide = numerics._min_norm_step(np.array([[[3.0, 4.0]], [[0.0, 0.0]]]), np.ones((2, 1)))
    np.testing.assert_allclose(wide[0], [0.12, 0.16], rtol=1e-14)
    assert np.isnan(wide[1]).all()
    with pytest.raises(DimensionMismatchError):
        numerics._min_norm_step(np.ones((1, 2, 1)), np.ones((1, 2)))


@pytest.mark.parametrize("c", [1e5, 1e6, 1e7])
def test_newton_converges_on_ill_conditioned_full_rank_jacobians(c):
    scale = np.array([1.0, 1.0 / c])
    b = np.tanh([0.3, -0.5]) * scale
    F = lambda x: np.tanh(x) * scale - b
    for jac in (None, lambda x: np.diag(scale / np.cosh(x) ** 2)):
        root = numerics.newton_root(F, np.zeros(2), jac=jac)
        np.testing.assert_allclose(root, [0.3, -0.5], rtol=0, atol=1e-9)


def test_rk4_exact_linear_decay():
    x = np.array([1.0])
    for _ in range(1000):
        x = numerics.rk4_step(lambda z, u: -z, x, None, 1e-3)
    assert abs(x[0] - np.exp(-1.0)) < 1e-10


def test_rk4_observed_order_at_least_3_8():
    # nonlinear scalar problem with known solution: x' = x^2, x(0)=1
    sol = lambda t: 1.0 / (1.0 - t)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        x = np.array([1.0])
        t = 0.0
        while t < 0.5 - 1e-12:
            x = numerics.rk4_step(lambda z, u: z**2, x, None, dt)
            t += dt
        errs.append(abs(x[0] - sol(0.5)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_rk4_rejects_nonpositive_dt():
    # dt = NaN used to return a NaN state
    for dt in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError, match="dt must be positive"):
            numerics.rk4_step(lambda z, u: z, np.array([1.0]), None, dt)
