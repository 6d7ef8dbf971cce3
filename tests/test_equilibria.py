import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidlab import equilibria
from eidlab.equilibria import (
    EquilibriumMap,
    RelationSamples,
    annihilator,
    check_relation_dissipativity,
    cocoercivity_check,
    maximality_conditions,
)
from eidlab import numerics
from eidlab.errors import (DimensionMismatchError, NonFiniteError, NonSquareError,
                           NotAssignableError, SingularJacobianError)
from eidlab.systems import CtSystem, SupplyRate, catalog_build


def test_annihilator_properties():
    rng = np.random.default_rng(0)
    for n, m in ((3, 1), (4, 2), (5, 3)):
        G = rng.normal(size=(n, m))
        Gp = annihilator(G)
        assert Gp.shape == (n - m, n)
        assert np.allclose(Gp @ G, 0.0, atol=1e-12)
        assert np.allclose(Gp @ Gp.T, np.eye(n - m), atol=1e-12)


def test_annihilator_fully_actuated_is_empty():
    assert annihilator(np.eye(3)).shape == (0, 3)


def test_ku_ky_gradient_flow_closed_form():
    # equilibrium input of the gradient flow solves g u = grad phi(x)
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.5, "j": 0.4, "n": 2})
    emap = EquilibriumMap(sys)
    assert emap.G_perp.shape[0] == 0
    xbar = np.array([0.3, -0.8])
    eq = emap.ku_ky(xbar)
    phi = sys.meta["phi"]
    assert np.allclose(eq.u, phi.grad(xbar) / 1.5, atol=1e-12)
    assert np.allclose(eq.y, 1.5 * xbar + 0.4 * eq.u, atol=1e-12)
    assert eq.residual < 1e-10


def test_ku_ky_discrete_time():
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    emap = EquilibriumMap(sys)
    xbar = np.array([1.2])
    eq = emap.ku_ky(xbar)
    # x = x - alpha(grad phi - u) at equilibrium means u = grad phi(x)
    assert eq.u[0] == pytest.approx(sys.meta["phi"].grad(xbar)[0])


def test_ku_ky_rejects_non_equilibrium_state():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0})
    emap = EquilibriumMap(sys)
    with pytest.raises(NotAssignableError):
        emap.ku_ky(np.array([0.3, 0.5]))  # omega != 0 is not assignable


def test_solve_equilibrium_matches_ku_ky():
    sys = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    emap = EquilibriumMap(sys)
    ubar = np.array([0.7])
    xbar = emap.solve_equilibrium(ubar, np.zeros(2))
    assert emap.equilibrium_residual(xbar, ubar) < 1e-9
    eq = emap.ku_ky(xbar)
    assert np.allclose(eq.u, ubar, atol=1e-8)


def test_underactuated_discrete_time_equilibria():
    # x+ = Fx + Gu with m = 1 < n = 2: the forced equilibria are the line
    # (F - I)x + Gu = 0, so every DT path below runs a real projection
    F, G = np.array([[0.5, 0.2], [-0.1, 0.3]]), np.array([[1.0], [0.5]])
    sys = catalog_build("lti", {"F": F.tolist(), "G": G.tolist(), "discrete": True})
    emap = EquilibriumMap(sys)
    assert emap.G_perp.shape[0] != 0
    eq_res = lambda x, u: np.linalg.norm((F - np.eye(2)) @ x + G @ np.atleast_1d(u))
    x = emap.project(np.array([0.7, -0.4]))
    eq = emap.ku_ky(x)
    assert eq_res(x, eq.u) <= 1e-10
    assert emap.equilibrium_residual(x, eq.u) <= 1e-10
    samples = emap.sample_io_relation((-np.ones(2), np.ones(2)), 30, seed=2)
    assert len(samples) == 30
    for x, u in zip(samples.x, samples.u):
        assert eq_res(x, u) <= 1e-10
        assert emap.equilibrium_residual(x, u) <= 1e-10
    xbar = emap.solve_equilibrium([0.3], np.zeros(2))
    np.testing.assert_allclose(xbar, np.linalg.solve(np.eye(2) - F, G[:, 0] * 0.3),
                               rtol=0, atol=1e-9)


def test_project_onto_smib_equilibrium_set():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    emap = EquilibriumMap(sys)
    x = emap.project(np.array([0.4, 0.9]))
    assert emap.assignability_residual(x) < 1e-10
    assert abs(x[1]) < 1e-10  # the assignable set is {omega = 0}


def test_sample_io_relation_deterministic_and_csv(tmp_path):
    sys = catalog_build("second_order", {"mu": 1.0})
    emap = EquilibriumMap(sys)
    region = (-np.ones(2), np.ones(2))
    s1 = emap.sample_io_relation(region, 10, seed=3)
    s2 = emap.sample_io_relation(region, 10, seed=3)
    assert len(s1) == len(s2) > 0
    assert np.allclose(s1.x, s2.x)
    path = tmp_path / "io.csv"
    s1.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x_1,x_2,u_1,y_1"


def test_relation_monotone_for_gradient_flow():
    sys = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.2, "n": 2})
    emap = EquilibriumMap(sys)
    samples = emap.sample_io_relation((-2 * np.ones(2), 2 * np.ones(2)), 25, seed=1)
    rep = check_relation_dissipativity(samples, SupplyRate.passivity(2))
    assert rep["monotone"]
    assert rep["min_pair_value"] >= -1e-9
    assert rep["n_pairs"] == len(samples) * (len(samples) - 1) // 2


def test_relation_violations_detected():
    # anti-monotone relation: u = -grad phi at equilibrium of xdot = grad phi + u
    sys = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.0, "n": 1})
    emap = EquilibriumMap(sys)
    samples = emap.sample_io_relation((-np.ones(1), np.ones(1)), 10, seed=0)
    w_flip = SupplyRate(np.zeros((1, 1)), -0.5 * np.eye(1), np.zeros((1, 1)),
                        warn_definite=False)
    rep = check_relation_dissipativity(samples, w_flip)
    assert not rep["monotone"] and len(rep["violations"]) > 0
    assert rep["argmin_pair"] is not None


def _double_loop(samples, w, tol=1e-9):
    """Reference: every pair (i, j), i < j, in row-major order, each row's
    values in one ``w.evaluate`` of the differences; the minimum goes to the
    first pair attaining it, the violations are those below
    -tol (1 + ‖M‖_F |z_i - z_j|²), and the non-finite values are counted."""
    U, Y = samples.u, samples.y
    best, argmin, violations, nonfinite = np.inf, None, [], 0
    for i in range(len(samples) - 1):
        vals = w.evaluate(U[i] - U[i + 1:], Y[i] - Y[i + 1:])
        dz = np.hstack([Y[i] - Y[i + 1:], U[i] - U[i + 1:]])
        floors = -tol * (1 + np.linalg.norm(w.block()) * np.sum(dz * dz, axis=1))
        nonfinite += int(np.sum(~np.isfinite(vals)))
        for j, val, floor in zip(range(i + 1, len(samples)), vals.tolist(), floors):
            if val < best:
                best, argmin = val, (i, j)
            if val < floor:
                violations.append((i, j, val))
    return best, argmin, violations, nonfinite


def _assert_matches_double_loop(samples, w, tol=1e-9):
    best, argmin, violations, nonfinite = _double_loop(samples, w, tol)
    rep = check_relation_dissipativity(samples, w, tol)
    assert rep["argmin_pair"] == argmin
    assert rep["nonfinite_pairs"] == nonfinite
    assert rep["monotone"] == (not violations and not nonfinite)
    assert [v[:2] for v in rep["violations"]] == [v[:2] for v in violations]
    np.testing.assert_allclose([v[2] for v in rep["violations"]], [v[2] for v in violations],
                               rtol=1e-12, atol=0.0)
    assert rep["min_pair_value"] == pytest.approx(best, rel=1e-12, abs=0.0)
    return rep


def _io_samples(Z, p):
    return RelationSamples(np.zeros((len(Z), 1)), Z[:, p:], Z[:, :p])


def test_relation_check_matches_double_loop():
    rng = np.random.default_rng(3)
    UY = rng.normal(size=(25, 2, 2))  # each sample's u, then its y
    samples = RelationSamples(np.zeros((25, 2)), UY[:, 0], UY[:, 1])
    Q = rng.normal(size=(2, 2))
    w = SupplyRate(Q + Q.T, rng.normal(size=(2, 2)), np.eye(2), warn_definite=False)
    best, argmin, violations = np.inf, None, []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            z = np.concatenate([samples.y[i] - samples.y[j], samples.u[i] - samples.u[j]])
            val = float(z @ w.block() @ z)
            if val < best:
                best, argmin = val, (i, j)
            if val < -1e-9:
                violations.append((i, j, val))
    rep = check_relation_dissipativity(samples, w)
    assert 0 < len(violations) < rep["n_pairs"]
    assert rep["argmin_pair"] == argmin
    assert rep["min_pair_value"] == pytest.approx(best, rel=0.0, abs=1e-12)
    assert [v[:2] for v in rep["violations"]] == [v[:2] for v in violations]
    assert np.allclose([v[2] for v in rep["violations"]], [v[2] for v in violations],
                       rtol=0.0, atol=1e-12)


@st.composite
def _relations(draw):
    p, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 60))
    scale = 10.0 ** draw(st.integers(-6, 4))
    offset = draw(st.sampled_from([0.0, 1.0, 1e4]))
    return p, m, n, scale, offset, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_relations())
def test_relation_screen_matches_double_loop(case):
    # random indefinite supplies on samples of scale 1e-6 to 1e4, some far
    # from the origin, where the Gram form cancels
    p, m, n, scale, offset, seed = case
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p + m, p + m))
    A = A + A.T
    w = SupplyRate(A[:p, :p], A[:p, p:], A[p:, p:], warn_definite=False)
    _assert_matches_double_loop(_io_samples(offset + scale * rng.normal(size=(n, p + m)), p), w)


def test_relation_screen_spans_several_row_blocks():
    rng = np.random.default_rng(5)
    n = 260
    assert n * (n - 1) // 2 > 3 * equilibria._SCREEN_BLOCK
    Z = rng.normal(size=(n, 4))
    for w in (SupplyRate.passivity(2), SupplyRate.output_strict(0.5, 2)):
        _assert_matches_double_loop(_io_samples(Z, 2), w)


def test_relation_screen_re_evaluates_cancelling_pairs():
    # samples 1e4 from the origin whose pair values Δy·Δu lie within a few
    # 1e-9 of -tol: the Gram terms are 1e8, so their rounding alone (~1e-8)
    # would move pairs across -tol and change the minimum
    rng = np.random.default_rng(11)
    Z = 1e4 + 3e-5 * rng.uniform(-1.0, 1.0, size=(40, 2))
    rep = _assert_matches_double_loop(_io_samples(Z, 1), SupplyRate.passivity(1))
    vals = np.array([v[2] for v in rep["violations"]])
    assert len(vals) and np.any(vals > -2e-9)


def test_relation_screen_bounds_products_that_underflow():
    # at 1e-161 every product is subnormal and off by up to half its
    # spacing; pairs near zero must still be sorted against tol = 0 exactly
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    A = A + A.T
    w = SupplyRate(A[:1, :1], A[:1, 1:], A[1:, 1:], warn_definite=False)
    _assert_matches_double_loop(_io_samples(1e-161 * rng.normal(size=(40, 3)), 1), w, tol=0.0)


def test_relation_screen_breaks_exact_ties_in_row_major_order():
    # y = 2u is monotone; sample i + 100 repeats sample i, so the pairs
    # (i, i + 100) have value exactly zero, in rows of different blocks, and
    # the first of them in row-major order is the minimum
    u = np.tile(np.random.default_rng(2).normal(size=100), 2)
    samples = _io_samples(np.column_stack([2.0 * u, u]), 1)
    rep = _assert_matches_double_loop(samples, SupplyRate.passivity(1))
    assert rep["argmin_pair"] == (0, 100) and rep["min_pair_value"] == 0.0
    assert rep["monotone"]


def test_relation_check_of_two_samples():
    samples = _io_samples(np.array([[1.0, 2.0], [3.0, 1.0]]), 1)
    rep = _assert_matches_double_loop(samples, SupplyRate.passivity(1))
    assert rep["argmin_pair"] == (0, 1) and rep["min_pair_value"] == -2.0
    assert rep["n_pairs"] == 1 and rep["violations"] == [(0, 1, -2.0)]


def test_relation_check_rejects_a_supply_of_other_dimensions():
    # (p, m) = (2, 1) samples against a (1, 2) supply: z has the right length
    # for the Gram screen, so only the shapes can catch it
    samples = _io_samples(np.arange(12.0).reshape(4, 3), 2)
    w = SupplyRate(np.zeros((1, 1)), 0.5 * np.ones((1, 2)), np.zeros((2, 2)), warn_definite=False)
    with pytest.raises(DimensionMismatchError):
        check_relation_dissipativity(samples, w)


def test_relation_minimum_passes_over_nan_pairs_only():
    # a NaN sample makes its pairs NaN, which neither violate nor win the
    # minimum but are counted; the other pairs of those rows still count.
    # A counted pair leaves the relation not monotone
    Z = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 3.0], [np.nan, 1.0]])
    rep = _assert_matches_double_loop(_io_samples(Z, 1), SupplyRate.passivity(1))
    assert rep["argmin_pair"] == (0, 1) and rep["min_pair_value"] == 0.5
    assert not rep["monotone"] and not rep["violations"] and rep["nonfinite_pairs"] == 3
    coco = cocoercivity_check(_io_samples(Z, 1), 0.0)
    assert not coco["holds"] and coco["violations"] == 0 and coco["nonfinite_pairs"] == 3


def test_relation_check_over_a_nan_output_is_not_monotone():
    # one NaN output among 30 samples read monotone with 29 nonfinite_pairs
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    samples = EquilibriumMap(sys).sample_io_relation((-np.ones(1), np.ones(1)), 30, seed=0)
    assert check_relation_dissipativity(samples, SupplyRate.passivity(1))["monotone"]
    samples.y[3] = np.nan
    rep = check_relation_dissipativity(samples, SupplyRate.passivity(1))
    assert not rep["monotone"] and not rep["violations"]
    assert rep["nonfinite_pairs"] == len(samples) - 1
    assert np.isfinite(rep["min_pair_value"]) and 3 not in rep["argmin_pair"]
    coco = cocoercivity_check(samples, 0.0)
    assert not coco["holds"] and coco["nonfinite_pairs"] == len(samples) - 1


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e4])
def test_lossless_relation_reads_monotone_at_every_box_scale(scale):
    # y = x, u = -F x: the supply (sym(F), I/2, 0) is exactly zero on every
    # pair, so its values are rounding only; judged against an absolute tol
    # they read 2 violations at box scale 1e3 and 373 at 1e4.  A supply
    # 1e-6 |Δy|² stricter fails at every scale
    F = np.array([[-1.0, 0.3], [0.0, -2.0]])
    lti = catalog_build("lti", {"F": F.tolist(), "G": np.eye(2).tolist()})
    samples = EquilibriumMap(lti).sample_io_relation((-scale * np.ones(2), scale * np.ones(2)),
                                                     60, seed=0)
    Q = 0.5 * (F + F.T)
    lossless = SupplyRate(Q, 0.5 * np.eye(2), np.zeros((2, 2)), warn_definite=False)
    stricter = SupplyRate(Q - 1e-6 * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2)),
                          warn_definite=False)
    rep = _assert_matches_double_loop(samples, lossless)
    assert rep["monotone"] and not rep["violations"]
    assert not check_relation_dissipativity(samples, stricter)["monotone"]
    # the scalar relation u = 3y is cocoercive with rho = 3 exactly
    sc = catalog_build("lti", {"F": [[-3.0]], "G": [[1.0]]})
    samples = EquilibriumMap(sc).sample_io_relation((-scale * np.ones(1), scale * np.ones(1)),
                                                    60, seed=0)
    assert cocoercivity_check(samples, 3.0)["holds"]
    assert not cocoercivity_check(samples, 3.0001)["holds"]


def test_cocoercivity_check():
    sys = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 1})
    emap = EquilibriumMap(sys)
    samples = emap.sample_io_relation((-np.ones(1), np.ones(1)), 15, seed=2)
    assert cocoercivity_check(samples, 0.0)["holds"]
    assert not cocoercivity_check(samples, 100.0)["holds"]
    with pytest.raises(ValueError):
        cocoercivity_check(RelationSamples(samples.x[:1], samples.u[:1], samples.y[:1]), 0.0)


def test_maximality_conditions_reads_sampled_cocoercivity():
    # at equilibrium u = 2x and y = x + 0.9 u = 2.8x, so the relation is
    # cocoercive exactly for rho <= 5.6 / 2.8² ≈ 0.71
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    samples = EquilibriumMap(sys).sample_io_relation((-np.ones(1), np.ones(1)), 40, seed=0)
    assert maximality_conditions(sys, samples, rho=0.0)["cocoercive_sampled"]
    assert not maximality_conditions(sys, samples=samples, rho=100.0)["cocoercive_sampled"]


def test_maximality_conditions_dt_integrator():
    sys = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    rep = maximality_conditions(sys)
    assert rep["f_zero_or_identity"]
    # f - id = 0 is singular everywhere, so the Jacobian hint must be False
    assert not rep["f_homeomorphism_hint"]


def test_maximality_requires_square():
    sys = catalog_build("lti", {"F": [[-1.0, 0.0], [0.0, -1.0]],
                                "G": [[1.0], [0.0]]})  # m=1, p=2
    with pytest.raises(NonSquareError, match="square systems"):
        maximality_conditions(sys)


# ---------------------------------------------------------------------------
# batched projection


def _reference_sample(emap, region, count, seed, tol=1e-11, max_iter=60):
    """Per-candidate Gauss-Newton with one lstsq per step, as a loop."""
    lo, hi = (np.asarray(b, dtype=float) for b in region)
    rng = np.random.default_rng(seed)
    xs, failures = [], 0
    for _ in range(count):
        x = rng.uniform(lo, hi, size=emap.system.n)
        for _ in range(max_iter):
            r = emap._constraint(x)
            if np.linalg.norm(r) <= tol:
                xs.append(x)
                break
            step, *_ = np.linalg.lstsq(numerics.fd_jacobian(emap._constraint, x), r, rcond=None)
            x = x - step
        else:
            failures += 1
    return np.array(xs), failures


_PH = {
    "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "R": np.diag([0.5, 0.2, 0.3, 0.1]).tolist(),
    "G": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "hamiltonian": {"P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(), "c": [0.3, 0.0, 0.2, 0.0]},
}


@pytest.mark.parametrize("family,params,n", [
    ("port_hamiltonian", _PH, 4),
    ("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2}, 2),
    ("second_order", {"mu": 1.0, "c": 0.5}, 2),
    ("ahu_saddle", {"mu": [1.0] * 4, "c": [0.5] * 4, "A": [[1, 0, 1, 0], [0, 1, 0, 1]],
                    "b": [1.0, -0.5]}, 6),
])
def test_batched_projection_matches_per_candidate_reference(family, params, n):
    emap = EquilibriumMap(catalog_build(family, params))
    region = (-np.ones(n), np.ones(n))
    for seed in range(3):
        samples = emap.sample_io_relation(region, 60, seed=seed)
        xs, failures = _reference_sample(emap, region, 60, seed)
        assert (len(samples), samples.projection_failures) == (len(xs), failures)
        X = samples.x
        # the reference steps with a finite-difference Jacobian and the library
        # with the analytic one, whose projections differ by up to ~3e-10, so
        # the two agree to 1e-9, not 1e-12
        np.testing.assert_allclose(X, xs, rtol=0, atol=1e-9)
        for x, u, y in zip(samples.x[:5], samples.u[:5], samples.y[:5]):
            ref = emap.ku_ky(x)
            np.testing.assert_allclose(np.concatenate([u, y]), np.concatenate([ref.u, ref.y]),
                                       rtol=0, atol=1e-12)


def _exploding_system():
    # the constraint exp(40 x2) - 1 overflows for x2 above ~17.7 and needs
    # more than 60 Gauss-Newton steps from x2 above ~1.5
    return CtSystem(lambda x: np.array([0.0 * x[0], np.exp(40.0 * x[1]) - 1.0]),
                    lambda x: x[:1], [[1.0], [0.0]])


def test_non_finite_candidates_are_counted_not_raised(capfd):
    emap = EquilibriumMap(_exploding_system())
    region = (np.array([-1.0, -1.0]), np.array([1.0, 20.0]))
    samples = emap.sample_io_relation(region, 40, seed=0)
    assert samples.projection_failures > 0 and len(samples) > 0
    assert len(samples) + samples.projection_failures == 40
    for x in samples.x:
        assert emap.assignability_residual(x) <= 1e-11
    with pytest.raises(NonFiniteError):
        emap.project(np.array([0.0, 19.0]))
    assert capfd.readouterr().err == ""


def test_rank_deficient_jacobian_fails_the_row():
    # x1² + 1 has no root, and its Jacobian (2 x1, 0) vanishes at x1 = 0
    emap = EquilibriumMap(CtSystem(lambda x: np.array([0.0 * x[0], x[0] ** 2 + 1.0]),
                                   lambda x: x[:1], [[1.0], [0.0]]))
    X = emap.project(np.array([[0.0, 0.3], [0.5, 0.3]]))
    assert np.isnan(X).all()
    with pytest.raises(SingularJacobianError):
        emap.project(np.array([0.0, 0.3]))


def test_states_of_another_width_are_errors():
    emap = EquilibriumMap(catalog_build("second_order", {"mu": 1.0}))
    for call in (lambda: emap.solve_equilibrium([0.5], np.zeros(3)),
                 lambda: emap.project(np.zeros(3)), lambda: emap.project(np.zeros((4, 3))),
                 lambda: emap.ku_ky(np.zeros(3))):
        with pytest.raises(DimensionMismatchError):
            call()


def test_projection_f_calls_do_not_grow_with_candidates():
    seen = []
    for analytic in (False, True):
        for count in (10, 400):
            sys = catalog_build("port_hamiltonian", _PH)
            if not analytic:  # the same drift, with no f_jac to read
                sys = CtSystem(sys.f, sys.h, sys.G)
            f, calls = sys.f, []
            sys.f = lambda x, f=f, calls=calls: calls.append(len(x)) or f(x)
            EquilibriumMap(sys).sample_io_relation((-np.ones(4), np.ones(4)), count, seed=1)
            assert calls[0] == count  # every candidate in one stack
            seen.append(len(calls))
    # 4 Gauss-Newton steps of one residual call, plus 2n finite-difference
    # calls each without f_jac, the last residual check and the assignment,
    # whatever the candidate count
    assert seen == [38, 38, 6, 6]
