import numpy as np
import pytest

from eidlab import (
    FeedbackLoop,
    SectorBounds,
    SeparableConvex,
    StorageGenerator,
    SupplyRate,
    catalog_build,
    circle_criterion,
    compose_closed_loop,
    compose_supply,
    kappa_search,
    loop_transform,
    sample_pairs,
    solve_monotone_inclusion,
    static_feedback,
    verify_eid_ct,
)
from eidlab.equilibria import EquilibriumMap
from eidlab.errors import (
    ConditionsNotMetError,
    DimensionMismatchError,
    IllPosedError,
    NonSquareError,
    NonzeroFeedthroughError,
)
from eidlab.numerics import newton_root
from eidlab.sim import simulate_ct


def _integrator():
    return catalog_build("lti", {"F": [[0.0]], "G": [[1.0]], "H": [[1.0]]})


# ---------------------------------------------------------------------------
# closed-loop assembly


def test_two_integrators_give_harmonic_loop():
    cl = compose_closed_loop(FeedbackLoop(_integrator(), _integrator()))
    x = np.array([0.7, -0.3])
    # x1' = v1 - x2, x2' = v2 + x1
    assert np.allclose(cl.f(x), [-x[1], x[0]])
    assert np.allclose(cl.h(x), x)
    v = np.array([0.2, 0.5])
    assert np.allclose(cl.rhs(x, v), [v[0] - x[1], v[1] + x[0]])


def test_zero_feedthrough_outputs_stack_exactly():
    s1 = catalog_build("second_order", {"mu": 1.0})
    s2 = _integrator()
    cl = compose_closed_loop(FeedbackLoop(s1, s2))
    x = np.array([0.4, -0.6, 1.1])
    assert np.allclose(cl.h(x), np.concatenate([s1.h(x[:2]), s2.h(x[2:])]))


def test_loop_with_pi_controller_matches_hand_assembly():
    ph = catalog_build("port_hamiltonian", {
        "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.3, 0.0], [0.0, 0.1]],
        "G": [[1.0], [0.0]],
    })
    kp, ki = 2.0, 0.5
    pi = catalog_build("lti", {"F": [[0.0]], "G": [[1.0]],
                               "H": [[ki]], "J": [[kp]]})
    cl = compose_closed_loop(FeedbackLoop(ph, pi))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=3)
        x1, x2 = x[:2], x[2:]
        y1 = ph.h(x1)
        y2 = ki * x2 + kp * y1  # controller feedthrough sees u2 = y1 at v=0
        expect = np.concatenate([ph.f(x1) - ph.G @ y2, x2 * 0 + y1])
        assert np.allclose(cl.f(x), expect, atol=1e-12)
        assert np.allclose(cl.h(x), np.concatenate([y1, y2]), atol=1e-12)


def test_loop_dimension_and_wellposedness_checks():
    s1 = _integrator()
    s2 = catalog_build("second_order", {"mu": 1.0})
    # m2 = 1 = p1 and m1 = 1 = p2, so this pairing is fine; break it with a
    # 2-input system instead
    wide = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.0, "n": 2})
    with pytest.raises(DimensionMismatchError):
        FeedbackLoop(s1, wide)
    # J1 J2 = -1 makes I + J1 J2 singular
    j1 = catalog_build("lti", {"F": [[0.0]], "G": [[1.0]], "H": [[1.0]],
                               "J": [[1.0]]})
    j2 = catalog_build("lti", {"F": [[0.0]], "G": [[1.0]], "H": [[1.0]],
                               "J": [[-1.0]]})
    with pytest.raises(IllPosedError):
        FeedbackLoop(j1, j2)
    dt = catalog_build("dt_integrator", {"alpha": 0.5})
    with pytest.raises(DimensionMismatchError):
        FeedbackLoop(s1, dt)


def test_static_feedback_requires_square_and_no_feedthrough():
    sys = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 1})
    with pytest.raises(NonzeroFeedthroughError):
        static_feedback(sys, np.tanh)


# ---------------------------------------------------------------------------
# supply composition


def test_passivity_composition_cancels():
    w = SupplyRate.passivity(1)
    comp = compose_supply(w, w, 1.0)
    assert np.allclose(comp.Q_cl, 0.0)
    assert comp.lambda_max_q == pytest.approx(0.0, abs=1e-15)


def test_osp_ifp_blocks():
    a, nu = 1.0, 1.0
    comp = compose_supply(SupplyRate.output_strict(a, 1),
                          SupplyRate.input_feedforward(nu, 1), 1.0)
    assert np.allclose(comp.Q_cl, [[-(a + nu), 0.0], [0.0, 0.0]])
    eig = np.linalg.eigvalsh(comp.Q_cl)
    assert np.allclose(sorted(eig), [-2.0, 0.0])


def test_composition_quadratic_form_identity():
    # the composed form must equal w1(u1,y1) + kappa w2(u2,y2) under the
    # interconnection substitution, for random data
    rng = np.random.default_rng(3)
    w1 = SupplyRate(rng.normal() * np.eye(1), rng.normal() * np.eye(1),
                    rng.normal() * np.eye(1), warn_definite=False)
    w2 = SupplyRate(rng.normal() * np.eye(1), rng.normal() * np.eye(1),
                    rng.normal() * np.eye(1), warn_definite=False)
    kappa = 0.7
    comp = compose_supply(w1, w2, kappa)
    w_cl = comp.as_supply()
    for _ in range(50):
        y1, y2, v1, v2 = rng.normal(size=4)
        u1, u2 = v1 - y2, v2 + y1
        direct = w1.evaluate([u1], [y1]) + kappa * w2.evaluate([u2], [y2])
        composed = w_cl.evaluate([v1, v2], [y1, y2])
        assert direct == pytest.approx(composed, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
def test_compose_supply_rejects_bad_kappa(kappa):
    # NaN and Inf raised a NonFiniteError about "matrix"
    w = SupplyRate.passivity(1)
    with pytest.raises(ValueError, match="kappa"):
        compose_supply(w, w, kappa)


def test_example6_composed_blocks():
    mu, L, alpha, lam = 1.0, 2.0, 0.4, 0.6
    w1 = SupplyRate(np.zeros((1, 1)), 0.5 * np.eye(1), (alpha / 2) * np.eye(1),
                    warn_definite=False)
    w2 = SupplyRate(-(lam / L) * np.eye(1), 0.5 * np.eye(1),
                    -(1 - lam) * mu * np.eye(1), warn_definite=False)
    comp = compose_supply(w1, w2, 1.0)
    expected = -np.array([[(1 - lam) * mu, 0.0], [0.0, lam / L - alpha / 2]])
    assert np.array_equal(comp.Q_cl, expected)


# ---------------------------------------------------------------------------
# kappa search


def test_kappa_search_pass_and_fail():
    w_osp = SupplyRate.output_strict(1.0, 1)
    res = kappa_search(w_osp, w_osp)
    assert res["passed"]
    assert res["lambda_max_q"] < -0.5
    w_p = SupplyRate.passivity(1)
    assert not kappa_search(w_p, w_p)["passed"]


def test_kappa_search_example6_step_size_threshold():
    mu = L = 1.0
    for alpha, expect in ((0.5, True), (3.0, False)):
        passed = False
        for lam in np.linspace(0.05, 0.95, 10):
            w1 = SupplyRate(np.zeros((1, 1)), 0.5 * np.eye(1),
                            (alpha / 2) * np.eye(1), warn_definite=False)
            w2 = SupplyRate(-(lam / L) * np.eye(1), 0.5 * np.eye(1),
                            -(1 - lam) * mu * np.eye(1), warn_definite=False)
            if kappa_search(w1, w2)["passed"]:
                passed = True
                break
        assert passed == expect


def test_kappa_search_verdict_monotone_in_tol():
    w_osp = SupplyRate.output_strict(1.0, 1)
    assert kappa_search(w_osp, w_osp, tol=1e-3)["passed"]
    assert kappa_search(w_osp, w_osp, tol=1e-12)["passed"]


def _random_supply_pairs():
    """60 random supply pairs (w1, w2) of width 1 or 2."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = int(rng.integers(1, 3))
        sym = lambda: (lambda A: A + A.T)(rng.normal(size=(m, m)))
        yield tuple(SupplyRate(sym(), rng.normal(size=(m, m)), sym(), warn_definite=False)
                    for _ in range(2))


def test_kappa_search_matches_dense_reference_grid():
    # lambda_max of Q_cl(kappa) from the compose formula on 20,001 log-spaced
    # kappas; the search may not end above the best of them (the bound is
    # relative because lambda reaches 1e3 here, where one rounding is ~1e-13)
    kappas = np.geomspace(1e-4, 1e4, 20_001)[:, None, None]
    for w1, w2 in _random_supply_pairs():
        q_cl = np.block([[w1.Q + kappas * w2.R, -w1.S + kappas * w2.S.T],
                         [-w1.S.T + kappas * w2.S, w1.R + kappas * w2.Q]])
        ref = np.linalg.eigvalsh(q_cl)[:, -1].min()
        res = kappa_search(w1, w2)
        assert res["lambda_max_q"] <= ref + 1e-12 * (1.0 + abs(ref))
        assert res["lambda_max_q"] == compose_supply(w1, w2, res["kappa"]).lambda_max_q


def test_kappa_search_reports_the_least_ranked_lambda(monkeypatch):
    # the verdict rests on the number the search minimised: the least
    # lambda_max of its last grid, bit for bit; it used to rank eigvalsh of
    # q1 + (kappa - 1) dq and report eigh of a rebuilt Q_cl
    from eidlab import numerics

    ranked, kernel = [], numerics.stack_eigvalsh

    def recording(A):
        lam = kernel(A)
        ranked.append(lam[:, -1])
        return lam

    monkeypatch.setattr(numerics, "stack_eigvalsh", recording)
    for w1, w2 in _random_supply_pairs():
        ranked.clear()
        res = kappa_search(w1, w2)
        assert [len(r) for r in ranked] == [60] * 11
        assert res["lambda_max_q"] == ranked[-1].min()
        assert res["lambda_max_q"] == compose_supply(w1, w2, res["kappa"]).lambda_max_q


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs, match", [
    ({"kappa_range": (0.0, 1.0)}, "kappa_range"),
    ({"kappa_range": (1.0, 1.0)}, "kappa_range"),
    ({"kappa_range": (np.nan, 1.0)}, "kappa_range"),
    ({"kappa_range": (1e-4, np.nan)}, "kappa_range"),
    ({"kappa_range": (1e-4, np.inf)}, "kappa_range"),
    ({"kappa_range": (-np.inf, 1.0)}, "kappa_range"),
    ({"grid": 0}, "grid"),
    ({"grid": 1}, "grid"),
    ({"grid": 2}, "grid"),
])
def test_kappa_search_input_errors_name_the_argument(kwargs, match):
    # grid 0 raised numpy's "argmin of an empty sequence"; grids 1 and 2
    # never narrowed and failed at kappa = 1e-4 where kappa = 1 passes; a
    # NaN or Inf end leaked a RuntimeWarning and a NonFiniteError
    w = SupplyRate.output_strict(1.0, 1)
    with pytest.raises(ValueError, match=match):
        kappa_search(w, w, **kwargs)
    assert kappa_search(w, w, grid=3)["passed"]


# ---------------------------------------------------------------------------
# loop transformation


def test_loop_transform_lower_bound_zero_keeps_drift():
    sys = catalog_build("second_order", {"mu": 1.0})
    t = loop_transform(sys, SectorBounds.scalar(0.0, 1.0))
    x = np.array([0.3, -0.4])
    assert np.allclose(t.f(x), sys.f(x))
    assert np.allclose(t.h(x), sys.h(x))
    assert np.allclose(t.J, np.eye(1))


def test_loop_transform_smib_drift_oracle():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0})
    alpha, beta = -0.2, 0.8
    t = loop_transform(sys, SectorBounds.scalar(alpha, beta))
    x = np.array([0.5, 0.3])
    # drift (omega, -sin(theta) - (D + alpha) omega)
    assert np.allclose(t.f(x), [x[1], -np.sin(x[0]) - (1.0 + alpha) * x[1]])
    assert t.h(x)[0] == pytest.approx((beta - alpha) * x[1])


def test_loop_transform_preserves_equilibrium_set():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    t = loop_transform(sys, SectorBounds.scalar(0.0, 1.0))
    e1, e2 = EquilibriumMap(sys), EquilibriumMap(t)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x0 = rng.uniform(-1, 1, size=2)
        p1, p2 = e1.project(x0), e2.project(x0)
        assert e2.assignability_residual(p1) < 1e-8
        assert e1.assignability_residual(p2) < 1e-8


def test_loop_transform_input_requirements():
    sys = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 1})
    with pytest.raises(NonzeroFeedthroughError):
        loop_transform(sys, SectorBounds.scalar(0.0, 1.0))
    with pytest.raises(ValueError):
        SectorBounds.scalar(1.0, 1.0)  # K = 0 never reaches loop_transform


# ---------------------------------------------------------------------------
# circle criterion


def test_circle_scalar_linear_oracle():
    # xdot = -x + u, y = x, sector [0, 1]: the transformed conditions close
    # iff eps <= 1/2 (scalar algebra), so the certified value is 1/2 up to
    # the 2⁻³⁰ resolution of the margin
    sys = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]]})
    gen = StorageGenerator.quadratic(np.eye(1))
    pairs = sample_pairs(sys, (-np.ones(1), np.ones(1)), count=200, seed=5)
    res = circle_criterion(sys, SectorBounds.scalar(0.0, 1.0), gen, pairs)
    assert res["passed"]
    assert 0.5 - 2**-30 <= res["certified_eps"] <= 0.5
    assert 0 <= res["binding_pair"] < len(pairs) and "scan" not in res


def test_circle_margin_agrees_with_verification():
    # the certified eps passes verify_eid_ct on the transformed system and
    # eps + 1e-3 fails, on the SMIB pairs of acceptance 6
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    pairs = sample_pairs(sys, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), count=400, seed=3)
    res = circle_criterion(sys, SectorBounds.scalar(0.0, 1.0), sys.storage, pairs)
    eps = res["certified_eps"]
    assert res["passed"] and 0.3 <= eps <= 0.5
    verify = lambda e: verify_eid_ct(res["transformed"], SupplyRate.output_strict(e, 1),
                                     sys.storage, pairs).passed
    assert verify(eps) and not verify(eps + 1e-3)
    bad = circle_criterion(sys, SectorBounds.scalar(-1.5, 1.0), sys.storage, pairs)
    assert bad["certified_eps"] is None and not bad["passed"]
    assert 0 <= bad["binding_pair"] < len(pairs)


def test_circle_unstable_sector_fails():
    sys = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]]})
    gen = StorageGenerator.quadratic(np.eye(1))
    pairs = sample_pairs(sys, (-np.ones(1), np.ones(1)), count=100, seed=5)
    # lower bound -2 lets the sector destabilize xdot = -x - psi(x)
    res = circle_criterion(sys, SectorBounds.scalar(-2.0, 1.0), gen, pairs)
    assert not res["passed"]


def test_circle_over_a_nan_pair_certifies_nothing():
    # a NaN pair read as eps = 0.0: a margin over it is None, bound by it
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    pairs = sample_pairs(sys, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), count=100, seed=3)
    pairs[7, 1] = np.nan
    res = circle_criterion(sys, SectorBounds.scalar(0.0, 1.0), sys.storage, pairs)
    assert res["certified_eps"] is None and not res["passed"] and res["verdict"] == "fail"
    assert res["binding_pair"] == 7


# ---------------------------------------------------------------------------
# static closed loops


def test_static_feedback_harmonic_energy():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    cl = static_feedback(sys, np.tanh)
    x = np.array([0.2, 0.4])
    assert np.allclose(cl.f(x), sys.f(x) - sys.G @ np.tanh(sys.h(x)))


# ---------------------------------------------------------------------------
# monotone inclusion solver


def test_inclusion_linear_oracle():
    w_osp = SupplyRate.output_strict(1.0, 1)
    w_p = SupplyRate.passivity(1)
    y1, y2 = solve_monotone_inclusion(lambda y: y, lambda u: u,
                                      np.array([1.0]), np.array([0.0]),
                                      w_osp, w_p)
    assert y1[0] == pytest.approx(0.5, abs=1e-8)
    assert y2[0] == pytest.approx(0.5, abs=1e-8)


def test_inclusion_against_newton_oracle():
    phi = SeparableConvex([1.0, 1.0], [0.5, 0.5])
    w1 = SupplyRate.output_strict(1.0, 2)
    w2 = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), -phi.mu * np.eye(2),
                    warn_definite=False)
    v1, v2 = np.array([0.8, -0.4]), np.array([0.1, 0.2])
    y1, y2 = solve_monotone_inclusion(lambda y: y, phi.grad, v1, v2, w1, w2,
                                      tol=1e-11)
    oracle = newton_root(lambda y: y + phi.grad(v2 + y) - v1, np.zeros(2))
    assert np.allclose(y1, oracle, atol=1e-8)
    assert np.allclose(y2, phi.grad(v2 + y1))


def test_inclusion_odd_maps_zero_solution():
    w1 = SupplyRate.output_strict(0.5, 1)
    w2 = SupplyRate(np.zeros((1, 1)), 0.5 * np.eye(1), -0.5 * np.eye(1),
                    warn_definite=False)
    y1, y2 = solve_monotone_inclusion(np.tanh, np.tanh, np.zeros(1), np.zeros(1),
                                      w1, w2)
    assert abs(y1[0]) < 1e-9 and abs(y2[0]) < 1e-9


def test_inclusion_requires_strict_condition():
    w_p = SupplyRate.passivity(1)
    with pytest.raises(ConditionsNotMetError):
        solve_monotone_inclusion(lambda y: y, lambda u: u, np.zeros(1),
                                 np.zeros(1), w_p, w_p)
