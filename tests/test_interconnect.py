import numpy as np
import pytest

from eidlab import systems
from eidlab import (
    CtSystem,
    FeedbackLoop,
    SectorBounds,
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
    supply_margin,
    validate_system,
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


def test_static_feedback_reads_a_scalar_or_list_psi_as_one_input():
    # a 0-D psi value must stay the one input of width one: read as a scalar
    # factor of Gᵀ it would turn one state into a (1, n) stack
    smib = catalog_build("smib", SMIB)
    want = static_feedback(smib, np.tanh)
    rng = np.random.default_rng(3)
    x, X = rng.uniform(-1.0, 1.0, smib.n), rng.uniform(-1.0, 1.0, (5, smib.n))
    for psi in (lambda y: np.tanh(y[0]), lambda y: float(np.tanh(y[0])),
                lambda y: list(np.tanh(y))):
        got = static_feedback(smib, psi)
        assert got.f(x).shape == (smib.n,)
        assert np.array_equal(got.f(x), want.f(x))
        np.testing.assert_allclose(got.f(X), want.f(X), rtol=1e-12, atol=0.0)


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


def test_kappa_search_builds_only_the_grids_it_ranks(monkeypatch):
    # a twelfth grid used to be built after the last ranking; each grid is
    # one linspace of log kappa
    built, linspace = [], np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a: built.append(a) or linspace(*a))
    w = SupplyRate.output_strict(1.0, 1)
    kappa_search(w, w)
    assert len(built) == 11


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
# Jacobians of composed systems


SMIB = {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2}
G2 = {"mu": 1.0, "c": 0.4, "g": 1.5, "j": 0.5, "n": 1}
COMPOSED = {
    "loop_transform(smib)": lambda: loop_transform(catalog_build("smib", SMIB),
                                                   SectorBounds.scalar(0.2, 1.5)),
    "loop(smib,g2)": lambda: compose_closed_loop(FeedbackLoop(
        catalog_build("smib", SMIB), catalog_build("gradient_ff", G2))),
    "loop(second_order,g2)": lambda: compose_closed_loop(FeedbackLoop(
        catalog_build("second_order", {"mu": 1.0, "c": 0.5}), catalog_build("gradient_ff", G2))),
}


@pytest.mark.parametrize("case", sorted(COMPOSED))
def test_composed_systems_project_with_their_parts_jacobians(case, monkeypatch):
    # each used to take 2 finite-difference Jacobians to project 50 candidates
    from eidlab import numerics

    sys = COMPOSED[case]()
    rep = validate_system(sys, probes=50, seed=1)
    assert rep["ok"] and rep["jacobian_consistent"] and rep["max_jacobian_mismatch"] <= 1e-7
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(6, sys.n))
    np.testing.assert_allclose(sys.f_jac(X), np.array([sys.f_jac(x) for x in X]),
                               rtol=0, atol=1e-12)
    calls, fd_jacobian = [], numerics.fd_jacobian
    monkeypatch.setattr(numerics, "fd_jacobian", lambda F, x: calls.append(1) or fd_jacobian(F, x))
    emap = EquilibriumMap(sys)
    P = emap.project(np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, sys.n)))
    assert calls == []
    P = P[~np.isnan(P[:, 0])]
    assert len(P) >= 45
    assert max(emap.assignability_residual(x) for x in P) <= 1e-10


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
    # a cross-formulation oracle: the eps certified on the sector supplies of
    # sys passes verify_eid_ct on the loop-transformed system and eps + 1e-3
    # fails, on the SMIB pairs of acceptance 6
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    pairs = sample_pairs(sys, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), count=400, seed=3)
    bounds = SectorBounds.scalar(0.0, 1.0)
    res = circle_criterion(sys, bounds, sys.storage, pairs)
    eps = res["certified_eps"]
    assert res["passed"] and 0.3 <= eps <= 0.5 and "transformed" not in res
    transformed = loop_transform(sys, bounds)
    verify = lambda e: verify_eid_ct(transformed, SupplyRate.output_strict(e, 1),
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


@pytest.mark.parametrize("seed", range(5))
def test_circle_matches_the_transformed_margin(seed):
    # the sector supplies on sys and OSP(0) -> OSP(1) on the loop-transformed
    # system give D matrices congruent pair by pair, so the same eps; 2⁻³⁰
    # allows for the rounding of other BLAS builds
    smib = catalog_build("smib", SMIB)
    pairs = sample_pairs(smib, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), count=400,
                         seed=seed)
    osp = lambda a: SupplyRate.output_strict(a, 1)
    for alpha in (0.0, -0.5, -1.5, 0.3):
        bounds = SectorBounds.scalar(alpha, 1.0)
        got = circle_criterion(smib, bounds, smib.storage, pairs)["certified_eps"]
        want = supply_margin(loop_transform(smib, bounds), osp(0.0), osp(1.0), smib.storage,
                             pairs)[0]
        assert (got is None) == (want is None), alpha
        assert got is None or abs(got - want) <= 2**-30, alpha


def _sector_loop_misfits():
    lti = catalog_build("lti", {"F": (-np.eye(2)).tolist(), "G": [[1.0], [0.0]],
                                "H": np.eye(2).tolist()})
    return {
        "discrete": (catalog_build("dt_integrator", {"alpha": 0.5}), SectorBounds.scalar(0.0, 1.0),
                     DimensionMismatchError),
        "non_square": (lti, SectorBounds.scalar(0.0, 1.0), NonSquareError),
        "feedthrough": (catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 1}),
                        SectorBounds.scalar(0.0, 1.0), NonzeroFeedthroughError),
        "sector_width": (catalog_build("smib", SMIB), SectorBounds.scalar(0.0, 1.0, m=2),
                         DimensionMismatchError),
    }


@pytest.mark.parametrize("call, case", [
    *((call, case) for call in ("circle_criterion", "loop_transform")
      for case in ("discrete", "feedthrough", "non_square", "sector_width")),
    # static feedback closes discrete-time parts too, and takes no sector
    ("static_feedback", "feedthrough"), ("static_feedback", "non_square")])
def test_sector_loop_checks_raise_for_both_callers(call, case):
    sys, bounds, error = _sector_loop_misfits()[case]
    run = {"loop_transform": lambda: loop_transform(sys, bounds),
           "circle_criterion": lambda: circle_criterion(sys, bounds, sys.storage,
                                                        np.zeros((1, 2, sys.n))),
           "static_feedback": lambda: static_feedback(sys, np.tanh)}[call]
    with pytest.raises(error):
        run()


@pytest.mark.parametrize("sector", [(0.0, 1.0), (-1.5, 1.0)], ids=["pass", "fail"])
def test_circle_criterion_evaluates_its_part_once(sector, monkeypatch):
    # the sector supplies are read on sys itself, so no system is built and
    # no probe runs: f and h once each on the (2N, n) pair stack
    sys = catalog_build("smib", SMIB)
    pairs = sample_pairs(sys, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), count=400, seed=3)
    calls = dict.fromkeys(("f", "h", "probe"), 0)

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)
        return call
    sys._f.fn, sys._h.fn = counted("f", sys._f.fn), counted("h", sys._h.fn)
    decide = systems._Stacked.maps_stacks

    def probed(rule, k):
        calls["probe"] += k not in rule._stacks and k not in rule._rows
        return decide(rule, k)
    monkeypatch.setattr(systems._Stacked, "maps_stacks", probed)
    bounds = SectorBounds.scalar(*sector)
    first = circle_criterion(sys, bounds, sys.storage, pairs)  # the part's own rules probe here
    calls.update(f=0, h=0, probe=0)
    again = circle_criterion(sys, bounds, sys.storage, pairs)
    assert calls["probe"] == 0 and calls["f"] == 1 and calls["h"] == 1, calls
    assert (again["certified_eps"], again["binding_pair"]) == (first["certified_eps"],
                                                                first["binding_pair"])


BUILT = {
    "loop_transform": lambda smib: loop_transform(smib, SectorBounds.scalar(0.2, 1.5)),
    "compose_closed_loop": lambda smib: compose_closed_loop(FeedbackLoop(
        smib, catalog_build("second_order", {"mu": 1.0, "c": 0.5}))),
    "static_feedback": lambda smib: static_feedback(smib, np.tanh),
}


@pytest.mark.parametrize("case", sorted(BUILT))
def test_composed_rules_give_the_bytes_of_a_probed_rule(case):
    smib = catalog_build("smib", SMIB)
    sys = BUILT[case](smib)
    rules = [(sys._f, 1), (sys._h, 1)] + [(sys.f_jac, 2)] * (sys.f_jac is not None)
    assert len(rules) == (2 if case == "static_feedback" else 3)
    if case == "static_feedback":
        # its h is the part's own callable, so the matrix form keeps its h_jac
        assert sys._h.fn is smib._h.fn and sys.h_jac is not None
    rng = np.random.default_rng(8)
    for X in (rng.uniform(-1.0, 1.0, sys.n), rng.uniform(-1.0, 1.0, (7, sys.n)),
              np.zeros((0, sys.n))):
        for rule, ndim in rules:
            got, want = rule(X), systems._Stacked(rule.fn, ndim)(X)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                             want.tobytes())
    # the probe of the first stack call found that every composed rule maps stacks
    assert all(sys.n in rule._stacks for rule, _ in rules)


def test_composed_systems_evaluate_a_row_only_part_row_by_row():
    # the part's own rule finds that its f and h take one state only, so a
    # stack through a composed rule gets its row values
    def part():
        return CtSystem(lambda x: np.array([x[1], -x[0]]), lambda x: np.array([x[1]]),
                        [[0.0], [1.0]])
    built = [loop_transform(part(), SectorBounds.scalar(0.2, 1.5)),
             compose_closed_loop(FeedbackLoop(part(), _integrator())),
             compose_closed_loop(FeedbackLoop(_integrator(), part())),
             static_feedback(part(), np.tanh)]
    rng = np.random.default_rng(9)
    for sys in built:
        for rows in (2, sys.n, 7):  # a (k, k) stack fed to the raw callable gives wrong rows
            X = rng.uniform(-1.0, 1.0, (rows, sys.n))
            for fn in (sys.f, sys.h):
                np.testing.assert_allclose(fn(X), np.array([fn(x) for x in X]),
                                           rtol=0, atol=1e-15)
    lt, X = built[0], rng.uniform(-1.0, 1.0, (5, 2))
    # f - G K1 h and K h, with K1 = 0.2 and K = 1.3
    np.testing.assert_allclose(lt.f(X), np.stack([X[:, 1], -X[:, 0] - 0.2 * X[:, 1]], axis=1),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(lt.h(X), 1.3 * X[:, 1:], rtol=0, atol=1e-15)


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
    phi = StorageGenerator.quadratic(np.eye(2), [0.5, 0.5])
    w1 = SupplyRate.output_strict(1.0, 2)
    w2 = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), -phi.mu * np.eye(2),
                    warn_definite=False)
    v1, v2 = np.array([0.8, -0.4]), np.array([0.1, 0.2])
    y1, y2 = solve_monotone_inclusion(lambda y: y, phi.grad_V, v1, v2, w1, w2,
                                      tol=1e-11)
    oracle = newton_root(lambda y: y + phi.grad_V(v2 + y) - v1, np.zeros(2))
    assert np.allclose(y1, oracle, atol=1e-8)
    assert np.allclose(y2, phi.grad_V(v2 + y1))


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
