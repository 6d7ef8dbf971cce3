import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eidlab import (
    BregmanStorage,
    CtSystem,
    EquilibriumMap,
    SectorBounds,
    StorageGenerator,
    SupplyRate,
    bregman,
    catalog_build,
    check_sector,
    factor_dissipation,
    sample_pairs,
    sector_supply,
    supply_margin,
    verify_eid_ct,
    verify_eid_dt,
    verify_kyp_lti,
)
from eidlab import numerics
from eidlab.certify import DEFAULT_TOL_C
from eidlab.errors import DimensionMismatchError, NonFiniteError, RhatNotPsdError
from eidlab.sim import audit_dissipation, simulate_dt


PH_PARAMS = {
    "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "R": np.diag([0.5, 0.2, 0.3, 0.1]).tolist(),
    "G": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "hamiltonian": {"P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(),
                    "c": [0.3, 0.0, 0.2, 0.0]},
}


@pytest.fixture(scope="module")
def ph():
    return catalog_build("port_hamiltonian", PH_PARAMS)


@pytest.fixture(scope="module")
def ph_pairs(ph):
    return sample_pairs(ph, (-np.ones(4), np.ones(4)), count=300, seed=1)


# ---------------------------------------------------------------------------
# Bregman divergence


def test_bregman_zero_at_anchor_and_nonnegative():
    gen = StorageGenerator.quadratic(np.diag([1.0, 3.0]))
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, xb = rng.normal(size=2), rng.normal(size=2)
        assert bregman(gen, xb, xb) == pytest.approx(0.0, abs=1e-14)
        assert bregman(gen, xb, x) >= -1e-12


def test_bregman_quadratic_closed_form():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    gen = StorageGenerator.quadratic(P)
    x, xb = np.array([0.7, -0.3]), np.array([-0.2, 0.4])
    d = x - xb
    assert bregman(gen, xb, x) == pytest.approx(0.5 * d @ P @ d)


def test_bregman_storage_callable_and_grad(ph):
    xbar = np.array([0.1, -0.2, 0.3, 0.0])
    V = BregmanStorage(ph.storage, xbar)
    assert V(xbar) == pytest.approx(0.0)
    assert np.allclose(V.grad(xbar), 0.0)
    x = np.array([0.5, 0.5, -0.5, 0.2])
    assert V(x) == pytest.approx(bregman(ph.storage, xbar, x))


# ---------------------------------------------------------------------------
# canonical factor


def test_canonical_w_square_root():
    # the canonical W is the symmetric PSD square root of Rhat
    rhat = np.array([[4.0, 0.0], [0.0, 1.0]])
    W = numerics.psd_sqrt(rhat, DEFAULT_TOL_C)
    assert np.allclose(W.T @ W, rhat)


def test_canonical_w_rejects_indefinite():
    with pytest.raises(RhatNotPsdError):
        numerics.psd_sqrt(np.diag([1.0, -0.5]), DEFAULT_TOL_C)


# ---------------------------------------------------------------------------
# continuous-time verification


def test_ph_passivity_equality_certificate(ph, ph_pairs):
    w = SupplyRate.passivity(2)
    sqR, gH = ph.meta["sqrt_R"], ph.meta["grad_H"]
    ell = lambda x, xb: sqR @ (gH(x) - gH(xb))
    cert = verify_eid_ct(ph, w, ph.storage, ph_pairs, ell=ell, mode="equality",
                         tol_a=1e-9, tol_b=1e-9, tol_c=1e-9)
    assert cert.passed
    assert cert.stats.max_a_violation < 1e-12
    assert cert.stats.max_b_residual < 1e-12


def test_ph_min_norm_ell_matches_explicit(ph, ph_pairs):
    # the solver-chosen minimum-norm ell must certify whenever an explicit
    # factor does (inequality mode: dropping ell components only adds slack)
    w = SupplyRate.passivity(2)
    cert = verify_eid_ct(ph, w, ph.storage, ph_pairs, mode="inequality")
    assert cert.passed


def test_verify_rejects_wrong_time_domain(ph):
    dti = catalog_build("dt_integrator", {"alpha": 0.5})
    with pytest.raises(DimensionMismatchError):
        verify_eid_ct(dti, SupplyRate.passivity(1), None, [])
    with pytest.raises(DimensionMismatchError):
        verify_eid_dt(ph, SupplyRate.passivity(2), np.eye(4), [])


def test_verify_rejects_unknown_mode(ph, ph_pairs):
    with pytest.raises(ValueError):
        verify_eid_ct(ph, SupplyRate.passivity(2), ph.storage, ph_pairs,
                      mode="strict")


def test_wrong_supply_fails(ph, ph_pairs):
    # demanding output strictness the dissipation structure cannot provide
    w = SupplyRate.output_strict(50.0, 2)
    cert = verify_eid_ct(ph, w, ph.storage, ph_pairs)
    assert not cert.passed


def test_worst_pair_indices_are_per_condition():
    # xdot = -x + u, y = x³ with V = x²/2, R = 1 (so W = 1) and ell = 0:
    # equality-mode (a) residual is Δx², (b) residual is |Δ(x³) - Δx| / 2
    sys = CtSystem(lambda x: -x, lambda x: x**3, [[1.0]])
    w = SupplyRate([[0.0]], [[0.5]], [[1.0]], warn_definite=False)
    gen = StorageGenerator.quadratic([[1.0]])
    pairs = [([2.0], [0.0]), ([1.0], [-1.9]), ([0.1], [0.0])]
    cert = verify_eid_ct(sys, w, gen, pairs, ell=lambda x, xb: np.zeros(1),
                         mode="equality")
    assert cert.stats.worst_a_index == 1
    assert cert.stats.worst_b_index == 0
    assert cert.stats.max_a_violation == pytest.approx(2.9**2)
    assert cert.stats.max_b_residual == pytest.approx(3.0)
    assert cert.stats.worst_a_pair == [[1.0], [-1.9]]
    assert cert.stats.worst_b_pair == [[2.0], [0.0]]
    residuals = json.loads(cert.to_json())["residuals"]
    assert (residuals["worst_a_index"], residuals["worst_b_index"]) == (1, 0)
    assert residuals["worst_a_pair"] == cert.stats.worst_a_pair
    assert residuals["worst_b_pair"] == cert.stats.worst_b_pair


def test_certificate_serialization(ph, ph_pairs, tmp_path):
    w = SupplyRate.passivity(2)
    cert = verify_eid_ct(ph, w, ph.storage, ph_pairs, seed=7)
    path = tmp_path / "cert.json"
    cert.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "pass"
    assert doc["seed"] == 7
    assert doc["n_pairs"] == len(ph_pairs)
    assert "tol_a" in doc["tolerances"]


# ---------------------------------------------------------------------------
# discrete-time verification


def test_dt_integrator_exact_certificate():
    alpha = 0.5
    sys = catalog_build("dt_integrator", {"alpha": alpha, "n": 2})
    w = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), (alpha / 2) * np.eye(2),
                   warn_definite=False)
    pairs = sample_pairs(sys, (-np.ones(2), np.ones(2)), count=200, seed=2)
    cert = verify_eid_dt(sys, w, sys.meta["P"], pairs, mode="equality",
                         tol_a=1e-12, tol_b=1e-12, tol_c=1e-12)
    assert cert.passed
    assert cert.stats.max_a_violation == 0.0
    # the effective input block W'W = Rhat - G'PG vanishes identically
    assert np.allclose(cert.W, 0.0)


def test_dt_lti_hand_derived_certificate():
    # x+ = 0.5 x + u, y = x with P = 0.5: picking r = 1 gives W^2 = 0.5,
    # ell = 0.25 dx / W, and condition (a) closes exactly at q = -0.25
    sys = catalog_build("lti", {"F": [[0.5]], "G": [[1.0]], "H": [[1.0]],
                                "discrete": True})
    w = SupplyRate([[-0.25]], [[0.5]], [[1.0]], warn_definite=False)
    pairs = sample_pairs(sys, (-2 * np.ones(1), 2 * np.ones(1)), count=200, seed=3)
    cert = verify_eid_dt(sys, w, [[0.5]], pairs, mode="equality",
                         tol_a=1e-10, tol_b=1e-10, tol_c=1e-12)
    assert cert.passed
    # and the same storage cannot absorb a stricter output penalty
    w_bad = SupplyRate([[-0.5]], [[0.5]], [[1.0]], warn_definite=False)
    assert not verify_eid_dt(sys, w_bad, [[0.5]], pairs).passed


def test_dt_rejects_w_with_wrong_column_count():
    sys = catalog_build("dt_integrator", {"alpha": 0.5})
    pairs = sample_pairs(sys, (-np.ones(1), np.ones(1)), count=10, seed=2)
    with pytest.raises(DimensionMismatchError):
        verify_eid_dt(sys, SupplyRate.passivity(1), sys.meta["P"], pairs,
                      W=np.ones((1, 2)))


def test_infeasible_rhat_fails_instead_of_raising():
    # Rhat = -nu + 2 j/2 - j² rho = -3.75e-3 < 0: no W satisfies (c), which
    # is a fail verdict; the canonical W and an indefinite P still raise
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    pairs = sample_pairs(sys, (-np.ones(1), np.ones(1)), count=60, seed=11)
    w = SupplyRate([[-0.375]], [[0.5]], [[-0.6]], warn_definite=False)
    cert = verify_eid_ct(sys, w, sys.storage, pairs)
    assert not cert.passed
    assert cert.stats.c_residual >= 3.75e-3 * (1 - 1e-12)
    with pytest.raises(RhatNotPsdError, match=r"-3\.750e-03"):
        numerics.psd_sqrt(w.rhat(sys.J), DEFAULT_TOL_C)


def test_dt_rejects_indefinite_p():
    sys = catalog_build("dt_integrator", {"alpha": 0.5})
    with pytest.raises(RhatNotPsdError):
        verify_eid_dt(sys, SupplyRate.passivity(1), -np.eye(1), [])


def test_empty_pair_sets_are_errors():
    # with no pairs, (c) alone decided the verdict: this system is output
    # strict only up to a = 1, yet a = 50 passed
    from eidlab.interconnect import circle_criterion

    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0})
    dti = catalog_build("dt_integrator", {"alpha": 0.5})
    osp = SupplyRate.output_strict
    for run in (lambda: verify_eid_ct(so, osp(50.0, 1), so.storage, []),
                lambda: verify_eid_dt(dti, SupplyRate.passivity(1), dti.meta["P"], []),
                lambda: supply_margin(so, osp(0.0, 1), osp(1.0, 1), so.storage, []),
                lambda: circle_criterion(smib, SectorBounds.scalar(0.0, 1.0), smib.storage, [])):
        with pytest.raises(ValueError, match="need at least one pair"):
            run()


def test_pairs_of_another_state_width_are_errors():
    # (N, 2, 2) pairs on an n = 1 system were read as 2N mixed-component
    # pairs: verify_eid_ct passed with n_pairs 50 after evaluating 100 rows
    gff = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    pairs = sample_pairs(so, (-np.ones(2), np.ones(2)), count=50, seed=0)
    osp = SupplyRate.output_strict
    for run in (lambda: verify_eid_ct(gff, osp(0.1, 1), gff.storage, pairs),
                lambda: supply_margin(gff, osp(0.0, 1), osp(1.0, 1), gff.storage, pairs),
                lambda: factor_dissipation(gff, osp(0.1, 1), gff.storage, pairs[1])):
        with pytest.raises(DimensionMismatchError, match=r"not \(N, 2, 1\)"):
            run()


def test_pairs_of_the_right_size_but_another_shape_are_errors(ph):
    # only the size of a pair set was checked: a transposed (N, n, 2) set, (N,
    # 2n) rows and a flat pair were read as (N, 2, n) pairs.  (At n = 2 a
    # transposed set is (N, 2, 2) again, which no shape check can tell.)
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 3})
    osp = lambda a, m: SupplyRate.output_strict(a, m)
    for sys, storage, supply in ((so, so.storage, osp(0.5, 1)), (ph, ph.storage, osp(0.1, 2)),
                                 (dti, dti.meta["P"], SupplyRate.passivity(3))):
        pairs = sample_pairs(sys, (-np.ones(sys.n), np.ones(sys.n)), count=50, seed=0)
        verify = verify_eid_dt if sys.discrete else verify_eid_ct
        assert verify(sys, supply, storage, pairs).n_pairs == 50
        bad = [pairs.reshape(50, -1)]
        if sys.n != 2:
            bad.append(pairs.transpose(0, 2, 1))
        for P in bad:
            with pytest.raises(DimensionMismatchError, match=rf"not \(N, 2, {sys.n}\)"):
                verify(sys, supply, storage, P)
            if not sys.discrete:
                with pytest.raises(DimensionMismatchError, match="are not"):
                    supply_margin(sys, osp(0.0, sys.m), supply, storage, P)
        with pytest.raises(DimensionMismatchError, match="are not"):
            factor_dissipation(sys, supply, storage, pairs[1].ravel())


def test_every_dt_path_rejects_indefinite_p():
    # one check for all four: an unchecked P = -I once gave a fake "w0
    # fails" margin, a negative psd_margin and a passing audit instead of
    # an error
    sys = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    pairs = sample_pairs(sys, (-np.ones(2), np.ones(2)), count=50, seed=0)
    w0, w1 = SupplyRate.l2_gain(5.0, 2, 2), SupplyRate.l2_gain(1.0, 2, 2)
    P = -np.eye(2)
    with pytest.raises(RhatNotPsdError):
        verify_eid_dt(sys, w0, P, pairs)
    with pytest.raises(RhatNotPsdError):
        supply_margin(sys, w0, w1, P, pairs)
    with pytest.raises(RhatNotPsdError):
        factor_dissipation(sys, w0, P, pairs[1])
    traj = simulate_dt(sys, np.array([0.5, -0.2]), steps=10)
    with pytest.raises(RhatNotPsdError):
        audit_dissipation(traj, P, w0, np.zeros(2), np.zeros(2), xbar=np.zeros(2))


# ---------------------------------------------------------------------------
# dissipation matrix factorization


def test_factor_dissipation_psd_on_certified_system(ph, ph_pairs):
    w = SupplyRate.passivity(2)
    for pair in ph_pairs[:50]:
        res = factor_dissipation(ph, w, ph.storage, pair)
        assert res.psd_margin >= -1e-9
        assert res.D.shape == (3, 3)


def test_factor_dissipation_degenerate_pair(ph, ph_pairs):
    xb = ph_pairs[0][1]
    res = factor_dissipation(ph, SupplyRate.passivity(2), ph.storage, (xb, xb))
    assert res.a == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(res.b_difference, 0.0, atol=1e-14)


def test_factor_cocycle_identity(ph):
    # b-differences telescope: d(x1,x2) + d(x2,x3) + d(x3,x1) = 0, because
    # b is a pointwise function of the state alone
    rng = np.random.default_rng(5)
    w = SupplyRate.passivity(2)
    emap = EquilibriumMap(ph)
    anchor = emap.ku_ky(emap.project(np.zeros(4)))

    def b_of(x):
        return factor_dissipation(ph, w, ph.storage, (x, anchor.x)).b_difference

    for _ in range(50):
        x1, x2, x3 = rng.uniform(-1, 1, size=(3, 4))
        cyc = ((b_of(x1) - b_of(x2)) + (b_of(x2) - b_of(x3))
               + (b_of(x3) - b_of(x1)))
        assert np.allclose(cyc, 0.0, atol=1e-12)


def test_factor_detects_violation():
    # gradient flow asked for more output strictness than it has
    sys = catalog_build("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.0, "n": 1})
    w = SupplyRate.output_strict(10.0, 1)
    emap = EquilibriumMap(sys)
    eq = emap.ku_ky(np.array([0.5]))
    res = factor_dissipation(sys, w, sys.storage, (np.array([1.5]), eq.x))
    assert res.psd_margin < -1e-6


# ---------------------------------------------------------------------------
# sector checks


def _probe_pairs(count=300, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-scale, scale, size=1), rng.uniform(-scale, scale, size=1))
            for _ in range(count)]


def test_tanh_in_unit_sector():
    psi = np.tanh
    rep = check_sector(psi, SectorBounds.scalar(0.0, 1.0), _probe_pairs())
    assert rep["holds"]
    assert rep["min_margin"] >= -1e-9


def test_tanh_violates_narrow_sector():
    # increments of tanh between distant points have slope near zero,
    # outside [0.5, 1]
    psi = np.tanh
    rep = check_sector(psi, SectorBounds.scalar(0.5, 1.0), _probe_pairs())
    assert not rep["holds"]
    assert rep["violations"] > 0


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e6])
def test_sector_boundary_holds_at_every_probe_scale(scale):
    # psi(z) = 0.3 z lies on the edge of the sector [0.3, 1], so its margins
    # are rounding only; against an absolute tol they failed from 1e4 on
    psi = lambda z: 0.3 * z
    probes = np.random.default_rng(0).uniform(-scale, scale, size=(300, 2, 1))
    rep = check_sector(psi, SectorBounds.scalar(0.3, 1.0), probes)
    assert rep["holds"] and rep["violations"] == 0
    assert not check_sector(psi, SectorBounds.scalar(0.301, 1.0), probes)["holds"]


def test_sector_supply_form():
    w = sector_supply(SectorBounds.scalar(-1.0, 2.0))
    assert w.Q[0, 0] == -1.0
    assert w.S[0, 0] == 0.5
    assert w.R[0, 0] == 2.0  # -K1 K2 = -(-1)(2)


# ---------------------------------------------------------------------------
# LTI check for a given quadratic storage


def test_kyp_scalar_example():
    # xdot = -x + u, y = x, passivity: the storage is xᵀPx, so P = 1
    # over-weights it and fails while P = 1/2 passes; verify_eid_ct with the
    # generators x² and x²/2 (Bregman storages xᵀPx for P = 1, 1/2) agrees
    w = SupplyRate.passivity(1)
    res_fail = verify_kyp_lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]], w, [[1.0]])
    assert not res_fail["passed"]
    assert np.allclose(res_fail["M"], [[-2.0, 0.5], [0.5, 0.0]])
    res_pass = verify_kyp_lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]], w, [[0.5]])
    assert res_pass["passed"]
    assert res_pass["lambda_max"] <= 1e-12
    sys = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]]})
    pairs = sample_pairs(sys, (-np.ones(1), np.ones(1)), count=50, seed=4)
    for P, res in (([[0.5]], res_pass), ([[1.0]], res_fail)):
        gen = StorageGenerator.quadratic(2.0 * np.asarray(P))
        assert verify_eid_ct(sys, w, gen, pairs).passed == res["passed"]


def test_kyp_l2_gain_example():
    # scalar lag has H-infinity norm 1; gamma = 1.1 certifiable, 0.9 not
    F, G, H, J = [[-1.0]], [[1.0]], [[1.0]], [[0.0]]
    ok = verify_kyp_lti(F, G, H, J, SupplyRate.l2_gain(1.1, 1, 1), [[1.0]])
    assert ok["passed"]
    bad = verify_kyp_lti(F, G, H, J, SupplyRate.l2_gain(0.9, 1, 1), [[0.5]])
    assert not bad["passed"]


def _lyapunov(F, X):
    """Symmetric P with FᵀP + PF = -X, by a Kronecker solve (small n)."""
    n = F.shape[0]
    K = np.kron(F.T, np.eye(n)) + np.kron(np.eye(n), F.T)
    P = np.linalg.solve(K, -X.reshape(-1)).reshape(n, n)
    return 0.5 * (P + P.T)


@st.composite
def _lti_dims(draw):
    n = draw(st.integers(1, 3))
    return n, draw(st.integers(1, n)), draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_lti_dims())
def test_sampled_eid_agrees_with_kyp_on_random_lti(dims):
    # random stable (F, G, H, J), a supply with Rhat ⪰ 0 and a scaled
    # Lyapunov P; about a quarter of these cases pass KYP
    n, m, p, seed = dims
    rng = np.random.default_rng(seed)
    B, Sk = rng.normal(size=(2, n, n))
    F = -(0.2 * np.eye(n) + B @ B.T / n) + 0.5 * (Sk - Sk.T)
    G, H, J = rng.normal(size=(n, m)), rng.normal(size=(p, n)), 0.5 * rng.normal(size=(p, m))
    Qr = rng.normal(size=(p, p))
    Q = -rng.uniform(0.0, 1.0) * np.eye(p) + 0.1 * (Qr + Qr.T)
    S = 0.5 * rng.normal(size=(p, m))
    L = rng.normal(size=(m, m))
    rhat = 10 ** rng.uniform(-1, 2) * (L @ L.T + rng.uniform(0.0, 1.0) * np.eye(m))
    R = rhat - J.T @ S - S.T @ J - J.T @ Q @ J
    w = SupplyRate(Q, S, 0.5 * (R + R.T), warn_definite=False)
    P = 10 ** rng.uniform(-2, 1) * _lyapunov(F, np.eye(n))

    kyp = verify_kyp_lti(F, G, H, J, w, P)
    assume(abs(kyp["lambda_max"]) > 1e-6)
    sys = catalog_build("lti", {"F": F.tolist(), "G": G.tolist(), "H": H.tolist(),
                                "J": J.tolist()})
    pairs = []
    for _ in range(20):
        xbar = -np.linalg.solve(F, G @ rng.normal(size=m))  # F xbar + G ubar = 0
        pairs.append((xbar + rng.normal(size=n), xbar))
    # a sampled check only sees violations along sampled directions; along
    # the state part v of M's top eigenvector the (a) residual is at least
    # lambda_max(M), so a failing KYP case always has a violating pair
    pairs.append((xbar + np.linalg.eigh(kyp["M"])[1][:n, -1], xbar))
    cert = verify_eid_ct(sys, w, StorageGenerator.quadratic(2.0 * P), pairs)
    assert cert.passed == kyp["passed"]


def test_kyp_dimension_check():
    with pytest.raises(DimensionMismatchError):
        verify_kyp_lti(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                       np.zeros((1, 1)), SupplyRate.passivity(1), np.eye(3))


# ---------------------------------------------------------------------------
# pair sampling


def test_sample_pairs_contract(ph):
    pairs = sample_pairs(ph, (-np.ones(4), np.ones(4)), count=64, seed=9)
    assert pairs.shape == (64, 2, 4)
    x0, xb0 = pairs[0]
    assert np.array_equal(x0, xb0)  # degenerate pair first
    again = sample_pairs(ph, (-np.ones(4), np.ones(4)), count=64, seed=9)
    assert np.allclose(pairs[5][0], again[5][0])


@pytest.mark.parametrize("count", [0, -3])
def test_sample_pairs_needs_a_positive_count(ph, count):
    # any count below 1 used to return only the degenerate pair x == xb,
    # which passes every certificate
    with pytest.raises(ValueError, match="at least one pair"):
        sample_pairs(ph, (-np.ones(4), np.ones(4)), count=count, seed=0)


# ---------------------------------------------------------------------------
# the stacked kernel against the per-pair loop it replaced


def _reference_residuals(sys, w, storage, pairs, W, ell, mode):
    """Conditions (a) and (b) and the pair scale one pair at a time, with
    one lstsq per pair."""
    qjs = w.Q @ sys.J + w.S
    a_viol, b_res, sigma = [], [], []
    for x, xb in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xb = np.atleast_1d(np.asarray(xb, dtype=float))
        df = sys.f(x) - sys.f(xb)
        dh = sys.h(x) - sys.h(xb)
        if sys.discrete:
            dx = x - xb
            s = float(df @ storage @ df) - float(dx @ storage @ dx)
            c = qjs.T @ dh - sys.G.T @ (storage @ df)
            t = np.linalg.norm(storage) * (df @ df + dx @ dx)
        else:
            dgrad = np.asarray(storage.grad_V(x)) - np.asarray(storage.grad_V(xb))
            s = float(dgrad @ df)
            c = qjs.T @ dh - 0.5 * sys.G.T @ dgrad
            t = np.linalg.norm(dgrad) * np.linalg.norm(df)
        sigma.append(t + np.linalg.norm(w.Q) * (dh @ dh) + np.linalg.norm(c))
        if ell is None:
            lvec = np.linalg.lstsq(W.T, c, rcond=None)[0]
        else:
            lvec = np.atleast_1d(np.asarray(ell(x, xb), dtype=float))
        b_res.append(np.linalg.norm(W.T @ lvec[:W.shape[0]] - c))
        gap = s - (float(dh @ w.Q @ dh) - float(lvec @ lvec))
        a_viol.append(abs(gap) if mode == "equality" else max(gap, 0.0))
    return np.array(a_viol), np.array(b_res), np.array(sigma)


def _row_only_storage(ph):
    # indexes one state's components, so a stack makes the probe disagree
    gH = ph.meta["grad_H"]
    return StorageGenerator(V=ph.storage.V, grad_V=lambda x: np.array([gH(x)[i] for i in range(4)]))


def _equivalence_cases():
    ph = catalog_build("port_hamiltonian", PH_PARAMS)
    sqR, gH = ph.meta["sqrt_R"], ph.meta["grad_H"]
    row_ell = lambda x, xb: sqR @ (gH(x) - gH(xb))  # (4, 4) @ (3, 4) fails on a stack
    stack_ell = lambda x, xb: (gH(x) - gH(xb)) @ sqR.T
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    lti = catalog_build("lti", {"F": [[0.5, 0.1], [0.0, 0.4]], "G": np.eye(2).tolist(),
                                "discrete": True})
    box = lambda n: (-np.ones(n), np.ones(n))
    ifp = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), 0.25 * np.eye(2), warn_definite=False)
    w_lti = SupplyRate([[-0.25, 0.0], [0.0, -0.25]], 0.5 * np.eye(2), np.eye(2),
                       warn_definite=False)
    return {
        "ph/min-norm": (ph, box(4), SupplyRate.passivity(2), ph.storage, None),
        "ph/osp-fail": (ph, box(4), SupplyRate.output_strict(5.0, 2), ph.storage, None),
        "ph/row-ell": (ph, box(4), SupplyRate.passivity(2), ph.storage, row_ell),
        "ph/stack-ell": (ph, box(4), SupplyRate.passivity(2), ph.storage, stack_ell),
        # W = 2I, so this ell leaves a (b) residual at every pair
        "ph/l2-row-ell": (ph, box(4), SupplyRate.l2_gain(2.0, 2, 2), ph.storage, row_ell),
        "ph/row-storage": (ph, box(4), SupplyRate.output_strict(0.1, 2), _row_only_storage(ph),
                           None),
        "second_order": (so, box(2), SupplyRate.output_strict(0.5, 1), so.storage, None),
        "smib/fail": (smib, (-0.8 * np.ones(2), 0.8 * np.ones(2)),
                      SupplyRate.output_strict(2.0, 1), smib.storage, None),
        "dt_integrator": (dti, box(2), ifp, dti.meta["P"], None),
        "dt_integrator/ell": (dti, box(2), ifp, dti.meta["P"], lambda x, xb: 0.1 * (x - xb)),
        "lti_dt": (lti, box(2), w_lti, 0.5 * np.eye(2), None),
    }


@pytest.mark.parametrize("mode", ["equality", "inequality"])
@pytest.mark.parametrize("case", sorted(_equivalence_cases()))
def test_stacked_kernel_matches_per_pair_reference(case, mode):
    from eidlab import certify

    sys, region, w, storage, ell = _equivalence_cases()[case]
    pairs = sample_pairs(sys, region, count=400, seed=6)
    verify = verify_eid_dt if sys.discrete else verify_eid_ct
    cert = verify(sys, w, storage, pairs, ell=ell, mode=mode)
    a_ref, b_ref, sigma_ref = _reference_residuals(sys, w, storage, pairs, cert.W, ell, mode)
    Z = certify._stack_pairs(pairs, sys.n)
    rhat_eff, a, C, sigma = certify._supply_terms(sys, storage, Z, w)[0]
    # the canonical W and the pseudo-inverse that verification takes from one solve
    W, W_pinv = numerics.psd_sqrt_pinv(rhat_eff, np.inf)
    np.testing.assert_array_equal(W, cert.W)
    a_viol, b_res = certify._residuals(a, C, Z, W, W_pinv, ell, mode)
    np.testing.assert_allclose(a_viol, a_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b_res, b_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sigma, sigma_ref, rtol=1e-12, atol=1e-12)
    # a rotated W passed in, with a zero row where the min-norm ell is used:
    # verification forms its pseudo-inverse with pinv
    rot = np.linalg.qr(np.random.default_rng(3).normal(size=(sys.m, sys.m)))[0] @ W
    given_W = np.vstack([rot, np.zeros((1, sys.m))]) if ell is None else rot
    given = verify(sys, w, storage, pairs, W=given_W, ell=ell, mode=mode)
    given_ref = _reference_residuals(sys, w, storage, pairs, given_W, ell, mode)
    for c, (a_ref, b_ref, sigma_ref) in ((cert, (a_ref, b_ref, sigma_ref)), (given, given_ref)):
        assert c.stats.max_a_violation == pytest.approx(a_ref.max(), rel=0, abs=1e-12)
        assert c.stats.max_b_residual == pytest.approx(b_ref.max(), rel=0, abs=1e-12)
        # each pair's (a) and (b) tolerances are relative to 1 + its scale
        ref_passed = ((a_ref / (1 + sigma_ref)).max() <= c.tolerances["tol_a"]
                      and (b_ref / (1 + sigma_ref)).max() <= c.tolerances["tol_b"]
                      and c.stats.c_residual <= c.tolerances["tol_c"])
        assert c.passed == ref_passed
        # below 1e-12, rounding-level ties may pick another pair
        if a_ref.max() > 1e-12:
            assert c.stats.worst_a_index == int(np.argmax(a_ref))
        if b_ref.max() > 1e-12:
            assert c.stats.worst_b_index == int(np.argmax(b_ref))


def test_equivalence_cases_take_the_intended_paths():
    from eidlab.systems import _Stacked

    cases = _equivalence_cases()
    assert _Stacked(cases["ph/min-norm"][3].grad_V).maps_stacks(4)
    assert not _Stacked(cases["ph/row-storage"][3].grad_V).maps_stacks(4)
    pair = lambda ell: (lambda Z: ell(Z[..., :4], Z[..., 4:]))  # as _residuals calls ell
    assert not _Stacked(pair(cases["ph/row-ell"][4])).maps_stacks(8)
    assert _Stacked(pair(cases["ph/stack-ell"][4])).maps_stacks(8)
    verdicts = {name: verify_eid_ct(sys, w, gen, sample_pairs(sys, region, 100, seed=1),
                                    ell=ell).passed
                for name, (sys, region, w, gen, ell) in cases.items() if not sys.discrete}
    assert verdicts["ph/min-norm"] and not verdicts["ph/osp-fail"]
    assert not verdicts["smib/fail"]


def test_verify_call_counts_do_not_grow_with_pairs(ph):
    counts = {}

    def counting(name, fn):
        def wrapped(x):
            counts[name] = counts.get(name, 0) + 1
            return fn(x)
        return wrapped

    sys = catalog_build("port_hamiltonian", PH_PARAMS)
    sys.f, sys.h = counting("f", sys.f), counting("h", sys.h)
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    dti.f, dti.h = counting("dt_f", dti.f), counting("dt_h", dti.h)
    ifp = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), 0.25 * np.eye(2), warn_definite=False)
    seen = []
    for count in (200, 2000):
        ct_pairs = sample_pairs(ph, (-np.ones(4), np.ones(4)), count=count, seed=2)
        dt_pairs = sample_pairs(dti, (-np.ones(2), np.ones(2)), count=count, seed=2)
        # a fresh generator each time, so both counts include its stack probe
        gen = StorageGenerator(V=ph.storage.V, grad_V=counting("grad_V", ph.storage.grad_V))
        counts.clear()
        verify_eid_ct(sys, SupplyRate.passivity(2), gen, ct_pairs)
        verify_eid_dt(dti, ifp, dti.meta["P"], dt_pairs)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert all(v <= 8 for v in seen[0].values()), seen[0]


def _layouts(pairs):
    """The same pairs as a C-contiguous array, a strided slice of a wider
    array, a Fortran-ordered copy and a nested list."""
    wide = np.zeros(pairs.shape[:2] + (2 * pairs.shape[2],))
    wide[..., ::2] = pairs
    return {"contiguous": np.ascontiguousarray(pairs), "strided": wide[..., ::2],
            "fortran": np.asfortranarray(pairs), "list": pairs.tolist()}


def test_certificates_do_not_depend_on_the_pair_layout():
    # the (2N, n) pair stack is a reshape of the pair set, so every memory
    # layout of the same pairs gives the same certificate, bit for bit
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    ifp = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), 0.25 * np.eye(2), warn_definite=False)
    osp = lambda a: SupplyRate.output_strict(a, 1)
    ct = sample_pairs(so, (-np.ones(2), np.ones(2)), count=300, seed=4)
    dt = sample_pairs(dti, (-np.ones(2), np.ones(2)), count=300, seed=4)
    ct_layouts, dt_layouts = _layouts(ct), _layouts(dt)
    assert not (ct_layouts["strided"].flags.c_contiguous
                or ct_layouts["fortran"].flags.c_contiguous)
    answers = {}
    for name in ct_layouts:
        ct_pairs, dt_pairs = ct_layouts[name], dt_layouts[name]
        answers[name] = (verify_eid_ct(so, osp(0.5), so.storage, ct_pairs).to_dict(),
                         verify_eid_ct(so, osp(1.5), so.storage, ct_pairs).to_dict(),
                         verify_eid_dt(dti, ifp, dti.meta["P"], dt_pairs).to_dict(),
                         supply_margin(so, osp(0.0), osp(2.0), so.storage, ct_pairs))
    assert answers["contiguous"][0]["verdict"] == "pass"
    assert answers["contiguous"][1]["verdict"] == "fail"
    assert 0 < answers["contiguous"][3][0] < 1
    for name in ("strided", "fortran", "list"):
        assert answers[name] == answers["contiguous"], name
    # a pair set that is not (N, 2, n) is still rejected
    for bad in (np.zeros((10, 3, 2)), np.zeros((10, 2, 3)), np.zeros((10, 5))):
        with pytest.raises(DimensionMismatchError, match="are not"):
            verify_eid_ct(so, osp(0.5), so.storage, bad)
        with pytest.raises(DimensionMismatchError, match="are not"):
            verify_eid_dt(dti, ifp, dti.meta["P"], bad)
        with pytest.raises(DimensionMismatchError, match="are not"):
            supply_margin(so, osp(0.0), osp(2.0), so.storage, bad)


def test_second_verification_reuses_the_stack_probe(ph, ph_pairs):
    # the generator's stack capability is probed once (four grad_V calls);
    # every verification makes one grad_V call on the (2N, n) pair stack
    calls = []

    def grad_V(x):
        calls.append(np.shape(x))
        return ph.storage.grad_V(x)

    gen = StorageGenerator(V=ph.storage.V, grad_V=grad_V)
    first = verify_eid_ct(ph, SupplyRate.passivity(2), gen, ph_pairs)
    assert len(calls) == 5
    calls.clear()
    second = verify_eid_ct(ph, SupplyRate.output_strict(0.1, 2), gen, ph_pairs)
    assert calls == [(2 * len(ph_pairs), 4)]
    assert first.passed and second.passed


# ---------------------------------------------------------------------------
# supply margins


def _lti_dt():
    # x+ = x/2 + u, y = x with storage 2|x - xb|²: D = [[|Δx|²/2, -Δx],
    # [-Δx, γ² - 2]] is PSD iff γ >= 2
    sys = catalog_build("lti", {"F": [[0.5]], "G": [[1.0]], "discrete": True})
    return sys, sample_pairs(sys, (-np.ones(1), np.ones(1)), count=200, seed=1)


def test_supply_margin_dt_l2_gain_oracle():
    sys, pairs = _lti_dt()
    theta, binding = supply_margin(sys, SupplyRate.l2_gain(5.0, 1, 1),
                                   SupplyRate.l2_gain(1.5, 1, 1), 2.0 * np.eye(1), pairs)
    assert theta * 2**30 == int(theta * 2**30)
    gamma = np.sqrt((1 - theta) * 5.0**2 + theta * 1.5**2)
    assert gamma == pytest.approx(2.0, abs=1e-8)
    assert 0 <= binding < len(pairs)


def test_supply_margin_ends_of_the_family():
    sys, pairs = _lti_dt()
    P = 2.0 * np.eye(1)
    l2 = lambda gamma: SupplyRate.l2_gain(gamma, 1, 1)
    assert supply_margin(sys, l2(3.0), l2(2.5), P, pairs) == (1.0, None)
    theta, worst = supply_margin(sys, l2(1.9), l2(3.0), P, pairs)
    assert theta is None
    dx = abs(pairs[:, 0, 0] - pairs[:, 1, 0])
    assert dx[worst] == dx.max()


def test_verify_passes_at_the_margin_and_fails_beyond_it():
    sys, pairs = _lti_dt()
    # (1 - t) l2_gain(5) + t l2_gain(1.5)
    l2 = lambda t: SupplyRate(-np.eye(1), np.zeros((1, 1)), [[25.0 - 22.75 * t]],
                              warn_definite=False)
    P = 2.0 * np.eye(1)
    theta, _ = supply_margin(sys, l2(0.0), l2(1.0), P, pairs)
    assert verify_eid_dt(sys, l2(theta), P, pairs).passed
    assert not verify_eid_dt(sys, l2(theta + 1e-3), P, pairs).passed

    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    so_pairs = sample_pairs(so, (-np.ones(2), np.ones(2)), count=300, seed=4)
    osp = lambda a: SupplyRate.output_strict(a, 1)
    theta, binding = supply_margin(so, osp(0.0), osp(2.0), so.storage, so_pairs)
    assert 0 < theta < 1 and binding is not None
    assert verify_eid_ct(so, osp(2.0 * theta), so.storage, so_pairs).passed
    assert not verify_eid_ct(so, osp(2.0 * (theta + 1e-3)), so.storage, so_pairs).passed


def test_supply_margin_computes_the_pair_terms_once(monkeypatch):
    # the supply-independent pair terms serve both supplies: one stacking
    # of the pairs and, as in one verification, one f and one grad_V call
    # on the (2N, n) pair stack
    from eidlab import certify

    counts = {"f": 0, "grad_V": 0, "stack": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    pairs = sample_pairs(smib, (-0.8 * np.ones(2), 0.8 * np.ones(2)), count=400, seed=3)
    smib.f = counting("f", smib.f)
    gen = StorageGenerator(V=smib.storage.V, grad_V=counting("grad_V", smib.storage.grad_V))
    monkeypatch.setattr(certify, "_stack_pairs", counting("stack", certify._stack_pairs))
    osp = lambda a: SupplyRate.output_strict(a, 1)
    verify_eid_ct(smib, osp(0.0), gen, pairs)  # probes the generator once
    for key in counts:
        counts[key] = 0
    verify_eid_ct(smib, osp(0.0), gen, pairs)
    assert counts == {"f": 1, "grad_V": 1, "stack": 1}
    for key in counts:
        counts[key] = 0
    theta, binding = supply_margin(smib, osp(0.0), osp(2.0), gen, pairs)
    assert counts == {"f": 1, "grad_V": 1, "stack": 1}
    assert (theta, binding) == supply_margin(smib, osp(0.0), osp(2.0), smib.storage, pairs)


# ---------------------------------------------------------------------------
# supply margins against the bisection they replaced


def _bisection_margin(sys, w0, w1, storage, pairs):
    """supply_margin as the 30-step bisection on the stack's smallest
    eigenvalue: 33 stack eigen-solves for an answer inside (0, 1)."""
    from eidlab import certify

    (_, D0, s0), (_, D1, s1) = certify._dissipation_stacks(sys, storage, pairs, w0, w1)
    dD, slack = D1 - D0, 1e-12 * (1.0 + np.maximum(s0, s1))
    margin = lambda theta: np.linalg.eigvalsh(D0 + theta * dD)[:, 0] + slack
    at_zero = margin(0.0)
    if not at_zero.min() >= 0:
        return None, int(np.argmin(at_zero))
    if margin(1.0).min() >= 0:
        return 1.0, None
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid).min() >= 0 else (lo, mid)
    return lo, int(np.argmin(margin(hi)))


_SMIB = {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2}


def _margin_case(name, seed):
    """(sys, w0, w1, storage, pairs) of a margin case family at a pair seed."""
    from eidlab.interconnect import loop_transform

    osp = lambda a, m=1: SupplyRate.output_strict(a, m)
    box = lambda n: (-np.ones(n), np.ones(n))
    family, _, arg = name.partition(":")
    if family == "smib-circle":  # circle_criterion's margin over the sector [arg, 1]
        smib = catalog_build("smib", _SMIB)
        pairs = sample_pairs(smib, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), count=400,
                             seed=seed)
        transformed = loop_transform(smib, SectorBounds.scalar(float(arg), 1.0))
        return transformed, osp(0.0), osp(1.0), smib.storage, pairs
    if family in ("second_order", "second_order-nan"):  # arg: OSP(a) -> OSP(2)
        so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
        pairs = sample_pairs(so, box(2), count=300, seed=seed)
        if family == "second_order-nan":
            pairs[5, 0] = np.nan
        return so, osp(float(arg)), osp(2.0), so.storage, pairs
    if family == "port_hamiltonian":
        ph = catalog_build("port_hamiltonian", PH_PARAMS)
        return (ph, SupplyRate.passivity(2), osp(5.0, 2), ph.storage,
                sample_pairs(ph, box(4), count=500, seed=seed))
    if family == "ahu_saddle":
        ahu = catalog_build("ahu_saddle", {"mu": [1.0] * 4, "c": [0.5] * 4, "b": [1.0, -0.5],
                                           "A": [[1, 0, 1, 0], [0, 1, 0, 1]], "alpha": 1.0})
        return (ahu, SupplyRate.passivity(4), osp(3.0, 4), ahu.storage,
                sample_pairs(ahu, box(6), count=500, seed=seed))
    if family == "gradient_ff":  # arg: nu, from OSP(0) to OSP(1) with input excess nu
        gff = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
        w = lambda rho: SupplyRate([[-rho]], [[0.5]], [[-float(arg)]], warn_definite=False)
        return gff, w(0.0), w(1.0), gff.storage, sample_pairs(gff, box(1), count=300, seed=seed)
    # dt-l2: arg is "gamma0-gamma1", l2 gains under the storage 2|x - x̄|²
    g0, g1 = (float(g) for g in arg.split("-"))
    lti = catalog_build("lti", {"F": [[0.5]], "G": [[1.0]], "discrete": True})
    return (lti, SupplyRate.l2_gain(g0, 1, 1), SupplyRate.l2_gain(g1, 1, 1), 2.0 * np.eye(1),
            sample_pairs(lti, box(1), count=200, seed=seed))


_MARGIN_CASES = [
    "smib-circle:0.0", "smib-circle:-0.5", "smib-circle:-1.5",
    "second_order:0.0", "port_hamiltonian", "ahu_saddle",
    "gradient_ff:0.0", "gradient_ff:0.2", "gradient_ff:0.5", "gradient_ff:0.8",
    "dt-l2:5.0-1.5",
]
# cases at the ends of [0, 1], each with the theta it must reach
_MARGIN_ENDS = {
    "second_order:1.0": 0.0,  # OSP(1) holds exactly
    "second_order-nan:0.0": None,  # pair 5 is NaN, and binds
    "dt-l2:3.0-2.5": 1.0,
    "dt-l2:1.9-3.0": None,  # w0 fails
}


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("name", _MARGIN_CASES + sorted(_MARGIN_ENDS))
def test_supply_margin_matches_the_bisection_bitwise(name, seed):
    case = _margin_case(name, seed)
    expected = _bisection_margin(*case)
    theta, binding = supply_margin(*case)
    assert (theta, binding) == expected
    assert type(theta) is type(expected[0])
    if name in _MARGIN_ENDS:
        assert theta == _MARGIN_ENDS[name]
    if name == "second_order-nan:0.0":
        assert binding == 5


def _count_stack_eigen_solves(monkeypatch, n_pairs):
    """Count calls of the stack eigenvalue kernel on a whole (n_pairs, m+1,
    m+1) stack."""
    calls = []
    kernel = numerics.stack_eigvalsh

    def counting(A):
        if np.ndim(A) == 3 and len(A) == n_pairs:
            calls.append(A.shape)
        return kernel(A)

    monkeypatch.setattr(numerics, "stack_eigvalsh", counting)
    return calls


def test_supply_margin_stack_eigen_solves(monkeypatch):
    from eidlab.interconnect import circle_criterion

    cases = {name: _margin_case(name, 3) for name in
             ("second_order:1.0", "dt-l2:3.0-2.5", "dt-l2:1.9-3.0")}
    _, _, _, gen, pairs = _margin_case("smib-circle:0.0", 3)
    calls = _count_stack_eigen_solves(monkeypatch, len(pairs))
    # acceptance 6's circle margin: the bisection made 33
    res = circle_criterion(catalog_build("smib", _SMIB), SectorBounds.scalar(0.0, 1.0), gen, pairs)
    assert res["certified_eps"] == 0.5 and len(calls) <= 10
    expected = {
        "second_order:1.0": 3,  # the two ends and 2⁻³⁰, where an exact certificate ends
        "dt-l2:3.0-2.5": 2,  # (1.0, None): both ends
        "dt-l2:1.9-3.0": 1,  # (None, k): w0 alone, w1 is not looked at
    }
    for name, case in cases.items():
        calls = _count_stack_eigen_solves(monkeypatch, len(case[4]))
        supply_margin(*case)
        assert len(calls) == expected[name], name


def test_ahu_margin_from_two_pairs_reaches_the_exact_value():
    # the exact passivity -> OSP(3) margin of the bench AHU on its box is
    # theta* = (1 + sech²(1) / 2) / 3, reached by x = x̄ - t e1 at the
    # equilibrium x̄ = (1, 0, 0, -0.5, 0, 0); at t = 1e-5 rounding takes over
    ahu = catalog_build("ahu_saddle", {"mu": [1.0] * 4, "c": [0.5] * 4, "b": [1.0, -0.5],
                                       "A": [[1, 0, 1, 0], [0, 1, 0, 1]], "alpha": 1.0})
    xbar = np.array([1.0, 0.0, 0.0, -0.5, 0.0, 0.0])
    assert EquilibriumMap(ahu).assignability_residual(xbar) == 0.0
    pairs = np.array([[xbar, xbar], [xbar - 1e-3 * np.eye(6)[0], xbar]])
    theta, _ = supply_margin(ahu, SupplyRate.passivity(4), SupplyRate.output_strict(3.0, 4),
                             ahu.storage, pairs)
    exact = (1.0 + 0.5 / np.cosh(1.0) ** 2) / 3.0
    assert exact == pytest.approx(0.4033290569, abs=1e-10)
    assert exact <= theta <= exact + 1e-4


@pytest.mark.parametrize("scale, solves", [(np.nan, 33), (1e6, 63)])
def test_supply_margin_safeguard_bounds_the_search(monkeypatch, scale, solves):
    # a NaN slope takes the grid midpoint at every step, as the bisection
    # did; a slope 1e12 times too steep makes each tangent step one grid
    # step until the budget of 30 runs out, and the midpoints finish: the
    # worst case, 63 solves, with the same answer; injected where the
    # tangent reads its eigenvector
    case = _margin_case("gradient_ff:0.2", 0)
    expected = _bisection_margin(*case)
    eigh = numerics.sym_eigh
    monkeypatch.setattr(numerics, "sym_eigh", lambda A: (eigh(A)[0], scale * eigh(A)[1]))
    calls = _count_stack_eigen_solves(monkeypatch, len(case[4]))
    assert supply_margin(*case) == expected
    assert len(calls) == solves


def test_small_verdicts_and_margins_need_no_lapack_eigh(monkeypatch):
    # W and W⁺ of an m <= 2 verdict, a 2 x 2 discrete-time P and an m = 1
    # margin's tangent come from numerics' closed form: with eigh made to
    # raise they complete, with the answers they give without the patch
    ph = catalog_build("port_hamiltonian", PH_PARAMS)
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    so, w0, w1, storage, pairs = _margin_case("second_order:1.0", 0)
    ifp = SupplyRate(np.zeros((2, 2)), 0.5 * np.eye(2), 0.5 * np.eye(2), warn_definite=False)
    box = lambda n: (-np.ones(n), np.ones(n))
    ph_pairs, dti_pairs = sample_pairs(ph, box(4), count=50, seed=1), sample_pairs(dti, box(2),
                                                                                   count=50, seed=1)
    runs = {
        "ct, m = 1": lambda: verify_eid_ct(so, w0, storage, pairs),
        "ct, m = 2": lambda: verify_eid_ct(ph, SupplyRate.output_strict(0.1, 2), ph.storage,
                                           ph_pairs),
        "dt, 2 x 2 P": lambda: verify_eid_dt(dti, ifp, dti.meta["P"], dti_pairs),
    }
    expected = {name: run() for name, run in runs.items()}
    margin = supply_margin(so, SupplyRate.output_strict(0.5, 1), w1, storage, pairs)
    assert margin[0] not in (None, 1.0)  # a search, with tangent steps

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for name, run in runs.items():
        cert = run()
        assert cert.passed == expected[name].passed and cert.passed, name
        np.testing.assert_array_equal(cert.W, expected[name].W)
    assert supply_margin(so, SupplyRate.output_strict(0.5, 1), w1, storage, pairs) == margin


# ---------------------------------------------------------------------------
# the pass rule: per-pair scales and non-finite pairs


def _mix(w0, w1, theta):
    """(1 - theta) w0 + theta w1."""
    return SupplyRate((1 - theta) * w0.Q + theta * w1.Q, (1 - theta) * w0.S + theta * w1.S,
                      (1 - theta) * w0.R + theta * w1.R, warn_definite=False)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e5, 1e6])
def test_exact_osp_verdict_and_margin_survive_box_scale(scale):
    # OSP(1) holds exactly on second_order (dV = -y²), yet with absolute
    # tolerances its rounding alone failed the certificate from box scale
    # 1e5 on (max (a) 2.9e-6 at 1e5, 3.7e-4 at 1e6) while supply_margin
    # said it held; OSP(1.0001) fails at every scale
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    pairs = sample_pairs(so, (-scale * np.ones(2), scale * np.ones(2)), count=500, seed=0)
    osp = lambda a: SupplyRate.output_strict(a, 1)
    assert verify_eid_ct(so, osp(1.0), so.storage, pairs).passed
    assert not verify_eid_ct(so, osp(1.0001), so.storage, pairs).passed
    theta, _ = supply_margin(so, osp(1.0), osp(2.0), so.storage, pairs)
    assert theta is not None
    assert verify_eid_ct(so, _mix(osp(1.0), osp(2.0), theta), so.storage, pairs).passed


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_exact_ph_equality_certificate_survives_box_scale(ph, scale):
    # acceptance 1's certificate: its (a) residual is pure rounding, 1.2e-7
    # at box scale 1e4 and 1.5e-5 at 1e5, which failed an absolute 1e-9
    sqR, gH = ph.meta["sqrt_R"], ph.meta["grad_H"]
    ell = lambda x, xb: sqR @ (gH(x) - gH(xb))
    pairs = sample_pairs(ph, (-scale * np.ones(4), scale * np.ones(4)), count=500, seed=0)
    cert = verify_eid_ct(ph, SupplyRate.passivity(2), ph.storage, pairs, ell=ell,
                         mode="equality", tol_a=1e-9, tol_b=1e-9, tol_c=1e-9)
    assert cert.passed and cert.stats.nonfinite_pairs == 0


def _so_pairs_with_nan():
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    pairs = sample_pairs(so, (-np.ones(2), np.ones(2)), count=50, seed=0)
    pairs[5, 0] = np.nan
    return so, pairs


def test_nan_pair_fails_the_certificate_and_is_counted():
    so, pairs = _so_pairs_with_nan()
    cert = verify_eid_ct(so, SupplyRate.output_strict(0.0, 1), so.storage, pairs)
    assert not cert.passed and cert.stats.nonfinite_pairs == 1
    assert cert.stats.worst_a_index == cert.stats.worst_b_index == 5
    assert np.isnan(cert.stats.max_a_violation)
    assert json.loads(cert.to_json())["residuals"]["nonfinite_pairs"] == 1


@pytest.mark.parametrize("x", [[1e200, 0.0], [np.inf, 0.0]])
def test_pair_whose_terms_overflow_counts_as_not_finite(x):
    # |Δ∇V| |Δf| ~ 1e400 at x = (1e200, 0): its scale is not finite, so the
    # pair is the worst of both verdicts, which the certificate used to pass;
    # an Inf state is reported the same way, with no numpy warning
    so, pairs = _so_pairs_with_nan()
    pairs[5, 0] = x
    osp = lambda a: SupplyRate.output_strict(a, 1)
    cert = verify_eid_ct(so, osp(0.0), so.storage, pairs)
    assert not cert.passed and cert.stats.nonfinite_pairs == 1
    assert cert.stats.worst_a_index == 5
    assert supply_margin(so, osp(0.0), osp(2.0), so.storage, pairs) == (None, 5)


def test_supply_margin_over_a_nan_pair_is_none():
    # the NaN pair read as a pass: the margin was (0.0, 5), certifying OSP(0)
    so, pairs = _so_pairs_with_nan()
    osp = lambda a: SupplyRate.output_strict(a, 1)
    assert supply_margin(so, osp(0.0), osp(2.0), so.storage, pairs) == (None, 5)


def test_supply_margin_over_a_nan_pair_with_two_inputs_is_none(ph):
    # on (N, 3, 3) stacks eigvalsh raised LinAlgError at a NaN pair
    pairs = sample_pairs(ph, (-np.ones(4), np.ones(4)), count=100, seed=0)
    pairs[7, 1, 2] = np.nan
    margin = supply_margin(ph, SupplyRate.passivity(2), SupplyRate.output_strict(5.0, 2),
                           ph.storage, pairs)
    assert margin == (None, 7)


def test_factor_dissipation_raises_on_a_nan_pair():
    # the one-pair form of the rule: one pair alone raises
    so, pairs = _so_pairs_with_nan()
    with pytest.raises(NonFiniteError):
        factor_dissipation(so, SupplyRate.output_strict(0.0, 1), so.storage, pairs[5])


def test_sector_check_over_nan_margins_does_not_hold():
    # with psi NaN on part of the probes the check read 0 violations and
    # holds True, with a NaN min_margin
    psi = lambda z: np.where(z > 1.0, np.nan, np.tanh(z))
    probes = np.random.default_rng(0).uniform(-3.0, 3.0, size=(10, 2, 1))
    rep = check_sector(psi, SectorBounds.scalar(0.0, 1.0), probes)
    assert not rep["holds"] and rep["nonfinite_pairs"] > 0
    assert np.isnan(rep["min_margin"])
    finite = probes[(probes <= 1.0).all(axis=(1, 2))]
    rep = check_sector(psi, SectorBounds.scalar(0.0, 1.0), finite)
    assert rep["holds"] and rep["nonfinite_pairs"] == 0


def test_sector_probes_of_another_width_are_errors():
    # (10, 2, 3) probes against an m = 2 sector raised numpy's matmul ValueError
    psi = np.tanh
    probes = np.random.default_rng(0).normal(size=(10, 2, 3))
    with pytest.raises(DimensionMismatchError, match="width 3"):
        check_sector(psi, SectorBounds(np.zeros((2, 2)), np.eye(2)), probes)
