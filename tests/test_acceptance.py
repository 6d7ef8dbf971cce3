"""End-to-end acceptance criteria.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS line (visible with ``pytest -s``) when it succeeds.
"""

import time

import numpy as np
import pytest

from eidlab.certify import (
    BregmanStorage,
    bregman,
    check_sector,
    factor_dissipation,
    sample_pairs,
    supply_margin,
    verify_eid_ct,
    verify_eid_dt,
)
from eidlab.equilibria import EquilibriumMap, check_relation_dissipativity
from eidlab.gains import (
    FeasibleRegion,
    dt_gradient_gain,
    empirical_gain,
    gaussian_disturbances,
    ifp_osp_gain,
)
from eidlab.interconnect import circle_criterion, compose_supply, static_feedback
from eidlab.numerics import psd_check, rk4_step
from eidlab.sim import (
    Trajectory,
    audit_dissipation,
    ct_audit_tol,
    simulate_ct,
    simulate_dt,
    stability_experiment,
)
from eidlab.systems import (
    SectorBounds,
    SeparableConvex,
    StaticNonlinearity,
    StorageGenerator,
    SupplyRate,
    catalog_build,
)

PH_PARAMS = {
    "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "R": np.diag([0.5, 0.2, 0.3, 0.1]).tolist(),
    "G": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "hamiltonian": {"P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(),
                    "c": [0.3, 0.0, 0.2, 0.0]},
}

SMIB_PARAMS = {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2}


def test_acceptance_1_ph_equality_certificate_and_audit():
    start = time.perf_counter()
    ph = catalog_build("port_hamiltonian", PH_PARAMS)
    pairs = sample_pairs(ph, (-np.ones(4), np.ones(4)), count=2000, seed=1)
    sqR, gH = ph.meta["sqrt_R"], ph.meta["grad_H"]
    ell = lambda x, xb: sqR @ (gH(x) - gH(xb))
    cert = verify_eid_ct(ph, SupplyRate.passivity(2), ph.storage, pairs,
                         ell=ell, mode="equality",
                         tol_a=1e-9, tol_b=1e-9, tol_c=1e-9)
    assert cert.passed and cert.n_pairs == 2000
    assert cert.stats.max_a_violation <= 1e-9
    assert cert.stats.max_b_residual <= 1e-9

    emap = EquilibriumMap(ph)
    xbar = emap.project(0.2 * np.ones(4))
    eq = emap.ku_ky(xbar)
    dt, T = 1e-3, 10.0
    traj = simulate_ct(ph, xbar + np.array([0.3, -0.2, 0.1, 0.2]),
                       u=lambda t: eq.u, T=T, dt=dt)
    audit = audit_dissipation(traj, BregmanStorage(ph.storage, xbar),
                              SupplyRate.passivity(2), eq.u, eq.y,
                              tol=ct_audit_tol(dt, T))
    assert audit.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: PASS — exact passivity certificate on 2000 pairs "
          f"(worst residual {cert.stats.max_b_residual:.2e}), trajectory audit "
          f"clean, {elapsed:.1f}s")


def test_acceptance_2_wrong_storage_negative_control():
    sys = catalog_build("second_order", {"mu": 1.0})
    emap = EquilibriumMap(sys)
    ubar = np.array([3.0])
    xbar = emap.solve_equilibrium(ubar, np.zeros(2))
    eq = emap.ku_ky(xbar)
    traj = simulate_ct(sys, xbar + np.array([0.3, 1.5]), u=lambda t: ubar,
                       T=2.0, dt=1e-3)
    w = SupplyRate.passivity(1)
    # naive energy difference: no gradient correction at the anchor
    naive = lambda x: sys.storage.V(x) - sys.storage.V(xbar)
    bad = audit_dissipation(traj, naive, w, eq.u, eq.y)
    assert not bad.passed
    assert bad.max_violation > 1e-3
    good = audit_dissipation(traj, BregmanStorage(sys.storage, xbar), w,
                             eq.u, eq.y)
    assert good.passed
    print(f"\nACCEPTANCE 2: PASS — naive storage violates by "
          f"{bad.max_violation:.2e} where the anchored storage passes")


def test_acceptance_3_feasible_region_is_sharp():
    mu, g, j = 2.0, 1.0, 0.9
    reg = FeasibleRegion(mu=mu, g=g, j=j)
    assert reg.nu_intercept == pytest.approx(0.9, abs=1e-9)
    assert reg.rho_intercept_feedthrough == pytest.approx(1.0 / 0.9, abs=1e-9)
    assert reg.rho_intercept_curvature == pytest.approx(2.0 / 2.8, abs=1e-9)

    sys = catalog_build("gradient_ff", {"mu": mu, "g": g, "j": j, "n": 1})
    pairs = sample_pairs(sys, (-np.ones(1), np.ones(1)), count=60, seed=11)

    def certifies(nu, rho):
        w = SupplyRate([[-rho]], [[0.5]], [[-nu]], warn_definite=False)
        return verify_eid_ct(sys, w, sys.storage, pairs).passed

    rng = np.random.default_rng(11)
    inside = outside = 0
    for _ in range(20):
        nu = rng.uniform(0.0, 0.7)
        cap = reg.rho_max_curvature(nu)
        feed = reg.rho_max_feedthrough(nu)
        rho_in = rng.uniform(0.1, 0.9) * cap
        rho_out = cap + rng.uniform(0.1, 0.9) * (0.95 * feed - cap)
        assert reg.membership(nu, rho_in)
        assert not reg.membership(nu, rho_out)
        inside += certifies(nu, rho_in)
        outside += not certifies(nu, rho_out)
    assert inside == 20 and outside == 20

    # the boundary curve itself: the largest certifiable rho along each nu
    for nu in (0.0, 0.2, 0.4, 0.6, 0.8):
        rho_hi = reg.rho_max_feedthrough(nu)
        theta, _ = supply_margin(sys, SupplyRate([[0.0]], [[0.5]], [[-nu]], warn_definite=False),
                                 SupplyRate([[-rho_hi]], [[0.5]], [[-nu]], warn_definite=False),
                                 sys.storage, pairs)
        assert theta * rho_hi == pytest.approx(reg.rho_max_curvature(nu), rel=1e-8)
    print("\nACCEPTANCE 3: PASS — region intercepts exact to 1e-9; 20/20 "
          "interior points certify, 20/20 exterior points fail")


def test_acceptance_4_saddle_flow_disturbance_gain():
    from eidlab.gains import ahu_gain

    A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    sys = catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "A": A.tolist(), "b": [1.0, -0.5],
    })
    bound = ahu_gain(np.eye(4), A, np.zeros((2, 2)))
    assert bound.gamma == pytest.approx(1.0)
    emap = EquilibriumMap(sys)
    xbar = emap.solve_equilibrium(np.zeros(4), np.zeros(6))
    sigs = gaussian_disturbances(50, 4, 300, seed=0, scale=0.5)
    # white noise barely excites the flow; a constant push along null(A)
    # nearly attains the bound, so a bound too small would fail here
    push = np.tile(0.5 * np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0), (300, 1))
    rep = empirical_gain(sys, xbar, sigs + [push], horizon=8.0, dt=5e-3)
    assert 0.8 <= rep["gain"] <= 1.01

    sys2 = catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "A": np.eye(4).tolist(), "b": [1.0, -0.5, 0.0, 0.0],
        "K": np.eye(4).tolist(),
    })
    bound2 = ahu_gain(np.eye(4), np.eye(4), np.eye(4))
    assert bound2.gamma == pytest.approx(0.5)
    xbar2 = EquilibriumMap(sys2).solve_equilibrium(np.zeros(4), np.zeros(8))
    rep2 = empirical_gain(sys2, xbar2, sigs, horizon=8.0, dt=5e-3)
    assert rep2["gain"] <= 0.505
    print(f"\nACCEPTANCE 4: PASS — empirical gains {rep['gain']:.3f} <= 1 and "
          f"{rep2['gain']:.3f} <= 0.5 match the certified bounds")


def test_acceptance_5_gradient_step_size_boundary_and_gain():
    mu = 1.0
    for alpha in (0.5, 1.0, 1.9):
        sys = catalog_build("dt_gradient", {"mu": mu, "alpha": alpha})
        traj = simulate_dt(sys, np.array([1.0]), steps=150)
        assert abs(traj.states[-1, 0]) < 1e-3
    for alpha in (2.1, 3.0):
        sys = catalog_build("dt_gradient", {"mu": mu, "alpha": alpha})
        traj = simulate_dt(sys, np.array([1.0]), steps=150)
        assert abs(traj.states[-1, 0]) > 1e3

    for alpha in (0.1, 0.5, 1.0):
        sys = catalog_build("dt_gradient", {"mu": mu, "alpha": alpha})
        sigs = gaussian_disturbances(20, 1, 200, seed=2, support=0.3)
        rep = empirical_gain(sys, np.zeros(1), sigs)
        assert rep["gain"] <= dt_gradient_gain(mu, alpha).gamma

    assert dt_gradient_gain(1.0, 1e-6).gamma == pytest.approx(1.0, abs=1e-3)
    print("\nACCEPTANCE 5: PASS — contraction exactly below the 2/mu step "
          "limit, divergence above it, empirical gains within the bound")


def test_acceptance_6_swing_equation_absolute_stability():
    sys = catalog_build("smib", SMIB_PARAMS)
    psi = StaticNonlinearity(np.tanh, m=1)
    rng = np.random.default_rng(0)
    probes = [(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)) for _ in range(300)]
    assert check_sector(psi, SectorBounds.scalar(0.0, 1.0), probes)["holds"]

    region = (np.array([-1.2, -0.5]), np.array([1.2, 0.5]))
    pairs = sample_pairs(sys, region, count=400, seed=3)
    res = circle_criterion(sys, SectorBounds.scalar(0.0, 1.0), sys.storage,
                           pairs)
    assert res["passed"]
    assert res["certified_eps"] >= 0.3

    bad = circle_criterion(sys, SectorBounds.scalar(-1.5, 1.0), sys.storage,
                           pairs)
    assert not bad["passed"]

    cl = static_feedback(sys, np.tanh)
    xbar = EquilibriumMap(sys).project(np.array([np.arcsin(0.2), 0.0]))
    assert np.linalg.norm(cl.f(xbar)) < 1e-10
    rep = stability_experiment(cl, xbar, np.zeros(1), radius=0.3, probes=32,
                               horizon=30.0, dt=2e-3)
    assert rep["converged_fraction"] == 1.0
    print(f"\nACCEPTANCE 6: PASS — sector verified, certified strictness "
          f"{res['certified_eps']:.3f} >= 0.3, destabilizing sector rejected, "
          f"32/32 probes converge under tanh feedback")


def test_acceptance_7_gain_formulas_match_search_oracle():
    inv = (np.sqrt(5.0) - 1.0) / 2.0

    def golden(fun, lo, hi, iters=300):
        a, b = lo, hi
        c, d = b - inv * (b - a), a + inv * (b - a)
        for _ in range(iters):
            if fun(c) < fun(d):
                b, d = d, c
                c = b - inv * (b - a)
            else:
                a, c = c, d
                d = a + inv * (b - a)
        return fun(0.5 * (a + b))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(0.0, 4.0)
        curve = lambda d: (b + d / 2.0) / (a - 1.0 / (2.0 * d))
        g_min = golden(curve, 1.0 / (2.0 * a) * 1.0001, 1.0 / (2.0 * a) + 60.0)
        closed = ifp_osp_gain(a, b).gamma ** 2
        worst = max(worst, abs(closed - g_min) / g_min)
        mu, alpha = a, 2.0 * b if b > 0 else 0.1
        curve2 = lambda d: (alpha / 2.0 + d / 2.0) / (mu - 1.0 / (2.0 * d))
        g2 = golden(curve2, 1.0 / (2.0 * mu) * 1.0001, 1.0 / (2.0 * mu) + 60.0)
        worst = max(worst,
                    abs(dt_gradient_gain(mu, alpha).gamma ** 2 - g2) / g2)
    assert worst < 1e-10
    assert ifp_osp_gain(1.0, 0.0).gamma == 1.0
    print(f"\nACCEPTANCE 7: PASS — closed-form gains match golden-section "
          f"search on 100 random instances (worst rel err {worst:.1e})")


def test_acceptance_8_composed_loop_certificate():
    mu, L, alpha, lam = 1.0, 1.5, 0.8, 0.7
    w1 = SupplyRate(np.zeros((1, 1)), 0.5 * np.eye(1), (alpha / 2) * np.eye(1),
                    warn_definite=False)
    w2 = SupplyRate(-(lam / L) * np.eye(1), 0.5 * np.eye(1),
                    -(1 - lam) * mu * np.eye(1), warn_definite=False)
    comp = compose_supply(w1, w2, 1.0)
    expected = -np.array([[(1 - lam) * mu, 0.0], [0.0, lam / L - alpha / 2]])
    assert np.array_equal(comp.Q_cl, expected)
    assert comp.lambda_max_q < 0.0  # alpha < 2 lam / L

    phi = SeparableConvex([1.0], [0.5])  # mu = 1, Lipschitz 1.5
    assert phi.mu == mu and phi.lipschitz == L
    w_cl = comp.as_supply()
    P = np.array([[1.0 / (2.0 * alpha)]])
    rng = np.random.default_rng(8)
    steps = 40
    for _ in range(100):
        vbar = rng.uniform(-0.5, 0.5, size=2)
        # fixed point: grad phi(vbar2 + x) = vbar1
        from eidlab.numerics import newton_root
        xb = newton_root(lambda x: phi.grad(vbar[1:] + x) - vbar[:1],
                         np.zeros(1))
        ybar = np.array([xb[0], vbar[0]])
        v = vbar[None, :] + 0.3 * rng.normal(size=(steps, 2))
        x = xb + rng.uniform(-1.0, 1.0, size=1)
        states = np.empty((steps + 1, 1))
        outputs = np.empty((steps + 1, 2))
        inputs = np.empty((steps + 1, 2))
        states[0] = x
        for k in range(steps):
            y2 = phi.grad(v[k, 1:] + x)
            inputs[k] = v[k]
            outputs[k] = [x[0], y2[0]]
            x = x + alpha * (v[k, :1] - y2)
            states[k + 1] = x
        inputs[-1] = inputs[-2]
        outputs[-1] = [x[0], phi.grad(inputs[-1, 1:] + x)[0]]
        traj = Trajectory(times=np.arange(steps + 1, dtype=float),
                          states=states, inputs=inputs, outputs=outputs,
                          dt=None)
        audit = audit_dissipation(traj, P, w_cl, vbar, ybar, xbar=xb,
                                  tol=1e-9)
        assert audit.passed
    print("\nACCEPTANCE 8: PASS — composed supply matches the closed form "
          "and certifies 100 random gradient-loop trajectories")


def test_acceptance_9_property_sweeps():
    # Bregman divergence invariants on a strongly convex generator
    gen = StorageGenerator.quadratic(np.diag([1.0, 3.0, 0.5]))
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        x, xb = rng.normal(size=(2, 3))
        d = bregman(gen, xb, x)
        assert d >= -1e-12
        assert bregman(gen, x, x) == pytest.approx(0.0, abs=1e-14)

    # dissipation-factor differences telescope over state triples
    ph = catalog_build("port_hamiltonian", PH_PARAMS)
    w = SupplyRate.passivity(2)
    emap = EquilibriumMap(ph)
    anchor = emap.ku_ky(emap.project(np.zeros(4)))
    cache = {}

    def b_of(x):
        key = x.tobytes()
        if key not in cache:
            cache[key] = factor_dissipation(ph, w, ph.storage,
                                            (x, anchor)).b_difference
        return cache[key]

    for _ in range(1000):
        x1, x2, x3 = rng.uniform(-1, 1, size=(3, 4))
        cyc = ((b_of(x1) - b_of(x2)) + (b_of(x2) - b_of(x3))
               + (b_of(x3) - b_of(x1)))
        assert np.allclose(cyc, 0.0, atol=1e-12)

    # integrator accuracy: observed order of the one-step method
    sol = 1.0 / (1.0 - 0.5)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        x, t = np.array([1.0]), 0.0
        while t < 0.5 - 1e-12:
            x = rk4_step(lambda z, u: z**2, x, None, dt)
            t += dt
        errs.append(abs(x[0] - sol))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8

    # definiteness classification against a quadratic-form sampling oracle
    for k in range(200):
        B = rng.normal(size=(3, 3))
        if k % 3 == 0:
            A = B @ B.T + 0.1 * np.eye(3)
        elif k % 3 == 1:
            A = -(B @ B.T) - 0.1 * np.eye(3)
        else:
            A = 0.5 * (B + B.T)
        vecs = rng.normal(size=(2000, 3))
        vecs = np.vstack([vecs, np.linalg.eigh(A)[1].T])
        vals = (np.einsum("ij,jk,ik->i", vecs, A, vecs)
                / np.einsum("ij,ij->i", vecs, vecs))
        has_pos, has_neg = np.any(vals > 1e-8), np.any(vals < -1e-8)
        if has_pos and has_neg:
            oracle = "Indefinite"
        elif has_pos:
            oracle = "PD" if np.all(vals > 1e-8) else "PSD"
        elif has_neg:
            oracle = "ND" if np.all(vals < -1e-8) else "NSD"
        else:
            oracle = "PSD"
        assert psd_check(A).value == oracle

    # pure-delay relation: every equilibrium pins the input to zero, so the
    # pairwise passivity form is identically zero
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    samples = EquilibriumMap(dti).sample_io_relation(
        (-np.ones(2), np.ones(2)), 30, seed=9)
    rep = check_relation_dissipativity(samples, SupplyRate.passivity(2))
    assert rep["monotone"]
    assert rep["min_pair_value"] == 0.0
    print("\nACCEPTANCE 9: PASS — 10k Bregman probes, 1k factor triples, "
          f"integrator order {min(orders):.2f}, 200 definiteness oracles, "
          "degenerate relation exactly zero")
