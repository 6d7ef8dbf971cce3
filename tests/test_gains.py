import warnings

import numpy as np
import pytest

from eidlab.errors import DomainError, NonFiniteError, RankDeficientError, RhatNotPsdError
from eidlab.gains import (
    FeasibleRegion,
    ahu_gain,
    dt_gradient_gain,
    empirical_gain,
    gamma_completion,
    gaussian_disturbances,
    ifp_osp_gain,
)
from eidlab.equilibria import EquilibriumMap
from eidlab.sim import simulate_ct, simulate_dt
from eidlab.systems import catalog_build


# ---------------------------------------------------------------------------
# disturbance sets the tests build on top of gaussian_disturbances


def sinusoid_disturbances(count: int, m: int, steps: int, dt: float = 1.0,
                          seed: int = 0, scale: float = 1.0):
    """Random sinusoids, active on the first 60% of the horizon as for
    ``gaussian_disturbances``."""
    active = max(1, int(0.6 * steps))
    freq, phase = np.random.default_rng(seed).uniform(
        [[0.05], [0.0]], [[2.0], [2.0 * np.pi]], size=(count, 2, m)).transpose(1, 0, 2)
    t = np.arange(active) * dt
    sig = np.zeros((count, steps, m))
    sig[:, :active] = scale * np.sin(t[:, None] * freq[:, None] + phase[:, None])
    return list(sig)


def power_iterate_disturbance(sys, xbar, v0, rounds: int = 5, dt: float = 1e-3):
    """Refine a disturbance toward the worst case by output alignment.

    Re-scales the (time-reversed) output deviation into the next input; an
    adjoint-free heuristic that tightens the empirical lower bound.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    ybar = sys.h(xbar)
    v = np.atleast_2d(np.asarray(v0, dtype=float)).copy()
    energy = float(np.sum(v**2))
    if energy <= 0:
        raise ValueError("seed disturbance must have positive energy")
    for _ in range(rounds):
        traj = (simulate_dt(sys, xbar, v, steps=len(v)) if sys.discrete
                else simulate_ct(sys, xbar, v, T=len(v) * dt, dt=dt))
        dy = traj.outputs[:-1] - ybar
        if dy.shape[1] != v.shape[1]:
            break  # non-square channel; keep the current iterate
        cand = dy[::-1]
        norm = np.linalg.norm(cand)
        if norm <= 1e-14:
            break
        v = cand * np.sqrt(energy) / norm
    return v


def _golden_min(fun, lo, hi, iters=200):
    """Golden-section minimizer, independent of the closed forms under test."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    for _ in range(iters):
        if fun(c) < fun(d):
            b, d = d, c
            c = b - inv * (b - a)
        else:
            a, c = c, d
            d = a + inv * (b - a)
    x = 0.5 * (a + b)
    return x, fun(x)


def _gamma_curve(a, b):
    return lambda d: (b + d / 2.0) / (a - 1.0 / (2.0 * d))


# ---------------------------------------------------------------------------
# completion closed forms


def test_gamma_completion_matches_golden_section():
    rng = np.random.default_rng(0)
    for _ in range(40):
        a = rng.uniform(0.2, 5.0)
        b = rng.uniform(0.0, 5.0)
        gamma_sq, delta_star = gamma_completion(a, b)
        lo = 1.0 / (2.0 * a) * 1.0001
        d_star, g_min = _golden_min(_gamma_curve(a, b), lo, lo + 50.0)
        assert gamma_sq == pytest.approx(g_min, rel=1e-10)
        assert delta_star == pytest.approx(d_star, rel=1e-6)


def test_ifp_osp_gain_known_values():
    assert ifp_osp_gain(1.0, 0.0).gamma == 1.0
    assert ifp_osp_gain(2.0, 0.0).gamma == pytest.approx(0.5)
    g = ifp_osp_gain(1.0, 1.0)
    assert g.gamma**2 == pytest.approx(g.parameters["gamma_sq"])
    assert g.parameters["delta_star"] == pytest.approx((np.sqrt(5.0) + 1.0) / 2.0)


def test_dt_gradient_gain_monotone_in_step_size():
    gammas = [dt_gradient_gain(1.0, a).gamma for a in (0.1, 0.5, 1.0, 1.9)]
    assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_dt_gradient_gain_small_step_asymptote():
    assert dt_gradient_gain(1.0, 1e-6).gamma == pytest.approx(1.0, abs=1e-3)
    assert dt_gradient_gain(2.0, 1e-6).gamma == pytest.approx(0.5, abs=1e-3)


def test_gain_domain_errors():
    with pytest.raises(DomainError):
        gamma_completion(0.0, 1.0)
    with pytest.raises(DomainError):
        gamma_completion(1.0, -0.1)
    with pytest.raises(DomainError):
        dt_gradient_gain(1.0, 0.0)
    with pytest.raises(DomainError):
        ifp_osp_gain(-1.0, 0.0)
    # NaN passed the comparisons: gamma_completion returned (nan, nan), and
    # the gains failed later in GainBound without naming the parameter
    for call, name in ((lambda: gamma_completion(np.nan, 0.0), "a"),
                       (lambda: gamma_completion(1.0, np.nan), "b"),
                       (lambda: ifp_osp_gain(np.nan, 0.5), "a"),
                       (lambda: dt_gradient_gain(np.nan, 0.5), "mu"),
                       (lambda: dt_gradient_gain(1.0, np.nan), "alpha")):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            call()


# ---------------------------------------------------------------------------
# saddle-flow gain


def test_ahu_gain_identity_cases():
    A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    assert ahu_gain(np.eye(4), A, np.zeros((2, 2))).gamma == pytest.approx(1.0)
    assert ahu_gain(2.0 * np.eye(4), A, np.zeros((2, 2))).gamma == pytest.approx(0.5)
    assert ahu_gain(np.eye(4), np.eye(4), np.eye(4)).gamma == pytest.approx(0.5)


def test_ahu_gain_regularization_never_hurts():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 4))
    base = ahu_gain(np.eye(4), A, np.zeros((2, 2))).gamma
    for k in (0.1, 1.0, 10.0):
        assert ahu_gain(np.eye(4), A, k * np.eye(2)).gamma <= base + 1e-12


def test_ahu_gain_input_validation():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    with pytest.raises(RankDeficientError):
        ahu_gain(np.eye(2), A, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ahu_gain(np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(RhatNotPsdError, match="K must be positive semidefinite"):
        ahu_gain(np.eye(2), np.eye(2), -np.eye(2))


# ---------------------------------------------------------------------------
# feasible parameter region


def test_region_intercepts():
    r = FeasibleRegion(mu=2.0, g=1.0, j=0.9)
    assert r.nu_intercept == pytest.approx(0.9)
    assert r.rho_intercept_feedthrough == pytest.approx(1.0 / 0.9)
    assert r.rho_intercept_curvature == pytest.approx(2.0 / 2.8)


def test_region_membership_boundary_cases():
    r = FeasibleRegion(mu=2.0, g=1.0, j=0.9)
    assert r.membership(0.0, 0.0)
    assert not r.membership(r.j + 1e-6, 0.0)
    # just inside the curvature cap on the nu = 0 axis
    assert r.membership(0.0, r.rho_intercept_curvature - 1e-6)
    assert not r.membership(0.0, r.rho_intercept_curvature + 1e-3)
    assert not r.membership(0.0, -0.1)


def test_region_curves_consistent_with_membership():
    r = FeasibleRegion(mu=1.5, g=1.2, j=0.7)
    for nu in np.linspace(0.0, r.j * 0.95, 12):
        cap = min(r.rho_max_feedthrough(nu), r.rho_max_curvature(nu))
        if cap > 1e-6:
            assert r.membership(nu, 0.5 * cap)
        assert not r.membership(nu, cap * 1.05 + 1e-6)


def test_region_rejects_nonpositive_parameters():
    with pytest.raises(DomainError):
        FeasibleRegion(mu=0.0, g=1.0, j=1.0)
    with pytest.raises(DomainError):
        FeasibleRegion(mu=1.0, g=1.0, j=-0.5)
    # a NaN parameter built a region with NaN boundaries
    for name in ("mu", "g", "j"):
        with pytest.raises(DomainError, match=f"^{name} must be positive$"):
            FeasibleRegion(**{"mu": 1.0, "g": 1.0, "j": 0.9, name: np.nan})


# ---------------------------------------------------------------------------
# empirical gains


def test_disturbance_generators_shapes_and_support():
    sigs = gaussian_disturbances(3, 2, 100, seed=0, support=0.5)
    assert len(sigs) == 3 and sigs[0].shape == (100, 2)
    assert np.all(sigs[0][50:] == 0.0)
    sins = sinusoid_disturbances(2, 1, 80, dt=0.01, seed=1)
    assert sins[0].shape == (80, 1)
    assert not np.allclose(sins[0], sins[1])


def test_empirical_gain_below_certified_bound_dt_gradient():
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    bound = dt_gradient_gain(1.0, 0.5).gamma
    sigs = gaussian_disturbances(20, 1, 200, seed=2, support=0.3)
    rep = empirical_gain(sys, np.zeros(1), sigs)
    assert 0.0 < rep["gain"] <= bound
    assert rep["n_signals"] == 20


def test_empirical_gain_rejects_empty_set():
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    with pytest.raises(ValueError):
        empirical_gain(sys, np.zeros(1), [])


@pytest.mark.parametrize("params, dt, samples, fragment", [
    # diverges: the states go non-finite within 200 steps of 0.5
    ({"F": [[1e3]], "G": [[1.0]]}, 0.5, 200, "states"),
    # grows to about 1e188 in 20 steps, so the output energy overflows
    ({"F": [[1e3]], "G": [[1.0]]}, 0.5, 20, "norms"),
    ({"F": [[-1.0]], "G": [[1.0]], "H": [[1e200]]}, 0.01, 20, "norms"),
], ids=["diverges", "grows", "output_overflows"])
def test_empirical_gain_reports_non_finite_energies_without_warnings(params, dt, samples,
                                                                       fragment):
    # both energies used to be formed first and outside any errstate, so an
    # overflow in the square warned before the NonFiniteError
    lti = catalog_build("lti", params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=fragment):
            empirical_gain(lti, np.zeros(1), [np.ones((samples, 1))], dt=dt)


def test_empirical_gain_keeps_a_nan_ratio():
    # input and output energies both overflow, so their ratio is NaN; it used
    # to lose to the running maximum, and the gain read 0
    lti = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]]})
    with pytest.raises(NonFiniteError, match="norms"):
        empirical_gain(lti, np.zeros(1), [np.full((20, 1), 1e160)], dt=0.01)


def test_power_iteration_does_not_decrease_gain():
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    v0 = gaussian_disturbances(1, 1, 120, seed=3, support=0.4)[0]
    base = empirical_gain(sys, np.zeros(1), [v0])["gain"]
    v = power_iterate_disturbance(sys, np.zeros(1), v0, rounds=4)
    refined = empirical_gain(sys, np.zeros(1), [v])["gain"]
    assert refined >= base - 1e-9


def test_dt_power_iteration_keeps_the_signal_length():
    # the DT trajectory has one output row more than the signal; feeding it
    # back whole lengthened the signal by one row per round
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    v = power_iterate_disturbance(sys, np.zeros(1), np.ones((50, 1)), rounds=5)
    assert v.shape == (50, 1)
    assert np.sum(v**2) == pytest.approx(50.0, rel=1e-12)


def test_dt_empirical_gain_counts_each_input_once():
    # x+ = x/2 + v/2 from 0 under v = 1 for 3 steps: y = 0, 1/2, 3/4, 7/8,
    # so ||y||² = 1.578125 against ||v||² = 3 (y_3 = h(x_3) answers the
    # last sample and is counted)
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    rep = empirical_gain(sys, np.zeros(1), [np.ones((3, 1))])
    assert rep["gain"] == pytest.approx(np.sqrt(1.578125 / 3.0), rel=1e-12)
    # y_k = v_k: one unit step gives ||y||² = ||v||² = 1, so the gain is 1;
    # the zero input after the signal adds nothing to y through J
    sys = catalog_build("lti", {"F": [[0.0]], "G": [[1.0]], "H": [[0.0]], "J": [[1.0]],
                                "discrete": True})
    rep = empirical_gain(sys, np.zeros(1), [np.ones((1, 1))])
    assert rep["gain"] == pytest.approx(1.0, rel=1e-12)


def _ahu_system():
    sys = catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "A": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], "b": [1.0, -0.5],
    })
    return sys, EquilibriumMap(sys).solve_equilibrium(np.zeros(4), np.zeros(6))


def _per_signal_gain(sys, xbar, sigs, dt=None, horizon=None):
    """Reference: one simulation per signal, the signal passed as per-step
    input values."""
    ybar = sys.h(xbar)
    best = 0.0
    for v in sigs:
        if sys.discrete:
            traj = simulate_dt(sys, xbar, v, steps=v.shape[0])
            y = traj.outputs.copy()
            y[-1] = sys.h(traj.states[-1])  # no input is applied after the signal
            num = np.sqrt(np.sum((y - ybar) ** 2))
            den = np.sqrt(np.sum(v**2))
        else:
            T = horizon if horizon is not None else v.shape[0] * dt
            traj = simulate_ct(sys, xbar, v, T=T, dt=dt)
            num = np.sqrt(np.trapezoid(np.sum((traj.outputs - ybar) ** 2, axis=1), dx=dt))
            # each input row is held over one step
            den = np.sqrt(dt * np.sum(traj.inputs**2))
        best = max(best, num / den)
    return best


def test_empirical_gain_applies_each_signal_sample_once():
    # at dt = 0.04, int(t / dt) floors k*dt/dt to k - 1 at 7 of 200 steps,
    # which repeats one sample and skips the next
    sys, xbar = _ahu_system()
    sigs = gaussian_disturbances(4, 4, 200, seed=5, scale=0.5)
    rep = empirical_gain(sys, xbar, sigs, dt=0.04)
    assert rep["gain"] == pytest.approx(_per_signal_gain(sys, xbar, sigs, dt=0.04),
                                        rel=1e-12, abs=1e-12)


def test_ct_input_energy_counts_each_held_sample_once():
    # a zero-order hold applies u_k over one step, so the input energy is
    # dt Σ|u_k|² = 1.51388; the trapezoid rule read 1.50539 (dt u_0²/2 short)
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9})
    v = gaussian_disturbances(1, 1, 50, seed=4)[0]
    traj = simulate_ct(sys, np.zeros((1, 1)), v[None], T=2.0, dt=0.04)
    ybar = sys.h(np.zeros(1))
    num, den = (np.sqrt(traj.per_step(g).sum(axis=-1)) for g in (
        lambda u, y: np.sum((y - ybar) ** 2, axis=-1), lambda u, y: np.sum(u**2, axis=-1)))
    assert den[0] ** 2 == pytest.approx(0.04 * np.sum(v**2), rel=1e-12)
    assert den[0] ** 2 == pytest.approx(1.51388, abs=5e-6)
    rep = empirical_gain(sys, np.zeros(1), [v], dt=0.04)
    assert rep["gain"] == pytest.approx(num[0] / den[0], rel=1e-12)


def test_batched_empirical_gain_matches_per_signal_runs():
    sys, xbar = _ahu_system()
    sigs = (gaussian_disturbances(3, 4, 150, seed=6, scale=0.5)
            + sinusoid_disturbances(3, 4, 100, dt=0.02, seed=7, scale=0.5))
    for horizon in (None, 4.0):
        rep = empirical_gain(sys, xbar, sigs, horizon=horizon, dt=0.02)
        ref = _per_signal_gain(sys, xbar, sigs, dt=0.02, horizon=horizon)
        assert rep["gain"] == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert rep["n_signals"] == 6

    dtg = catalog_build("dt_gradient", {"mu": 1.0, "c": 0.5, "alpha": 0.5})
    sigs = (gaussian_disturbances(5, 1, 200, seed=2, support=0.3)
            + gaussian_disturbances(5, 1, 80, seed=3, support=0.5, scale=2.0))
    rep = empirical_gain(dtg, np.zeros(1), sigs)
    assert rep["gain"] == pytest.approx(_per_signal_gain(dtg, np.zeros(1), sigs),
                                        rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# an independent L2-gain oracle for LTI systems


def _sigma_max(F, G, H, J, points):
    """Largest singular value of H (zI - F)^-1 G + J over the points z."""
    eye = np.eye(F.shape[0])
    return max(np.linalg.svd(H @ np.linalg.solve(z * eye - F, G) + J, compute_uv=False)[0]
               for z in points)


def _hinf_ct(F, G, H, J, rtol=1e-9):
    """H-infinity norm of a Hurwitz CT system by bisection on gamma: gamma is
    above the norm iff it exceeds σ_max(J) and the Hamiltonian matrix below
    has no eigenvalue on the imaginary axis (Boyd and Balakrishnan 1990)."""
    def crosses(gamma):
        Ri = np.linalg.inv(gamma**2 * np.eye(J.shape[1]) - J.T @ J)
        A = F + G @ Ri @ J.T @ H
        M = np.block([[A, G @ Ri @ G.T],
                      [-H.T @ (np.eye(J.shape[0]) + J @ Ri @ J.T) @ H, -A.T]])
        lam = np.linalg.eigvals(M)
        return bool(np.any(np.abs(lam.real) <= 1e-9 * (1.0 + np.abs(lam))))

    lo = max(np.linalg.svd(J, compute_uv=False)[0], _sigma_max(F, G, H, J, [0.0]))
    hi = 2.0 * lo + 1.0
    while crosses(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def _hinf_dt(F, G, H, J, points=20001):
    """ell2 gain of a Schur-stable DT system on a dense unit-circle grid."""
    return _sigma_max(F, G, H, J, np.exp(1j * np.linspace(0.0, np.pi, points)))


def _linear_parts(sys):
    """(F, G, H, J) of a system whose f and h are affine."""
    eye, zero = np.eye(sys.n), np.zeros((1, sys.n))
    return (sys.f(eye) - sys.f(zero)).T, sys.G, (sys.h(eye) - sys.h(zero)).T, sys.J


def test_lti_gain_oracle_agrees_with_a_frequency_grid():
    F, G, H, J = (np.array([[0.0, 1.0], [-2.0, -0.4]]), np.array([[0.0], [1.0]]),
                  np.array([[1.0, 0.0]]), np.array([[0.3]]))
    oracle = _hinf_ct(F, G, H, J)
    grid = _sigma_max(F, G, H, J, 1j * np.linspace(0.0, 20.0, 20001))
    assert grid <= oracle * (1.0 + 1e-8)
    assert grid == pytest.approx(oracle, rel=1e-4)


@pytest.mark.parametrize("discrete", [False, True], ids=["ct", "dt"])
def test_empirical_gain_stays_below_the_lti_oracle(discrete):
    # a lightly damped resonance with feedthrough: white noise barely
    # excites it, the power-iterated signal comes close
    if discrete:
        params = {"F": [[0.5, 0.4], [-0.4, 0.6]], "G": [[0.0], [1.0]], "H": [[1.0, 0.5]],
                  "J": [[0.7]], "discrete": True}
        sigs, kw = gaussian_disturbances(8, 1, 200, seed=2, support=1.0), {}
    else:
        params = {"F": [[0.0, 1.0], [-2.0, -0.4]], "G": [[0.0], [1.0]], "H": [[1.0, 0.0]],
                  "J": [[0.3]]}
        sigs, kw = gaussian_disturbances(8, 1, 400, seed=1), {"dt": 0.05}
    sys = catalog_build("lti", params)
    oracle = (_hinf_dt if discrete else _hinf_ct)(*_linear_parts(sys))
    v = power_iterate_disturbance(sys, np.zeros(2), sigs[0], rounds=8, **kw)
    noise = empirical_gain(sys, np.zeros(2), sigs, **kw)["gain"]
    refined = empirical_gain(sys, np.zeros(2), [v], **kw)["gain"]
    assert 0.0 < noise <= 1.01 * oracle
    assert 0.8 * oracle <= refined <= 1.01 * oracle


def test_closed_form_gains_bound_the_lti_oracle():
    # quadratic phi makes both families LTI; the closed forms are upper bounds
    dtg = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    assert dt_gradient_gain(1.0, 0.5).gamma >= _hinf_dt(*_linear_parts(dtg)) * (1.0 - 1e-6)
    sys, _ = _ahu_system()
    bound = ahu_gain(np.eye(4), sys.meta["A"], sys.meta["K"]).gamma
    assert bound >= _hinf_ct(*_linear_parts(sys)) * (1.0 - 1e-6)


def test_ifp_osp_gain_is_tight_on_a_linear_gradient_flow():
    # quadratic phi (c = 0) makes gradient_ff LTI: x' = -2x + u, y = x + 0.9u,
    # whose gain 1/2 + 0.9 = 1.4 is reached at ω = 0.  At nu = 0 the
    # curvature budget allows rho* = 5/7, and the completion bound 1/rho* is
    # that gain exactly
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "c": 0.0, "n": 1})
    rho = FeasibleRegion(2.0, 1.0, 0.9).rho_max_curvature(0.0)
    assert rho == pytest.approx(5.0 / 7.0, rel=1e-15)
    gamma = ifp_osp_gain(rho, 0.0).gamma
    assert gamma == pytest.approx(1.4, rel=1e-12)
    assert gamma == pytest.approx(_hinf_ct(*_linear_parts(sys)), rel=1e-6)
