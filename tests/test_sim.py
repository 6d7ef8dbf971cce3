import warnings

import numpy as np
import pytest

from eidlab import numerics
from eidlab.certify import BregmanStorage
from eidlab.equilibria import EquilibriumMap
from eidlab.errors import DomainError, NonFiniteError
from eidlab.sim import (
    DT_AUDIT_TOL,
    audit_dissipation,
    ct_audit_tol,
    simulate_ct,
    simulate_dt,
    sphere_probes,
    stability_experiment,
)
from eidlab.interconnect import static_feedback
from eidlab.systems import (CtSystem, DtSystem, StorageGenerator, SupplyRate, _Affine,
                            catalog_build)


# ---------------------------------------------------------------------------
# simulation accuracy


def test_ct_linear_decay_accuracy():
    sys = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]]})
    traj = simulate_ct(sys, np.array([1.0]), T=1.0, dt=1e-3)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-6
    assert len(traj) == 1001
    assert traj.outputs.shape == (1001, 1)


def test_ct_equilibrium_is_invariant():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    emap = EquilibriumMap(sys)
    xbar = emap.project(np.array([np.arcsin(0.2), 0.0]))
    traj = simulate_ct(sys, xbar, u=lambda t: np.zeros(1), T=10.0, dt=1e-3)
    assert np.max(np.abs(traj.states - xbar[None, :])) < 1e-8


def test_ct_harmonic_energy_conservation():
    # undamped loop x1' = -x2, x2' = x1 driven through the input channel
    sys = catalog_build("lti", {"F": [[0.0, -1.0], [1.0, 0.0]],
                                "G": [[1.0], [0.0]], "H": [[1.0, 0.0]]})
    traj = simulate_ct(sys, np.array([1.0, 0.0]), T=20.0, dt=1e-3)
    energy = np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(energy - energy[0])) < 1e-10


def test_dt_gradient_geometric_contraction():
    mu, alpha = 1.0, 0.5
    sys = catalog_build("dt_gradient", {"mu": mu, "alpha": alpha})
    traj = simulate_dt(sys, np.array([2.0]), steps=20)
    ratios = traj.states[1:, 0] / traj.states[:-1, 0]
    assert np.allclose(ratios, 1.0 - alpha * mu, atol=1e-12)


def test_dt_gradient_divergence_beyond_step_limit():
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 3.0})
    traj = simulate_dt(sys, np.array([1.0]), steps=30)
    assert abs(traj.states[-1, 0]) > 1e3


def test_dt_constant_input_shifts_equilibrium():
    mu, alpha, v = 1.0, 0.5, 0.7
    sys = catalog_build("dt_gradient", {"mu": mu, "alpha": alpha})
    u = np.full((400, 1), v)
    traj = simulate_dt(sys, np.zeros(1), u, steps=400)
    # fixed point solves grad phi(x) = v, so x = v / mu for the quadratic
    assert traj.states[-1, 0] == pytest.approx(v / mu, abs=1e-9)


@pytest.mark.parametrize("dt, T", [(0.0, 1.0), (np.nan, 1.0), (0.01, np.nan), (0.01, -1.0),
                                   (0.01, np.inf), (np.inf, 1.0)])
def test_ct_step_and_horizon_checked(dt, T):
    # a NaN dt or T used to escape as a plain ValueError from int(round(T / dt)),
    # and T = inf as an OverflowError
    sys = catalog_build("second_order", {"mu": 1.0})
    with pytest.raises(DomainError, match="need finite dt > 0 and T > 0"):
        simulate_ct(sys, np.zeros(2), np.zeros(1), T=T, dt=dt)


def test_dt_input_length_checked():
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    with pytest.raises(ValueError):
        simulate_dt(sys, np.zeros(1), np.zeros((3, 1)), steps=10)


def test_trajectory_csv(tmp_path):
    sys = catalog_build("second_order", {"mu": 1.0})
    traj = simulate_ct(sys, np.zeros(2), T=0.01, dt=1e-3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,u_1,y_1"
    assert len(lines) == len(traj) + 1
    # every sample has a row; the final one has no input of its own
    assert lines[-2].split(",")[3] == "0.0"
    assert lines[-1].split(",")[3] == ""


# ---------------------------------------------------------------------------
# the trajectory record


def _gradient_ff_with_h(shapes):
    """gradient_ff (J = 0.9) with an h that records the shape of each call."""
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.5, "j": 0.9})

    def h(x):
        shapes.append(np.shape(x))
        return 1.5 * np.atleast_1d(x)

    return CtSystem(sys.f, h, sys.G, J=sys.J)


def test_outputs_use_the_input_held_at_each_sample():
    sys = _gradient_ff_with_h([])
    v = np.random.default_rng(5).normal(size=(20, 1))
    for x0, u in ((np.array([0.3]), v), (np.array([[0.3], [-0.2]]), np.stack([v, -v]))):
        traj = simulate_ct(sys, x0, u, T=0.2, dt=0.01)
        X, U, Y = traj.states, traj.inputs, traj.outputs
        # y_k = h(x_k) + J u_k on the steps, and u_{N-1} still held at t_N
        np.testing.assert_allclose(Y[..., :-1, :], 1.5 * X[..., :-1, :] + 0.9 * U,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(Y[..., -1, :], 1.5 * X[..., -1, :] + 0.9 * U[..., -1, :],
                                   rtol=0, atol=1e-15)


def test_outputs_take_one_h_call_on_all_states():
    calls = {}
    for steps in (10, 200):
        shapes = calls[steps] = []
        sys = _gradient_ff_with_h(shapes)
        traj = simulate_ct(sys, np.zeros((3, 1)), np.ones((3, steps, 1)), T=steps * 0.01,
                           dt=0.01)
        # the states reach h as one 2-D stack; the other calls are the stack
        # probes, whose number does not grow with the run
        assert shapes.count((3 * (steps + 1), 1)) == 1
        assert all(len(s) <= 2 for s in shapes)
        assert traj.outputs.shape == (3, steps + 1, 1)
    assert len(calls[10]) == len(calls[200]) <= 6


# ---------------------------------------------------------------------------
# dissipation audits


def test_audit_tolerance_model():
    assert ct_audit_tol(1e-3, 10.0) == pytest.approx(1e-6 + 10.0 * 1e-12 * 10.0)
    assert ct_audit_tol(1e-3, 0.1) == pytest.approx(1e-6 + 10.0 * 1e-12)
    assert DT_AUDIT_TOL == 1e-12


def test_audit_passes_at_equilibrium():
    sys = catalog_build("second_order", {"mu": 1.0})
    emap = EquilibriumMap(sys)
    ubar = np.array([0.5])
    xbar = emap.solve_equilibrium(ubar, np.zeros(2))
    eq = emap.ku_ky(xbar)
    traj = simulate_ct(sys, xbar, u=lambda t: ubar, T=2.0, dt=1e-3)
    storage = BregmanStorage(sys.storage, xbar)
    audit = audit_dissipation(traj, storage, SupplyRate.passivity(1), eq.u, eq.y)
    assert audit.passed and audit.verdict == "pass"
    assert abs(audit.max_violation) < 1e-9


def test_audit_off_equilibrium_passivity():
    sys = catalog_build("second_order", {"mu": 1.0})
    emap = EquilibriumMap(sys)
    ubar = np.array([0.5])
    xbar = emap.solve_equilibrium(ubar, np.zeros(2))
    eq = emap.ku_ky(xbar)
    x0 = xbar + np.array([0.2, -0.1])
    traj = simulate_ct(sys, x0, u=lambda t: ubar + 0.1 * np.sin(3 * t),
                       T=5.0, dt=1e-3)
    storage = BregmanStorage(sys.storage, xbar)
    audit = audit_dissipation(traj, storage, SupplyRate.passivity(1), eq.u, eq.y)
    assert audit.passed
    assert audit.violations.size == len(traj) - 1


def test_audit_holds_each_steps_input_on_a_lossless_system():
    # x1' = x2, x2' = -x1 + u, y = x2 with V = |x|²/2 is lossless: dV/dt = u y.
    # Under a square wave the trapezoid that paired the end of step k with
    # u_{k+1} read a violation of 1.0e-3 at each switch; holding u_k over
    # its whole step leaves only the quadrature error, 7.9e-9
    sys = catalog_build("lti", {"F": [[0.0, 1.0], [-1.0, 0.0]], "G": [[0.0], [1.0]],
                                "H": [[0.0, 1.0]]})
    u = np.where(np.arange(400) // 10 % 2 == 0, 1.0, -1.0)[:, None]
    traj = simulate_ct(sys, np.zeros(2), u, T=4.0, dt=1e-2)
    storage = BregmanStorage(StorageGenerator.quadratic(np.eye(2)), np.zeros(2))
    audit = audit_dissipation(traj, storage, SupplyRate.passivity(1), np.zeros(1), np.zeros(1))
    assert audit.tol == ct_audit_tol(1e-2, 4.0)
    assert audit.passed and audit.max_violation < 1e-7


def test_audit_holds_each_steps_input_through_the_feedthrough():
    # the same lossless system with y = x2 + u/2 is lossless for the supply
    # uᵀy - uᵀu/2; the end of step k must read h(x_{k+1}) + J u_k, not the
    # J u_{k+1} recorded at the next sample, which read 5.0e-3 at each switch
    sys = catalog_build("lti", {"F": [[0.0, 1.0], [-1.0, 0.0]], "G": [[0.0], [1.0]],
                                "H": [[0.0, 1.0]], "J": [[0.5]]})
    u = np.where(np.arange(400) // 10 % 2 == 0, 1.0, -1.0)[:, None]
    traj = simulate_ct(sys, np.zeros(2), u, T=4.0, dt=1e-2)
    np.testing.assert_array_equal(traj.end_outputs, traj.states[1:, 1:] + 0.5 * traj.inputs)
    storage = BregmanStorage(StorageGenerator.quadratic(np.eye(2)), np.zeros(2))
    audit = audit_dissipation(traj, storage, SupplyRate.input_feedforward(0.5, 1),
                              np.zeros(1), np.zeros(1))
    assert audit.passed and audit.max_violation < 1e-7


def test_audit_over_a_nan_output_fails_at_that_step():
    # a non-finite supply is the worst step, so no tolerance passes it
    sys = catalog_build("second_order", {"mu": 1.0})
    emap = EquilibriumMap(sys)
    ubar = np.array([0.5])
    eq = emap.ku_ky(emap.solve_equilibrium(ubar, np.zeros(2)))
    traj = simulate_ct(sys, eq.x + np.array([0.2, -0.1]), u=lambda t: ubar, T=0.5, dt=1e-2)
    storage = BregmanStorage(sys.storage, eq.x)
    assert audit_dissipation(traj, storage, SupplyRate.passivity(1), eq.u, eq.y).passed
    traj.outputs[17] = np.nan
    audit = audit_dissipation(traj, storage, SupplyRate.passivity(1), eq.u, eq.y)
    assert not audit.passed and audit.worst_step == 17
    assert np.isnan(audit.max_violation)


def test_audit_detects_wrong_storage():
    # the unshifted energy difference V(x) - V(xbar) omits the gradient
    # correction and is not a valid storage away from the origin
    sys = catalog_build("second_order", {"mu": 1.0})
    emap = EquilibriumMap(sys)
    ubar = np.array([3.0])
    xbar = emap.solve_equilibrium(ubar, np.zeros(2))
    eq = emap.ku_ky(xbar)
    x0 = xbar + np.array([0.3, 1.5])
    traj = simulate_ct(sys, x0, u=lambda t: ubar, T=2.0, dt=1e-3)
    good = BregmanStorage(sys.storage, xbar)
    bad = lambda x: sys.storage.V(x) - sys.storage.V(xbar)
    w = SupplyRate.passivity(1)
    assert audit_dissipation(traj, good, w, eq.u, eq.y).passed
    audit = audit_dissipation(traj, bad, w, eq.u, eq.y)
    assert not audit.passed
    assert audit.max_violation > 1e-3


def test_audit_evaluates_the_storage_once_on_all_states():
    sys = catalog_build("port_hamiltonian", {
        "J": [[0.0, 1.0], [-1.0, 0.0]], "R": [[0.5, 0.0], [0.0, 0.2]], "G": [[1.0], [0.0]],
        "hamiltonian": {"c": [0.3, 0.1]}})
    shapes = []

    def V(x):
        shapes.append(np.shape(x))
        return sys.storage.V(x)

    gen = StorageGenerator(V=V, grad_V=sys.storage.grad_V)
    eq = EquilibriumMap(sys).ku_ky(np.zeros(2))
    traj = simulate_ct(sys, np.array([0.4, -0.3]), u=eq.u, T=1.0, dt=1e-3)
    audit = audit_dissipation(traj, BregmanStorage(gen, eq.x), SupplyRate.passivity(1),
                              eq.u, eq.y)
    assert audit.passed
    # one stacked call on all 1001 states; the rest are the anchor value and
    # the stack probes, whose number does not grow with the trajectory
    assert shapes.count(traj.states.shape) == 1
    assert len(shapes) <= 10


def test_audit_dt_pointwise_and_matrix_storage():
    mu, alpha = 1.0, 0.5
    sys = catalog_build("dt_gradient", {"mu": mu, "alpha": alpha})
    traj = simulate_dt(sys, np.array([1.5]), steps=100)
    P = np.array([[1.0 / (2.0 * alpha)]])
    # zero-input contraction: the storage decreases every step, so the
    # passivity supply (zero at zero input deviation) upper-bounds it
    w = SupplyRate.passivity(1)
    audit = audit_dissipation(traj, P, w, np.zeros(1), np.zeros(1),
                              xbar=np.zeros(1))
    assert audit.passed


def test_audit_csv(tmp_path):
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    traj = simulate_dt(sys, np.array([1.0]), steps=10)
    audit = audit_dissipation(traj, np.array([[1.0]]), SupplyRate.passivity(1),
                              np.zeros(1), np.zeros(1), xbar=np.zeros(1))
    path = tmp_path / "audit.csv"
    audit.to_csv(path, times=traj.times)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,V,supplied,violation"
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# probes and stability experiments


def test_sphere_probes_deterministic_and_structured():
    p1 = sphere_probes(3, count=16, radius=0.5)
    p2 = sphere_probes(3, count=16, radius=0.5)
    assert np.array_equal(p1, p2)
    assert np.allclose(np.linalg.norm(p1, axis=1), 0.5)
    ring = sphere_probes(2, count=4, radius=1.0)
    assert np.allclose(ring, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)


def test_stability_experiment_converging_and_diverging():
    stable = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    rep = stability_experiment(stable, np.zeros(1), radius=0.3, probes=8,
                               steps=400)
    assert rep["converged_fraction"] == 1.0
    unstable = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 3.0})
    rep = stability_experiment(unstable, np.zeros(1), radius=0.3, probes=8,
                               steps=400)
    assert rep["converged_fraction"] == 0.0
    assert not np.isfinite(rep["max_final_distance"]) or \
        rep["max_final_distance"] > rep["conv_tol"]


def test_stability_experiment_needs_a_probe():
    # probes=0 used to die with ZeroDivisionError
    sys = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    with pytest.raises(ValueError, match="at least one probe"):
        stability_experiment(sys, np.zeros(1), probes=0, steps=10)


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_rejects_nonfinite_trajectories():
    sys = catalog_build("lti", {"F": [[5.0]], "G": [[1.0]], "H": [[1.0]]})
    with pytest.raises(NonFiniteError):
        simulate_ct(sys, np.array([1.0]), T=200.0, dt=0.1)


# ---------------------------------------------------------------------------
# batched simulation


def test_batched_ct_trajectory_layout_and_rows():
    sys = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    rng = np.random.default_rng(1)
    X0 = rng.uniform(-1.0, 1.0, size=(5, 2))
    U = rng.normal(size=(5, 40, 1))
    traj = simulate_ct(sys, X0, U, T=0.5, dt=0.01)  # 50 steps: the last input row is held
    assert traj.times.shape == (51,)
    assert traj.states.shape == (5, 51, 2)
    assert traj.inputs.shape == (5, 50, 1) and traj.outputs.shape == (5, 51, 1)
    assert traj.diverged.shape == (5,) and not traj.diverged.any()
    for i in range(5):
        one = simulate_ct(sys, X0[i], U[i], T=0.5, dt=0.01)
        assert one.diverged is None
        np.testing.assert_allclose(traj.states[i], one.states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.outputs[i], one.outputs, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(traj.inputs[i], one.inputs)
    # the 50 applied inputs: the 40 given rows, then the last one held
    np.testing.assert_array_equal(traj.inputs[:, :40], U)
    np.testing.assert_array_equal(traj.inputs[:, 45], U[:, -1])


def _count_calls(sys):
    """Count the drift evaluations of the RK4 stages, which call the
    callable that ``sys._f.bind`` returns, the ``bind`` calls and the calls
    of ``sys.h``."""
    calls = {"f": 0, "bind": 0, "h": 0}
    bind, h = sys._f.bind, sys.h

    def counted_bind(x):
        calls["bind"] += 1
        f = bind(x)

        def counted_f(z):
            calls["f"] += 1
            return f(z)
        return counted_f

    def counted_h(x):
        calls["h"] += 1
        return h(x)
    sys._f.bind, sys.h = counted_bind, counted_h
    return calls


def test_stacked_rk4_makes_four_f_calls_per_step_and_one_h_call():
    # the drift is bound once per trajectory and the held forcing u_k Gᵀ
    # formed once per step, so each stage is one drift evaluation and one
    # add, with the floats of a loop of rk4_step on rhs
    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    lti = catalog_build("lti", {"F": [[-1.0, 2.0], [0.5, -3.0]], "G": [[1.0], [0.5]],
                                "H": [[1.0, 1.0]], "J": [[0.3]]})
    rng = np.random.default_rng(3)
    X0 = rng.uniform(-0.5, 0.5, size=(6, 2))
    U = rng.normal(size=(6, 25, 1))
    for sys in (lti, smib, static_feedback(smib, np.tanh)):
        calls = _count_calls(sys)
        traj = simulate_ct(sys, X0, U, T=0.5, dt=0.02)
        assert calls == {"f": 4 * 25, "bind": 1, "h": 1}
        x = X0
        for k in range(25):
            x = numerics.rk4_step(sys.rhs, x, U[:, k], 0.02)
            np.testing.assert_array_equal(traj.states[:, k + 1], x)


def test_batched_dt_per_row_constant_and_callable_inputs():
    sys = catalog_build("dt_gradient", {"mu": [1.0, 2.0], "c": 0.5, "alpha": 0.5})
    X0 = np.array([[1.0, -1.0], [0.5, 2.0], [0.0, 0.0]])
    V = np.array([[0.1, 0.2], [-0.3, 0.0], [0.5, 0.5]])
    traj = simulate_dt(sys, X0, V, steps=30)
    assert traj.inputs.shape == (3, 30, 2) and traj.outputs.shape == (3, 31, 2)
    np.testing.assert_array_equal(traj.inputs, np.broadcast_to(V[:, None], (3, 30, 2)))
    by_time = simulate_dt(sys, X0, lambda t: V, steps=30)
    np.testing.assert_array_equal(traj.states, by_time.states)
    for i in range(3):
        one = simulate_dt(sys, X0[i], np.tile(V[i], (30, 1)), steps=30)
        np.testing.assert_allclose(traj.states[i], one.states, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        simulate_dt(sys, X0, np.zeros((3, 10, 2)), steps=30)
    with pytest.raises(ValueError):
        traj.to_csv("unused.csv")
    with pytest.raises(ValueError):
        audit_dissipation(traj, np.eye(2), SupplyRate.passivity(2), np.zeros(2),
                          np.zeros(2), xbar=np.zeros(2))


def test_batched_run_freezes_diverging_rows_and_keeps_going():
    # xdot = -x + x^2: the -1.5 probe converges, +1.5 escapes in finite time
    sys = CtSystem(lambda x: -x + x**2, lambda x: x, [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate_ct(sys, np.array([[-1.5], [1.5]]), T=5.0, dt=1e-2)
        rep = stability_experiment(sys, np.zeros(1), radius=1.5, probes=2, horizon=5.0,
                                   dt=1e-2)
    np.testing.assert_array_equal(traj.diverged, [False, True])
    assert np.all(np.isfinite(traj.states))
    # a frozen row holds its last finite state
    assert traj.states[1, -1, 0] == traj.states[1, -2, 0] > 1e3
    assert abs(traj.states[0, -1, 0]) < 1e-2
    assert rep["converged_fraction"] == 0.5
    assert rep["nonconverged"] == [1] and rep["n_diverged"] == 1
    assert rep["final_distances"][0] < rep["conv_tol"]
    assert rep["final_distances"][1] == np.inf and rep["max_final_distance"] == np.inf
    # one state still raises, as before
    with pytest.raises(NonFiniteError):
        simulate_ct(sys, np.array([1.5]), T=5.0, dt=1e-2)


def _per_probe_distances(sys, xbar, ubar, radius, probes, horizon=20.0, dt=1e-3,
                         steps=2000):
    """Reference: one simulation per probe, as the experiment ran before
    probes were integrated together."""
    out = []
    for d in sphere_probes(sys.n, probes, radius):
        if sys.discrete:
            traj = simulate_dt(sys, xbar + d, np.tile(ubar, (steps, 1)), steps=steps)
        else:
            traj = simulate_ct(sys, xbar + d, lambda t: ubar, T=horizon, dt=dt)
        out.append(np.linalg.norm(traj.states[-1] - xbar))
    return np.array(out)


def test_batched_stability_experiment_matches_per_probe_runs():
    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    loop = static_feedback(smib, np.tanh)
    xbar = EquilibriumMap(smib).project(np.array([np.arcsin(0.2), 0.0]))
    rep = stability_experiment(loop, xbar, np.zeros(1), radius=0.3, probes=8,
                               horizon=2.0, dt=2e-3)
    ref = _per_probe_distances(loop, xbar, np.zeros(1), 0.3, 8, horizon=2.0, dt=2e-3)
    np.testing.assert_allclose(rep["final_distances"], ref, rtol=0, atol=1e-12)

    dtg = catalog_build("dt_gradient", {"mu": [1.0, 2.0], "c": 0.5, "alpha": 0.5})
    eq = EquilibriumMap(dtg).ku_ky(np.array([0.4, -0.2]))
    rep = stability_experiment(dtg, eq.x, eq.u, radius=0.3, probes=16, steps=40)
    ref = _per_probe_distances(dtg, eq.x, eq.u, 0.3, 16, steps=40)
    np.testing.assert_allclose(rep["final_distances"], ref, rtol=0, atol=1e-12)
    assert rep["converged_fraction"] == 1.0 and rep["nonconverged"] == []


# ---------------------------------------------------------------------------
# the drift bound once per trajectory


def _bound_drift_systems():
    """Systems whose drift takes each path of ``_Stacked.bind``: matrix forms,
    a stack-capable callable, the row path of a row-only ``A @ x`` (which is
    wrong on an (n, n) stack) or of a list, and the one-state value wrap of a
    scalar."""
    rng = np.random.default_rng(11)
    A = -np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    B, d = 0.2 * rng.normal(size=(3, 3)), rng.normal(size=3)
    G3 = rng.normal(size=(3, 3))  # dense, m = 3
    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    out = {
        "ct/form": CtSystem(_Affine(A.T, B, d), lambda x: x[..., :2], G3),
        "ct/smib": smib,
        "ct/static_feedback": static_feedback(smib, np.tanh),
        "dt/form": DtSystem(_Affine(0.5 * A.T, B, d), lambda x: x[..., :2], G3),
        "dt/dt_gradient": catalog_build("dt_gradient", {"mu": [1.0, 2.0], "c": 0.5,
                                                        "alpha": 0.5}),
    }
    for cls, scale in ((CtSystem, 1.0), (DtSystem, 0.5)):
        kind = "dt" if cls is DtSystem else "ct"
        out[f"{kind}/row_only"] = cls(lambda x, M=scale * A: M @ x, lambda x: x[:1], G3)
        out[f"{kind}/list"] = cls(lambda x, M=scale * A: list(M @ x), lambda x: x[:1], G3)
        out[f"{kind}/scalar"] = cls(lambda x, s=scale: -s * x[0] + s * np.sin(x[0]) ** 2,
                                    lambda x: x, [[1.0]])
    return out


BOUND_DRIFT_SYSTEMS = sorted(_bound_drift_systems())


def _reference_run(sys, x0, u_at, steps, dt):
    """The per-step reference: ``rk4_step`` on ``sys.rhs``, or ``sys.step``,
    with a diverged row of a stack frozen.  Returns the states, the diverged
    flags, and for one state the step at which it went non-finite."""
    x, states = x0, [x0]
    diverged = np.zeros(x0.shape[:-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            uk = u_at(k)
            nxt = sys.step(x, uk) if sys.discrete else numerics.rk4_step(sys.rhs, x, uk, dt)
            bad = ~np.isfinite(nxt).all(axis=-1)
            if x.ndim == 1 and bad:
                return np.array(states), None, k + 1
            diverged |= bad
            nxt[diverged] = x[diverged]
            x = nxt
            states.append(x)
    return np.stack(states, axis=-2), diverged, None


def _run(sys, x0, u, steps, dt):
    if sys.discrete:
        return simulate_dt(sys, x0, u, steps=steps)
    return simulate_ct(sys, x0, u, T=steps * dt, dt=dt)


def _count_probes(rule):
    """Record each width on which ``rule`` runs its probe."""
    probes, decide = [], rule.maps_stacks

    def counted(k):
        if k not in rule._stacks and k not in rule._rows:
            probes.append(k)
        return decide(k)
    rule.maps_stacks = counted
    return probes


@pytest.mark.parametrize("inputs", ["per_step", "constant"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
@pytest.mark.parametrize("name", BOUND_DRIFT_SYSTEMS)
def test_bound_drift_matches_the_per_step_reference(name, lead, inputs):
    sys = _bound_drift_systems()[name]
    probes = _count_probes(sys._f)
    rng = np.random.default_rng(5)
    steps, dt = 30, 0.02
    x0 = rng.uniform(-0.5, 0.5, size=lead + (sys.n,))
    U = rng.normal(size=lead + (steps, sys.m))
    u = U if inputs == "per_step" else U[..., 0, :]
    traj = _run(sys, x0, u, steps, dt)
    assert len(probes) <= 1
    states, diverged, _ = _reference_run(
        sys, x0, (lambda k: U[..., k, :]) if inputs == "per_step" else (lambda k: u), steps, dt)
    np.testing.assert_array_equal(traj.states, states)
    if lead:
        np.testing.assert_array_equal(traj.diverged, diverged)
    else:
        assert traj.diverged is None


@pytest.mark.parametrize("discrete", [False, True], ids=["ct", "dt"])
@pytest.mark.parametrize("stack_capable", [True, False], ids=["stacks", "rows"])
def test_bound_drift_freezes_and_raises_at_the_reference_step(discrete, stack_capable):
    # xdot = -x + x^2 escapes from 1.5 in finite time; x+ = x^2 overflows from 2
    ct = (lambda x: -x + x**2) if stack_capable else (lambda x: np.array([-x[0] + x[0]**2]))
    dt_f = (lambda x: x**2) if stack_capable else (lambda x: np.array([x[0] ** 2]))
    sys = DtSystem(dt_f, lambda x: x, [[1.0]]) if discrete else CtSystem(ct, lambda x: x, [[1.0]])
    X0 = np.array([[0.5], [2.0 if discrete else 1.5], [-0.5]])
    steps, dt = (20, 1.0) if discrete else (500, 1e-2)
    zero = np.zeros(1)
    traj = _run(sys, X0, None, steps, dt)
    states, diverged, _ = _reference_run(sys, X0, lambda k: zero, steps, dt)
    np.testing.assert_array_equal(diverged, [False, True, False])
    np.testing.assert_array_equal(traj.diverged, diverged)
    np.testing.assert_array_equal(traj.states, states)
    _, _, step = _reference_run(sys, X0[1], lambda k: zero, steps, dt)
    assert step is not None
    with pytest.raises(NonFiniteError, match=f"at step {step}$"):
        _run(sys, X0[1], None, steps, dt)
