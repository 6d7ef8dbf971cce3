import functools
import json
import math
import os

import numpy as np
import pytest

from eidlab import numerics, systems
from eidlab.certify import BregmanStorage, check_sector, sector_supply
from eidlab.equilibria import EquilibriumMap, maximality_conditions
from eidlab.errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    MissingParamError,
    NonSymmetricError,
    RankDeficientError,
    RhatNotPsdError,
    UnknownSystemError,
)
from eidlab.gains import ahu_gain
from eidlab.interconnect import solve_monotone_inclusion
from eidlab.sim import audit_dissipation, ct_audit_tol, simulate_ct, simulate_dt
from eidlab.systems import (
    SectorBounds,
    StorageGenerator,
    SupplyRate,
    catalog_build,
    load_system,
    validate_system,
)


# ---------------------------------------------------------------------------
# supply rates


def test_supply_evaluate_matches_block_form():
    w = SupplyRate([[1.0]], [[0.5]], [[2.0]], warn_definite=False)
    u, y = np.array([0.7]), np.array([-1.3])
    z = np.concatenate([y, u])
    assert w.evaluate(u, y) == pytest.approx(z @ w.block() @ z)


def test_supply_evaluate_stack_matches_rows():
    rng = np.random.default_rng(0)
    Q = rng.normal(size=(2, 2))
    R = rng.normal(size=(3, 3))
    w = SupplyRate(Q + Q.T, rng.normal(size=(2, 3)), R + R.T, warn_definite=False)
    U, Y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    stacked = w.evaluate(U, Y)
    rows = [w.evaluate(u, y) for u, y in zip(U, Y)]
    assert stacked.shape == (40,)
    assert all(type(v) is float for v in rows)
    assert np.allclose(stacked, rows, rtol=0.0, atol=1e-12)


def test_supply_rhat():
    w = SupplyRate(-np.eye(1), 0.5 * np.eye(1), np.zeros((1, 1)), warn_definite=False)
    J = np.array([[1.0]])
    # R + J'S + S'J + J'QJ = 0 + 0.5 + 0.5 - 1 = 0
    assert w.rhat(J) == pytest.approx(np.zeros((1, 1)))


def test_named_supplies():
    m = 2
    wp = SupplyRate.passivity(m)
    assert wp.evaluate(np.ones(m), np.ones(m)) == pytest.approx(2.0)
    wg = SupplyRate.l2_gain(3.0, m, m)
    assert wg.evaluate(np.ones(m), np.zeros(m)) == pytest.approx(18.0)
    wo = SupplyRate.output_strict(0.5, m)
    assert wo.evaluate(np.zeros(m), np.ones(m)) == pytest.approx(-1.0)
    wi = SupplyRate.input_feedforward(0.25, m)
    assert wi.evaluate(np.ones(m), np.zeros(m)) == pytest.approx(-0.5)


def test_supply_warns_on_sign_definite_block():
    with pytest.warns(UserWarning):
        SupplyRate(np.eye(1), np.zeros((1, 1)), np.eye(1))


def test_supply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        SupplyRate(np.eye(2), np.ones((1, 1)), np.eye(1), warn_definite=False)


# ---------------------------------------------------------------------------
# storage generators


def test_quadratic_generator_validation():
    gen = StorageGenerator.quadratic(np.diag([1.0, 4.0]))
    rep = gen.validate((-np.ones(2), np.ones(2)), probes=200, seed=0)
    assert rep["grad_consistent"]
    assert rep["secant_ok"]
    assert gen.mu == pytest.approx(1.0)


def test_validate_catches_wrong_gradient():
    gen = StorageGenerator(
        V=lambda x: float(x[0] ** 2),
        grad_V=lambda x: np.array([x[0]]),  # off by a factor of 2
    )
    rep = gen.validate((np.array([-1.0]), np.array([1.0])), probes=50)
    assert not rep["grad_consistent"]


def _separable_cases():
    """(mu, c, states): a scalar with the scalar state 1.3, and three coordinates."""
    rng = np.random.default_rng(5)
    for mu, c in (([2.0], [0.7]), ([1.0, 3.0, 0.5], [0.3, 0.0, 1.2])):
        states = (rng.uniform(-3.0, 3.0, size=len(mu)), rng.uniform(-3.0, 3.0, size=(9, len(mu))))
        yield np.array(mu), np.array(c), states + ((1.3,) if len(mu) == 1 else ())


def test_quadratic_generator_with_weights_matches_separable_convex():
    # with P = diag(mu), as the catalog builds φ, the generator is the separable
    # Σ ½ mu x² + c log cosh x, summed coordinate by coordinate here
    for mu, c, states in _separable_cases():
        gen = StorageGenerator.quadratic(np.diag(mu), c)
        assert gen.mu == mu.min()
        for x in states:
            xs = np.atleast_1d(x)
            V = np.sum(0.5 * mu * xs**2 + c * (np.logaddexp(xs, -xs) - math.log(2.0)), axis=-1)
            grad = mu * xs + c * np.tanh(xs)
            np.testing.assert_allclose(gen.V(x), V, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gen.grad_V(x), grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gen.grad_V.jac(x), numerics.fd_jacobian(gen.grad_V, xs),
                                       rtol=0, atol=1e-8)


def test_quadratic_generator_with_weights_matches_the_per_row_formula():
    P = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
    c = np.array([0.4, 0.0, 1.1])
    gen = StorageGenerator.quadratic(P, c)
    assert gen.mu == pytest.approx(np.linalg.eigvalsh(P)[0], abs=1e-15)
    X = np.random.default_rng(6).uniform(-3.0, 3.0, size=(8, 3))
    V = [0.5 * x @ P @ x + sum(ci * math.log(math.cosh(xi)) for ci, xi in zip(c, x)) for x in X]
    grad = [P @ x + c * np.tanh(x) for x in X]
    for got, want in ((gen.V(X), V), (gen.grad_V(X), grad), (gen.V(X[0]), V[0]),
                      (gen.grad_V(X[0]), grad[0])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gen.grad_V.jac(X), numerics.fd_jacobian(gen.grad_V, X),
                               rtol=0, atol=1e-8)


def test_separable_convex_overflow_safe():
    # log cosh x = |x| - log 2 to far below one ulp here; cosh itself overflows past 710
    gen = StorageGenerator.quadratic(np.diag([2.0]), [0.7])
    for x in (500.0, 1000.0, np.array([-1000.0])):
        r = abs(float(np.squeeze(x)))
        assert np.isfinite(gen.V(x))
        assert gen.V(x) == pytest.approx(r**2 + 0.7 * (r - math.log(2.0)), rel=1e-15)


def test_quadratic_generator_checks_its_weights():
    with pytest.raises(DimensionMismatchError, match="need 2 storage weights"):
        StorageGenerator.quadratic(np.eye(2), [1.0])
    for c in ([0.5, -0.1], [0.5, np.nan]):
        with pytest.raises(DomainError, match="must be nonnegative"):
            StorageGenerator.quadratic(np.eye(2), c)
    with pytest.raises(DomainError, match="must be nonnegative"):
        catalog_build("port_hamiltonian", {"J": [[0.0, 1.0], [-1.0, 0.0]], "R": np.eye(2),
                                           "G": [[1.0], [0.0]], "hamiltonian": {"c": [0.1, -0.2]}})


# ---------------------------------------------------------------------------
# sector bounds


def test_sector_bounds_properties():
    b = SectorBounds.scalar(-0.5, 1.5)
    assert b.K[0, 0] == pytest.approx(2.0)
    assert b.m == 1


def test_sector_bounds_rejects_degenerate_and_nondiagonal():
    with pytest.raises(ValueError):
        SectorBounds.scalar(1.0, 1.0)
    with pytest.raises(NonSymmetricError):
        SectorBounds(np.zeros((2, 2)), np.array([[1.0, 0.2], [0.2, 1.0]]))


# ---------------------------------------------------------------------------
# catalog


def test_catalog_unknown_family():
    with pytest.raises(UnknownSystemError):
        catalog_build("nope")


def test_catalog_missing_params():
    with pytest.raises(MissingParamError):
        catalog_build("smib", {"M": 1.0})


_PH2 = {"J": [[0.0, 1.0], [-1.0, 0.0]], "R": np.diag([0.5, 0.1]).tolist(), "G": [[1.0], [0.0]]}


@pytest.mark.parametrize("family,params", [
    # each used to build a system of another width, or (second_order) a
    # storage whose V read mu = [1, 3] while grad_V and the drift read mu_0
    ("gradient_ff", {"mu": [1.0, 2.0], "g": 1.0, "j": 0.5, "n": 3}),
    ("dt_gradient", {"mu": [1.0, 2.0], "alpha": 0.1, "n": 5}),
    ("second_order", {"mu": [1.0, 3.0]}),
    # and these raised IndexError
    ("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 0}),
    ("dt_gradient", {"mu": 1.0, "alpha": 0.1, "n": 0}),
    # parameters that do not fit the state: each built a system that failed
    # at its first f call, or raised a numpy ValueError from a matrix
    # product or a broadcast
    pytest.param("lti", {"F": -np.eye(3), "G": [[1.0], [0.0]], "H": [[1.0, 0.0]]}, id="lti/F"),
    pytest.param("port_hamiltonian", {**_PH2, "J": np.zeros((3, 3))}, id="ph/J"),
    pytest.param("port_hamiltonian", {**_PH2, "R": np.eye(3)}, id="ph/R"),
    pytest.param("port_hamiltonian", {**_PH2, "hamiltonian": {"P": np.eye(3)}}, id="ph/P"),
    pytest.param("port_hamiltonian", {**_PH2, "hamiltonian": {"c": [0.1, 0.2, 0.3]}}, id="ph/c"),
    pytest.param("port_hamiltonian", {**_PH2, "d": [0.0, 0.0, 1.0]}, id="ph/d"),
    pytest.param("gradient_ff", {"mu": [1.0, 2.0], "g": 1.0, "j": 0.5, "tau": [1.0, 2.0, 3.0]},
                 id="gradient_ff/tau"),
])
def test_catalog_n_must_fit_mu(family, params):
    with pytest.raises(DimensionMismatchError):
        catalog_build(family, params)


def test_feedthrough_must_match_the_output_width():
    # a 1 x 2 J on a 2-wide h used to build with p = 1 and fail at certify
    I2 = np.eye(2).tolist()
    with pytest.raises(DimensionMismatchError, match="2 x 2"):
        catalog_build("lti", {"F": (-np.eye(2)).tolist(), "G": I2, "H": I2, "J": [[0.0, 0.0]]})
    sys = catalog_build("lti", {"F": (-np.eye(2)).tolist(), "G": I2, "H": [[1.0, 1.0]],
                                "J": [[0.0, 0.5]]})
    assert (sys.p, sys.m) == (1, 2)


def test_empty_integrator_is_an_error():
    # n = 0 used to raise IndexError from the feedthrough probe
    with pytest.raises(ValueError):
        catalog_build("dt_integrator", {"alpha": 0.5, "n": 0})


_AHU = {"mu": 1.0, "A": [[1.0, 1.0]], "b": [1.0]}


@pytest.mark.parametrize("family, params, key", [
    # dt_integrator read int(n): 2.5 built n = 2 and true built n = 1
    ("dt_integrator", {"alpha": 0.5, "n": 2.5}, "n"),
    ("dt_integrator", {"alpha": 0.5, "n": True}, "n"),
    ("dt_integrator", {"alpha": 0.5, "n": "2"}, "n"),
    # gradient_ff raised numpy's TypeError on 2.0, a TypeError from < on "2",
    # and built n = 1 on true
    ("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 2.0}, "n"),
    ("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": "2"}, "n"),
    ("gradient_ff", {"mu": 1.0, "g": 1.0, "j": 0.5, "n": True}, "n"),
    ("ahu_saddle", {**_AHU, "n1": 2.0}, "n1"),
    ("ahu_saddle", {**_AHU, "n1": "2"}, "n1"),
], ids=["dt_integrator-2.5", "dt_integrator-true", "dt_integrator-str", "gradient_ff-2.0",
        "gradient_ff-str", "gradient_ff-true", "ahu_saddle-2.0", "ahu_saddle-str"])
def test_catalog_reads_n_as_an_integer(family, params, key):
    with pytest.raises(ConfigError, match=rf"^{key} must be an integer, got {params[key]!r}$"):
        catalog_build(family, params)


def test_catalog_n_null_is_absent_and_numpy_integers_read():
    assert catalog_build("dt_integrator", {"alpha": 0.5, "n": None}).n == 1
    assert catalog_build("gradient_ff", {"mu": [1.0, 2.0], "g": 1.0, "j": 0.5, "n": None}).n == 2
    assert catalog_build("ahu_saddle", {**_AHU, "n1": np.int64(2)}).n == 3


def test_second_order_shapes_and_drift():
    sys = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    assert (sys.n, sys.m, sys.p) == (2, 1, 1)
    x = np.array([0.4, -0.2])
    U = sys.meta["U"]
    assert np.allclose(sys.f(x), [x[1], -U.grad_V(x[:1])[0] - x[1]])
    assert sys.h(x)[0] == x[1]


def test_port_hamiltonian_drift_and_skewness_check():
    params = {
        "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.5, 0.0], [0.0, 0.1]],
        "G": [[1.0], [0.0]],
    }
    sys = catalog_build("port_hamiltonian", params)
    x = np.array([0.3, -0.7])
    gH = sys.meta["grad_H"](x)
    A = np.array(params["J"]) - np.array(params["R"])
    assert np.allclose(sys.f(x), A @ gH)
    assert np.allclose(sys.h(x), np.array(params["G"]).T @ gH)
    with pytest.raises(NonSymmetricError):
        catalog_build("port_hamiltonian", {**params, "J": [[0.0, 1.0], [1.0, 0.0]]})


INDEFINITE = np.diag([1.0, -0.5])
PSD_BUILDS = {
    "port_hamiltonian/R": lambda: catalog_build("port_hamiltonian", {
        "J": [[0.0, 1.0], [-1.0, 0.0]], "R": INDEFINITE, "G": [[1.0], [0.0]]}),
    "ahu_saddle/K": lambda: catalog_build("ahu_saddle", {**FAMILIES["ahu_saddle"],
                                                         "K": INDEFINITE}),
    "ahu_gain/K": lambda: ahu_gain(np.eye(2), np.eye(2), INDEFINITE),
    # the storage -x²/2 passed the sampled certificate of the unstable
    # xdot = x + u, y = x for the supply -yu before convexity was checked
    "quadratic/storage P": lambda: StorageGenerator.quadratic([[-1.0]]),
    "port_hamiltonian/storage P": lambda: catalog_build("port_hamiltonian", {
        "J": [[0.0, 1.0], [-1.0, 0.0]], "R": np.eye(2), "G": [[1.0], [0.0]],
        "hamiltonian": {"P": INDEFINITE}}),
}


def test_rank_deficient_saddle_data_raise_one_error():
    # the same full-row-rank rule, and the same error, in the model and the gain
    A = [[1.0, 1.0], [2.0, 2.0]]
    with pytest.raises(RankDeficientError, match="full row rank"):
        catalog_build("ahu_saddle", {"mu": [1.0, 1.0], "A": A, "b": [0.0, 0.0]})
    with pytest.raises(RankDeficientError, match="full row rank"):
        ahu_gain(np.eye(2), A, np.zeros((2, 2)))


@pytest.mark.parametrize("case", sorted(PSD_BUILDS))
def test_indefinite_data_matrices_raise_rhat_not_psd(case, monkeypatch):
    # one PSD rule names the matrix, and solves a 2×2 without LAPACK
    def no_lapack(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")
    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    name = case.split("/")[1]
    with pytest.raises(RhatNotPsdError, match=f"{name} must be positive semidefinite"):
        PSD_BUILDS[case]()


def test_gradient_ff_square_with_feedthrough():
    sys = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.5, "j": 0.3, "n": 3})
    assert sys.square and sys.n == 3
    assert np.allclose(sys.J, 0.3 * np.eye(3))
    x = np.array([0.1, -0.2, 0.5])
    assert np.allclose(sys.h(x), 1.5 * x)


def test_ahu_saddle_stationarity():
    A = np.array([[1.0, 1.0]])
    sys = catalog_build("ahu_saddle", {"mu": [1.0, 1.0], "A": A.tolist(), "b": [1.0]})
    assert (sys.n, sys.m, sys.p) == (3, 2, 2)
    # at a KKT point (z*, lambda*) the drift vanishes
    z = np.array([0.5, 0.5])
    lam = -np.array([0.5])  # grad phi(z*) = z* = -A'lam
    assert np.allclose(sys.f(np.concatenate([z, lam])), 0.0, atol=1e-12)


def test_smib_energy_gradient():
    sys = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    gen = sys.storage
    x = np.array([0.4, 0.1])
    assert np.allclose(gen.grad_V(x), [np.sin(0.4), 0.1])
    with pytest.raises(ValueError):
        catalog_build("smib", {"M": 1.0, "D": -1.0, "b": 1.0, "V": 1.0})


def test_dt_families():
    g = catalog_build("dt_gradient", {"mu": 1.0, "alpha": 0.5})
    assert g.discrete
    x = np.array([2.0])
    assert g.step(x, np.zeros(1))[0] == pytest.approx(2.0 - 0.5 * 2.0)
    i = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    assert maximality_conditions(i)["f_zero_or_identity"]
    assert np.allclose(i.step(np.zeros(2), np.ones(2)), 0.5 * np.ones(2))


def test_lti_family_and_jacobian():
    sys = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]]})
    assert not sys.discrete
    assert np.allclose(sys.f_jac(np.zeros(1)), [[-1.0]])
    rep = validate_system(sys)
    assert rep["ok"] and rep["jacobian_consistent"]


def test_g_rank_requirement():
    with pytest.raises(DimensionMismatchError):
        systems.CtSystem(lambda x: x, lambda x: x[:1], np.zeros((2, 1)))
    # the rank rule is relative: a small but well-conditioned G has full
    # column rank (an absolute 1e-10 on its singular values rejected it)
    sys = systems.CtSystem(lambda x: -x, lambda x: x[..., :1], [[1e-11], [0.0]])
    assert validate_system(sys)["G_full_column_rank"]


# ---------------------------------------------------------------------------
# loading


def test_load_system_roundtrip(tmp_path):
    doc = {"schema": 1, "family": "dt_integrator", "params": {"alpha": 0.25}}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    for src in (str(path), json.dumps(doc), doc):
        sys = load_system(src)
        assert sys.name == "dt_integrator"
        assert sys.meta["alpha"] == 0.25


def test_load_system_rejects_bad_docs(tmp_path):
    with pytest.raises(ConfigError):
        load_system({"schema": 1, "family": "lti", "params": {}, "extra": 1})
    with pytest.raises(ConfigError):
        load_system({"schema": 2, "family": "lti"})
    with pytest.raises(ConfigError):
        load_system({"schema": 1})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_system(str(bad))


def _pipe_holding(text):
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    return read_end


def _file_holding(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("make_source", [
    lambda tmp: _pipe_holding("{}"),
    lambda tmp: _file_holding(tmp / "null.json", "null"),
    lambda tmp: {"schema": 1, "family": "dt_integrator", "params": [1]},
], ids=["int", "null_document", "params_list"])
def test_load_system_rejects_other_sources(tmp_path, make_source):
    # an int was read as a file descriptor and closed; a null document and
    # a params list raised TypeError
    source = make_source(tmp_path)
    with pytest.raises(ConfigError):
        load_system(source)
    if isinstance(source, int):
        os.close(source)  # still open


def test_validate_system_reports_nonfinite():
    sys = systems.CtSystem(lambda x: np.full(2, np.nan), lambda x: x[:1],
                           np.array([[1.0], [0.0]]))
    rep = validate_system(sys, probes=3)
    assert not rep["f_h_finite"] and not rep["ok"]


def test_load_system_path_with_brace_in_directory(tmp_path):
    doc = {"schema": 1, "family": "dt_integrator", "params": {"alpha": 0.25}}
    folder = tmp_path / "run{1}"
    folder.mkdir()
    path = folder / "sys.json"
    path.write_text(json.dumps(doc))
    assert load_system(str(path)).meta["alpha"] == 0.25
    assert load_system(path).meta["alpha"] == 0.25
    assert load_system("  \n" + json.dumps(doc)).meta["alpha"] == 0.25


# ---------------------------------------------------------------------------
# stacked evaluation


PH_PARAMS = {
    "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "R": np.diag([0.5, 0.2, 0.3, 0.1]).tolist(),
    "G": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "d": [0.1, 0.0, -0.2, 0.0],
    "hamiltonian": {"P": [[1.0, 0.2, 0, 0], [0.2, 2.0, 0, 0], [0, 0, 1.5, 0], [0, 0, 0, 1.0]],
                    "c": [0.3, 0.0, 0.2, 0.0]},
}

FAMILIES = {
    "second_order": {"mu": 1.0, "c": 0.5},
    "port_hamiltonian": PH_PARAMS,
    "gradient_ff": {"mu": [1.0, 2.0], "c": 0.3, "g": 1.0, "j": 0.5, "tau": [1.0, 2.0]},
    "ahu_saddle": {"mu": [1.0, 2.0, 1.0, 3.0], "c": 0.2,
                   "A": [[1, 0, 1, 0], [0, 1, 0, 1]], "b": [1.0, -0.5],
                   "K": [[1.0, 0.2], [0.2, 0.5]]},
    "smib": {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2},
    "dt_gradient": {"mu": [1.0, 2.0], "c": 0.5, "alpha": 0.5},
    "dt_integrator": {"alpha": 0.5, "n": 2},
    "lti": {"F": [[-1.0, 2.0], [0.5, -3.0]], "G": [[1.0], [0.5]], "H": [[1.0, 1.0]],
            "J": [[0.3]]},
}


POSITIVE_PARAMS = [("second_order", "mu"), ("gradient_ff", "mu"), ("gradient_ff", "tau"),
                   ("ahu_saddle", "mu"), ("ahu_saddle", "alpha"), ("smib", "M"),
                   ("smib", "D"), ("smib", "b"), ("smib", "V"), ("dt_gradient", "mu"),
                   ("dt_gradient", "alpha"), ("dt_integrator", "alpha")]
WEIGHT_PARAMS = [("second_order", "c"), ("gradient_ff", "c"), ("ahu_saddle", "c"),
                 ("dt_gradient", "c")]


@pytest.mark.parametrize("family, key, bad",
                         [(*fk, bad) for fk in POSITIVE_PARAMS for bad in (np.nan, 0.0, -1.0)]
                         + [(*fk, bad) for fk in WEIGHT_PARAMS for bad in (np.nan, -1.0)])
def test_catalog_parameters_share_one_positivity_check(family, key, bad):
    # smib with D = NaN used to build a system whose f(0) is [0, nan], and
    # second_order with mu = NaN raised a NonFiniteError about a "matrix",
    # and ahu_saddle built its storage with alpha = 0 (a zero weight on the
    # primal state); a vector parameter gets the bad value in its last entry
    value = FAMILIES[family].get(key)
    value = [*value[:-1], bad] if isinstance(value, list) else bad
    word = "nonnegative" if key == "c" else "positive"
    with pytest.raises(DomainError, match=f"^{key} must be {word}$"):
        catalog_build(family, {**FAMILIES[family], key: value})
    if key == "c":
        # a negative weight raises one class whichever constructor sees it
        with pytest.raises(DomainError) as from_catalog:
            catalog_build("second_order", {"mu": 1.0, "c": -1.0})
        with pytest.raises(DomainError) as from_storage:
            StorageGenerator.quadratic(np.eye(1), [-1.0])
        assert type(from_catalog.value) is type(from_storage.value)


def _coordinates(sys, key):
    """The per-coordinate values a catalog system was built from: tau, or φ's μ and c
    read off its gradient form x diag(μ) + tanh(x) c."""
    if key == "tau":
        return sys.meta["tau"]
    form = sys.meta["phi"].grad_V
    return np.diagonal(form.A) if key == "mu" else form.B


@pytest.mark.parametrize("family, key", [
    ("gradient_ff", "mu"), ("gradient_ff", "c"), ("gradient_ff", "tau"), ("ahu_saddle", "mu"),
    ("ahu_saddle", "c"), ("dt_gradient", "mu"), ("dt_gradient", "c")])
def test_catalog_reads_per_coordinate_parameters(family, key):
    # one entry stands for all n, n entries are read as given, and any other
    # shape, or n = 0 with one entry, is a dimension error
    n_key = "n1" if family == "ahu_saddle" else "n"
    n = len(FAMILIES[family]["mu"])
    params = {**FAMILIES[family], n_key: n}
    values = np.linspace(0.5, 1.5, n)
    np.testing.assert_array_equal(_coordinates(catalog_build(family, {**params, key: 0.7}), key),
                                  np.full(n, 0.7))
    np.testing.assert_array_equal(
        _coordinates(catalog_build(family, {**params, key: values.tolist()}), key), values)
    with pytest.raises(DimensionMismatchError, match=rf"n = {n} {key} values, got \({n + 1},\)$"):
        catalog_build(family, {**params, key: [*values, 1.0]})
    # a (1, n) mu built a gradient_ff whose drift raised a matmul error when called
    with pytest.raises(DimensionMismatchError, match=rf"got \(1, {n}\)$"):
        catalog_build(family, {**params, key: [values.tolist()]})
    with pytest.raises(DimensionMismatchError, match="^need n >= 1 and 1 or n = 0 "):
        catalog_build(family, {**params, key: 0.7, n_key: 0})
    for bad in (np.nan, -1.0 if key == "c" else 0.0):
        with pytest.raises(DomainError, match=f"^{key} must be"):
            catalog_build(family, {**params, key: bad})


@pytest.mark.parametrize("family", ["second_order", "gradient_ff", "ahu_saddle", "dt_gradient"])
def test_catalog_phi_is_a_quadratic_generator(family):
    # φ (second_order's U) is StorageGenerator.quadratic(diag(μ), c), modulus min μ
    params = FAMILIES[family]
    phi = catalog_build(family, params).meta["U" if family == "second_order" else "phi"]
    mu = np.atleast_1d(params["mu"])
    assert isinstance(phi, StorageGenerator) and isinstance(phi.grad_V, systems._Affine)
    np.testing.assert_array_equal(phi.grad_V.A, np.diag(mu))
    np.testing.assert_array_equal(phi.grad_V.B, np.full(len(mu), params["c"]))
    assert phi.mu == mu.min()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_catalog_jacobians_match_finite_differences(family):
    sys = catalog_build(family, FAMILIES[family])
    rep = validate_system(sys, probes=50, seed=1)
    assert rep["ok"] and rep["jacobian_consistent"] and rep["max_jacobian_mismatch"] <= 1e-7
    X = np.random.default_rng(2).uniform(-2.0, 2.0, size=(6, sys.n))
    assert sys.f_jac(X[0]).shape == (sys.n, sys.n)
    np.testing.assert_allclose(sys.f_jac(X), np.array([sys.f_jac(x) for x in X]),
                               rtol=0, atol=1e-12)
    # h_jac against central differences of h, on one state and on a stack
    for x in (X[0], X):
        Jh, Jn = sys.h_jac(x), numerics.fd_jacobian(sys.h, x)
        assert Jh.shape == x.shape[:-1] + (sys.p, sys.n)
        mismatch = np.linalg.norm(Jh - Jn, axis=(-2, -1)) / np.maximum(
            np.linalg.norm(Jn, axis=(-2, -1)), 1.0)
        assert np.max(mismatch) <= 1e-7


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_catalog_families_hold_matrix_forms(family):
    # a new family cannot slip back to closures: f and h are matrix forms
    # (all but smib's sine drift), and every family carries both Jacobians
    sys = catalog_build(family, FAMILIES[family])
    assert sys.f_jac is not None and sys.h_jac is not None
    assert isinstance(sys._h.fn, systems._Affine)
    assert isinstance(sys._f.fn, systems._Affine) == (family != "smib")
    # so is every storage gradient but smib's energy, x P + tanh(x) c, and
    # the port-Hamiltonian ∇H of the metadata is that form
    if sys.storage is not None:
        assert isinstance(sys.storage.grad_V, systems._Affine) == (family != "smib")
    assert family != "port_hamiltonian" or sys.meta["grad_H"] is sys.storage.grad_V


def test_matrix_form_reads_a_vector_b_as_its_diagonal():
    A, b = np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, -0.3])
    diag, full = systems._Affine(A, b, np.array([0.1, 0.0])), systems._Affine(A, np.diag(b),
                                                                             np.array([0.1, 0.0]))
    rng = np.random.default_rng(1)
    for x in (rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=(6, 2)),
              rng.uniform(-2.0, 2.0, size=(3, 4, 2))):
        np.testing.assert_allclose(diag(x), full(x), rtol=0, atol=1e-15)
        np.testing.assert_allclose(diag.jac(x), full.jac(x), rtol=0, atol=1e-15)
    assert systems._Affine(A, np.zeros(2)).B is None


def test_matrix_form_drops_zero_terms_and_broadcasts_its_jacobian():
    A, B = np.array([[1.0, 2.0], [0.0, -1.0]]), np.diag([0.5, 0.0])
    form = systems._Affine(A, np.zeros((2, 2)), np.zeros(2))
    assert form.B is None and form.d is None
    X = np.random.default_rng(0).uniform(-2.0, 2.0, size=(5, 2))
    np.testing.assert_array_equal(form(X), X @ A)
    assert form.jac(X).shape == (5, 2, 2) and np.all(form.jac(X) == A.T)
    full = systems._Affine(A, B, np.array([0.1, -0.2]))
    np.testing.assert_array_equal(full(X[0]), X[0] @ A + np.tanh(X[0]) @ B + [0.1, -0.2])
    np.testing.assert_allclose(full.jac(X), numerics.fd_jacobian(full, X), rtol=0, atol=1e-8)


@pytest.mark.parametrize("F, discrete, expected", [
    ([[1.0, 0.0], [0.0, 1.0]], True, True),
    ([[0.0, 0.0], [0.0, 0.0]], False, True),
    ([[1.0, 0.0], [0.0, 1.0]], False, False),
    ([[0.0, 0.0], [0.0, 0.0]], True, False),
    ([[1.0, 0.0], [0.0, 0.5]], True, False),
])
def test_maximality_reads_zero_or_identity_from_the_drift(F, discrete, expected):
    # an lti F = I in discrete time used to read False: the flag came from
    # family metadata that only dt_integrator set
    sys = catalog_build("lti", {"F": F, "G": [[1.0, 0.0], [0.0, 1.0]], "discrete": discrete})
    assert maximality_conditions(sys)["f_zero_or_identity"] is expected


def _assert_stack_matches_rows(sys, rows=7, seed=0):
    X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(rows, sys.n))
    for fn, width in ((sys.f, sys.n), (sys.h, sys.p)):
        assert fn(X[0]).shape == (width,)
        stacked = fn(X)
        assert stacked.shape == (rows, width)
        np.testing.assert_allclose(stacked, np.array([fn(x) for x in X]), rtol=0, atol=1e-12)
    U = np.random.default_rng(seed + 1).normal(size=(rows, sys.m))
    step = sys.step if sys.discrete else sys.rhs
    np.testing.assert_allclose(step(X, U), np.array([step(x, u) for x, u in zip(X, U)]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(sys.output(X, U),
                               np.array([sys.output(x, u) for x, u in zip(X, U)]),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_catalog_stack_evaluation_matches_rows(family):
    sys = catalog_build(family, FAMILIES[family])
    # every catalog family maps stacks natively, without the row fallback
    assert sys._f.maps_stacks(sys.n) and sys._h.maps_stacks(sys.n)
    _assert_stack_matches_rows(sys)


DRIFT_CASES = {
    "port_hamiltonian": PH_PARAMS,
    "port_hamiltonian/c=0": {**PH_PARAMS, "hamiltonian": {"P": PH_PARAMS["hamiltonian"]["P"]}},
    "gradient_ff": FAMILIES["gradient_ff"],
    "gradient_ff/c=0": {**FAMILIES["gradient_ff"], "c": 0.0},
    "ahu_saddle": FAMILIES["ahu_saddle"],
    "ahu_saddle/c=0,K=0": {k: v for k, v in FAMILIES["ahu_saddle"].items() if k not in ("c", "K")},
    "dt_gradient": FAMILIES["dt_gradient"],
    "dt_gradient/c=0": {**FAMILIES["dt_gradient"], "c": 0.0},
}


def _composed_drift(family, params, meta):
    """The drift composed as the model reads: ∇H Aᵀ + d, -tinv ∇φ, the
    saddle's [-∇φ(z) - (res K + λ) A, res], and x - α ∇φ."""
    if family == "port_hamiltonian":
        At, d = (meta["Jmat"] - meta["R"]).T, np.asarray(params.get("d", 0.0))
        return lambda x: meta["grad_H"](x) @ At + d
    phi = meta["phi"]
    if family == "gradient_ff":
        tinv = 1.0 / meta["tau"]
        return lambda x: -tinv * phi.grad_V(x)
    if family == "dt_gradient":
        return lambda x: x - meta["alpha"] * phi.grad_V(x)
    A, b, K, n1 = meta["A"], meta["b"], meta["K"], meta["n1"]

    def f(x):
        z, lam = x[..., :n1], x[..., n1:]
        res = z @ A.T - b
        return np.concatenate([-phi.grad_V(z) - (res @ K + lam) @ A, res], axis=-1)
    return f


@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_matrix_drifts_match_the_composed_drift(case):
    family = case.split("/")[0]
    sys = catalog_build(family, DRIFT_CASES[case])
    ref = _composed_drift(family, DRIFT_CASES[case], sys.meta)
    rng = np.random.default_rng(4)
    for shape in ((sys.n,), (1, sys.n), (7, sys.n), (sys.n, sys.n)):
        X = rng.uniform(-2.0, 2.0, size=shape)
        got, want = sys.f(X), ref(X)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert systems._Stacked(sys._f.fn).maps_stacks(sys.n)


def test_interconnect_closures_stack_evaluation_matches_rows():
    from eidlab.interconnect import (FeedbackLoop, compose_closed_loop, loop_transform,
                                     static_feedback)

    smib = catalog_build("smib", FAMILIES["smib"])
    g1 = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    g2 = catalog_build("gradient_ff", {"mu": 1.0, "c": 0.4, "g": 1.5, "j": 0.5, "n": 1})
    closures = [
        static_feedback(smib, np.tanh),
        loop_transform(smib, SectorBounds.scalar(0.2, 1.5)),
        compose_closed_loop(FeedbackLoop(g1, g2)),
        compose_closed_loop(FeedbackLoop(smib, g2)),
    ]
    for sys in closures:
        assert sys._f.maps_stacks(sys.n) and sys._h.maps_stacks(sys.n), sys.name
        _assert_stack_matches_rows(sys)


def test_row_only_callables_take_the_row_fallback():
    two = systems.CtSystem(lambda x: np.array([x[1], -x[0]]), lambda x: np.array([x[1]]),
                           [[0.0], [1.0]])
    # on a (3, 3) stack this returns a (3, 3) array of the wrong rows
    three = systems.CtSystem(lambda x: np.array([x[1], -x[0], -x[2]]), lambda x: x[:1],
                             [[0.0], [1.0], [0.0]])
    for sys in (two, three):
        assert not sys._f.maps_stacks(sys.n) and not sys._h.maps_stacks(sys.n)
        _assert_stack_matches_rows(sys)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(two.f(X), [[2.0, -1.0], [4.0, -3.0]])


def test_row_only_callables_keep_the_value_shape_on_empty_stacks():
    sys = systems.CtSystem(lambda x: np.array([x[1], -x[0]]), lambda x: np.array([x[1]]),
                           [[1.0], [0.0]])
    assert sys.f(np.zeros((0, 2))).shape == (0, 2)
    assert sys.h(np.zeros((0, 2))).shape == (0, 1)
    jac = systems._Stacked(lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]) * x[0], 2)
    assert jac(np.zeros((0, 2))).shape == (0, 2, 2)
    # a callable that raises on some probe rows still gives the value shape
    root = systems._Stacked(lambda x: np.array([math.sqrt(x[0]), math.log(x[1]), 0.0]))
    assert root(np.zeros((0, 2))).shape == (0, 3)


ROW_RULES = {
    "0/float": (0, lambda x: float(x[0] ** 2 + x[1])),
    "0/length-1": (0, lambda x: np.array([x[0] * x[1]])),
    "1/vector": (1, lambda x: np.array([x[1], -x[0]])),
    "1/list": (1, lambda x: [x[1], x[0] * x[1]]),
    "1/scalar": (1, lambda x: x[0] * x[1]),
    "2/matrix": (2, lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]) * x[0]),
    "2/vector": (2, lambda x: np.array([x[1], x[0]])),
    # raises on every probe row, so only the stack's own rows give the shape
    "1/no-probe-row": (1, lambda x: np.array([math.log(x[0] - 1.0), x[1]])),
}


@pytest.mark.parametrize("case", sorted(ROW_RULES))
def test_row_path_matches_the_per_row_values(case):
    ndim, fn = ROW_RULES[case]
    rule = systems._Stacked(fn, ndim)
    assert not rule.maps_stacks(2)
    X = np.random.default_rng(2).uniform(1.5, 2.5, size=(2, 3, 2))
    # each row as the rule reads one state: a scalar value becomes length 1
    want = np.array([[rule(x) for x in rows] for rows in X])
    got = rule(X)
    assert got.shape == (2, 3) + want.shape[2:]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rule(X[0]), want[0])


def test_row_path_rejects_ragged_values():
    rule = systems._Stacked(lambda x: np.ones(1 + int(x[0] > 0.0)))
    assert not rule.maps_stacks(2)
    with pytest.raises(ValueError):
        rule(np.array([[-1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("validator", ["storage", "system", "sector"])
def test_validators_need_at_least_one_sample(validator):
    # with no samples every sampled check would hold vacuously
    sys = catalog_build("second_order", FAMILIES["second_order"])
    run = {
        "storage": lambda: sys.storage.validate((-np.ones(2), np.ones(2)), probes=0),
        "system": lambda: validate_system(sys, probes=0),
        "sector": lambda: check_sector(np.tanh, SectorBounds.scalar(0.0, 1.0), []),
    }[validator]
    with pytest.raises(ValueError, match="at least one probe"):
        run()


@pytest.mark.parametrize("family", sorted(f for f in FAMILIES if f != "lti"))
def test_catalog_storage_generators_map_stacks(family):
    sys = catalog_build(family, FAMILIES[family])
    gen, n = sys.storage, sys.n
    assert systems._Stacked(gen.grad_V).maps_stacks(n)
    X = np.random.default_rng(1).uniform(-1.5, 1.5, size=(n, n))  # N = n
    for fn in (gen.V, gen.grad_V):
        np.testing.assert_allclose(fn(X), np.array([fn(x) for x in X]), rtol=0, atol=1e-12)
    assert isinstance(gen.V(X[0]), float)


def test_maps_stacks_reads_scalar_values():
    # a stack-capable V maps a (3, n) stack to (3,), the shape of its three
    # row values read as scalars
    for family, params in sorted(FAMILIES.items()):
        sys = catalog_build(family, params)
        if sys.storage is not None:
            assert systems._Stacked(sys.storage.V, 0).maps_stacks(sys.n), family
    assert not systems._Stacked(lambda x: float(x[0] ** 2 + x[1]), 0).maps_stacks(2)
    # the generator keeps one probe per callable and state dimension
    gen = catalog_build("second_order", FAMILIES["second_order"]).storage
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 2))
    np.testing.assert_allclose(gen._values("V", X), [gen.V(x) for x in X], rtol=0, atol=1e-12)
    assert gen._stacked["V"].fn is gen.V and 2 in gen._stacked["V"]._stacks


def test_quadratic_generator_maps_square_stacks_row_by_row():
    # P @ X on an (n, n) stack runs without error but mixes the rows
    P = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
    gen = StorageGenerator.quadratic(P)
    X = np.arange(9.0).reshape(3, 3)
    np.testing.assert_allclose(gen.grad_V(X), X @ P, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gen.V(X), 0.5 * np.einsum("ij,jk,ik->i", X, P, X),
                               rtol=0, atol=1e-12)
    assert gen.V(X[1]) == pytest.approx(0.5 * X[1] @ P @ X[1])


# ---------------------------------------------------------------------------
# the one stack rule: every function that evaluates a user callable on a
# stack of samples, against a per-row reference loop


def _validate_ref(gen, region, probes, seed):
    lo, hi = region
    rng = np.random.default_rng(seed)
    worst_grad, worst_secant = 0.0, np.inf
    for _ in range(probes):
        x = rng.uniform(lo, hi, size=lo.size)
        g = np.asarray(gen.grad_V(x), dtype=float)
        g_fd = numerics.fd_gradient(gen.V, x)
        worst_grad = max(worst_grad, np.linalg.norm(g - g_fd) / max(np.linalg.norm(g), 1.0))
        z = rng.uniform(lo, hi, size=lo.size)
        d = np.linalg.norm(x - z) ** 2
        if d > 1e-16:
            gz = np.asarray(gen.grad_V(z), dtype=float)
            worst_secant = min(worst_secant, float((g - gz) @ (x - z)) / d)
    return {"grad_consistent": worst_grad <= 1e-5, "max_grad_mismatch": worst_grad,
            "min_secant_ratio": worst_secant, "secant_ok": worst_secant >= gen.mu - 1e-9}


def _validate_system_ref(sys, probes=20, seed=0, box=2.0):
    rng = np.random.default_rng(seed)
    finite, worst_jac = True, 0.0
    for _ in range(probes):
        x = rng.uniform(-box, box, size=sys.n)
        finite &= bool(np.all(np.isfinite(sys.f(x))) and np.all(np.isfinite(sys.h(x))))
        if sys.f_jac is not None:
            Jn = numerics.fd_jacobian(sys.f, x)
            worst_jac = max(worst_jac, np.linalg.norm(np.atleast_2d(sys.f_jac(x)) - Jn)
                            / max(np.linalg.norm(Jn), 1.0))
    rep = {"f_h_finite": finite}
    if sys.f_jac is not None:
        rep.update(jacobian_consistent=worst_jac <= 1e-4, max_jacobian_mismatch=worst_jac)
    return rep


def _maximality_ref(sys, seed=0, probes=20, box=2.0):
    X = np.random.default_rng(seed).uniform(-box, box, size=(probes, sys.n))
    Jf = np.array([np.atleast_2d(sys.f_jac(x)) for x in X])
    if sys.discrete:
        Jf = Jf - np.eye(sys.n)
    return {"f_homeomorphism_hint":
            bool(np.all(np.linalg.svd(Jf, compute_uv=False)[:, -1] > 1e-8))}


def _sector_ref(psi, bounds, probes, tol=1e-9):
    dz = np.array([np.atleast_1d(z2) - np.atleast_1d(z1) for z1, z2 in probes])
    dpsi = np.array([psi(z2) - psi(z1) for z1, z2 in probes])
    margins = sector_supply(bounds).evaluate(dz, dpsi)
    return {"min_margin": float(margins.min()), "violations": int(np.sum(margins < -tol)),
            "holds": bool(np.all(margins >= -tol))}


def _audit_ref(traj, storage, supply, ubar, ybar, xbar=None, tol=None):
    if callable(storage):
        Vs = np.array([storage(x) for x in traj.states])
    else:
        Vs = np.array([(x - xbar) @ storage @ (x - xbar) for x in traj.states])
    # each step's input u_k is held over it: w at (u_k, y_k) in discrete
    # time, the trapezoid of w at (u_k, y_k) and (u_k, y_{k+1}) in continuous
    w = lambda k, j: supply.evaluate(traj.inputs[k] - ubar, traj.outputs[j] - ybar)
    supplied = np.array([w(k, k) if traj.dt is None else 0.5 * traj.dt * (w(k, k) + w(k, k + 1))
                         for k in range(len(traj.inputs))])
    violations = np.diff(Vs) - supplied
    return {"storage_series": Vs, "violations": violations,
            "passed": bool(violations.max() <= tol)}


def _inclusion_ref(k1_inverse, k2, v1, v2, mu, tol=1e-10):
    F = lambda y: np.atleast_1d(k1_inverse(y)) + np.atleast_1d(k2(v2 + y))
    rng = np.random.default_rng(0)
    L_est = mu
    for _ in range(32):
        za = v1 + rng.normal(size=v1.size)
        zb = v1 + rng.normal(size=v1.size)
        L_est = max(L_est, np.linalg.norm(F(za) - F(zb)) / np.linalg.norm(za - zb))
    y = v1.copy()
    while np.linalg.norm(F(y) - v1) > tol:
        y = y - mu / L_est**2 * (F(y) - v1)
    return y, np.atleast_1d(k2(v2 + y))


# ---------------------------------------------------------------------------
# cases: (converted call, reference call), each a thunk


def _row_generator():
    # float() and component indexing only take one state
    return StorageGenerator(V=lambda x: float(x[0] ** 2 + 0.5 * x[1] ** 2 + np.cos(x[0])),
                            grad_V=lambda x: np.array([2.0 * x[0] - np.sin(x[0]), x[1]]),
                            mu=1.0)


def _row_system():
    # a pendulum with row-only f, h and f_jac; square (m = p = 1)
    return systems.CtSystem(lambda x: np.array([x[1], -np.sin(x[0]) - x[1]]),
                            lambda x: np.array([x[1]]), [[0.0], [1.0]],
                            f_jac=lambda x: np.array([[0.0, 1.0], [-np.cos(x[0]), -1.0]]))


@functools.lru_cache(maxsize=None)
def _audit_args():
    """Audit arguments (traj, storage, supply, ubar, ybar, xbar, tol) by case,
    simulated once when first asked for."""
    ph = catalog_build("port_hamiltonian", FAMILIES["port_hamiltonian"])
    emap = EquilibriumMap(ph)
    eq = emap.ku_ky(emap.project(np.array([0.3, 0.1, -0.2, 0.4])))
    traj = simulate_ct(ph, eq.x + np.array([0.3, -0.2, 0.1, 0.2]), u=eq.u, T=2.0, dt=1e-3)
    so = catalog_build("second_order", {"mu": 1.0})
    so_traj = simulate_ct(so, np.array([0.3, 1.5]), T=2.0, dt=1e-3)
    dg = catalog_build("dt_gradient", FAMILIES["dt_gradient"])
    dt_traj = simulate_dt(dg, np.array([1.5, -0.7]), steps=100)
    tol = ct_audit_tol(1e-3, 2.0)
    z1, z2 = np.zeros(1), np.zeros(2)
    return {
        "bregman": (traj, BregmanStorage(ph.storage, eq.x), SupplyRate.passivity(2),
                    eq.u, eq.y, None, tol),
        # float() only takes one state
        "row-only": (so_traj, lambda x: float(x[0] ** 2 + x[1] ** 2), SupplyRate.passivity(1),
                     z1, z1, None, tol),
        "dt-matrix": (dt_traj, np.diag([1.0, 2.0]), SupplyRate.passivity(2), z2, z2,
                      np.array([0.1, -0.1]), 1e-12),
    }


def _cases():
    cases = {}
    box = lambda n: (-np.ones(n), np.ones(n))
    for family, params in sorted(FAMILIES.items()):
        sys = catalog_build(family, params)
        cases[f"validate_system/{family}"] = (lambda s=sys: validate_system(s, seed=3),
                                              lambda s=sys: _validate_system_ref(s, seed=3))
        if sys.storage is not None:
            gen, region = sys.storage, box(sys.n)
            cases[f"validate/{family}"] = (lambda g=gen, r=region: g.validate(r, 300, seed=1),
                                           lambda g=gen, r=region: _validate_ref(g, r, 300, 1))
    cases["validate/row-only"] = (lambda: _row_generator().validate(box(2), 300, seed=1),
                                  lambda: _validate_ref(_row_generator(), box(2), 300, 1))
    cases["validate_system/row-only"] = (lambda: validate_system(_row_system(), seed=3),
                                         lambda: _validate_system_ref(_row_system(), seed=3))

    lti = catalog_build("lti", {"F": [[-1.0, 2.0], [0.5, -3.0]], "G": np.eye(2).tolist()})
    dlti = catalog_build("lti", {"F": [[0.5, 0.1], [0.0, 1.0]], "G": np.eye(2).tolist(),
                                 "discrete": True})
    for name, sys in (("lti", lti), ("lti_dt", dlti), ("row-only", _row_system())):
        cases[f"maximality/{name}"] = (lambda s=sys: maximality_conditions(s, seed=2),
                                       lambda s=sys: _maximality_ref(s, seed=2))

    rng = np.random.default_rng(0)
    scalar_probes = [tuple(rng.uniform(-3.0, 3.0, size=(2, 1))) for _ in range(300)]
    plane_probes = [tuple(rng.uniform(-2.0, 2.0, size=(2, 2))) for _ in range(200)]
    tanh = np.tanh
    # indexing z[0], z[1] only takes one point
    row_psi = lambda z: np.array([np.tanh(z[0]), 0.5 * z[1] + 0.2 * np.sin(z[1])])
    for name, psi, bounds, probes in (
            ("tanh", tanh, SectorBounds.scalar(0.0, 1.0), scalar_probes),
            ("tanh-narrow", tanh, SectorBounds.scalar(0.5, 1.0), scalar_probes),
            ("row-only", row_psi, SectorBounds(np.zeros((2, 2)), np.eye(2)), plane_probes)):
        cases[f"check_sector/{name}"] = (lambda a=(psi, bounds, probes): check_sector(*a),
                                         lambda a=(psi, bounds, probes): _sector_ref(*a))

    for name in ("bregman", "row-only", "dt-matrix"):
        cases[f"audit_dissipation/{name}"] = (
            lambda k=name: audit_dissipation(*_audit_args()[k]).__dict__,
            lambda k=name: _audit_ref(*_audit_args()[k]))

    phi = StorageGenerator.quadratic(np.diag([1.0, 2.0]), [0.5, 0.3])
    w1, w2 = SupplyRate.output_strict(1.0, 2), SupplyRate.input_feedforward(0.0, 2)
    row_k1 = lambda y: np.array([y[0] + 0.1 * np.tanh(y[1]), y[1]])
    v1, v2 = np.array([0.5, -1.0]), np.array([0.2, 0.1])
    for name, k1 in (("stacks", lambda y: y), ("row-only", row_k1)):
        cases[f"solve_monotone_inclusion/{name}"] = (
            lambda k=k1: solve_monotone_inclusion(k, phi.grad_V, v1, v2, w1, w2),
            lambda k=k1: _inclusion_ref(k, phi.grad_V, v1, v2, 1.0))
    return cases


CASES = _cases()


def _assert_same(got, ref, where=""):
    if isinstance(ref, dict):
        for key in ref:
            _assert_same(got[key], ref[key], f"{where}/{key}")
    elif isinstance(ref, tuple):
        for k, (g, r) in enumerate(zip(got, ref)):
            _assert_same(g, r, f"{where}[{k}]")
    elif isinstance(ref, (bool, np.bool_)):
        assert isinstance(got, (bool, np.bool_)) and got == ref, where
    else:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=where)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_path_matches_per_row_reference(case):
    converted, reference = CASES[case]
    got, ref = converted(), reference()
    if case in ("validate_system/lti", "validate_system/port_hamiltonian"):
        # a finite-difference Jacobian divides f's last-bit rounding, which
        # differs between a stacked and a one-row matmul, by its 2e-6 step;
        # the mismatch is that noise (~1e-10), so it agrees to ~1e-11
        np.testing.assert_allclose(got.pop("max_jacobian_mismatch"),
                                   ref.pop("max_jacobian_mismatch"), rtol=0, atol=1e-9)
    _assert_same(got, ref)
