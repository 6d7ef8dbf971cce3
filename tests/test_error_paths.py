"""Library error paths that the scenario tests never reach: each raises its
class with a message that names the problem, or reports the failure."""

import os

import numpy as np
import pytest

from eidlab.certify import sample_pairs, verify_eid_ct
from eidlab.equilibria import RelationSamples
from eidlab.errors import DimensionMismatchError, DomainError, NoConvergenceError
from eidlab.gains import GainBound, ahu_gain, empirical_gain
from eidlab.interconnect import compose_supply, solve_monotone_inclusion
from eidlab.sim import simulate_dt
from eidlab.systems import CtSystem, SectorBounds, SupplyRate, catalog_build, validate_system

_BOX = (-np.ones(2), np.ones(2))


def _ell_too_short():
    sys = catalog_build("second_order", {"mu": 1.0})
    pairs = sample_pairs(sys, _BOX, count=5)
    verify_eid_ct(sys, SupplyRate.passivity(1), sys.storage, pairs,
                  W=np.ones((2, 1)), ell=lambda x, xb: x[..., :1])


def _no_equilibrium_in_the_box():
    # x1² + 1 = 0 has no root, so every projection fails
    sys = CtSystem(lambda x: np.array([0.0 * x[0], x[0] ** 2 + 1.0]),
                   lambda x: x[:1], [[1.0], [0.0]])
    sample_pairs(sys, _BOX, count=5)


_RAISES = {
    "output_wider_than_state": (
        lambda: CtSystem(lambda x: -x, lambda x: np.array([x[0], x[0]]), [[1.0]]),
        DimensionMismatchError, "require m, p <= n"),
    "sector_sizes_differ": (
        lambda: SectorBounds(np.zeros((1, 1)), np.eye(2)),
        DimensionMismatchError, "K1, K2 must be square and same size"),
    "ahu_saddle_mu_length": (
        lambda: catalog_build("ahu_saddle", {"mu": [1.0, 1.0, 1.0], "A": [[1.0, 1.0]],
                                             "b": [1.0]}),
        DimensionMismatchError, "A, b, phi dimensions inconsistent"),
    "simulate_dt_zero_steps": (
        lambda: simulate_dt(catalog_build("dt_integrator", {"alpha": 0.5}), [0.0], steps=0),
        DomainError, "steps must be >= 1"),
    "compose_widths_misfit": (
        lambda: compose_supply(SupplyRate.passivity(2), SupplyRate.passivity(1), 1.0),
        DimensionMismatchError, "supply dimensions do not match the loop"),
    "ell_shorter_than_W": (
        _ell_too_short, DimensionMismatchError, "ell has 1 components but W has 2 rows"),
    "no_equilibrium_in_box": (
        _no_equilibrium_in_the_box, DomainError, "no equilibria found in the sampling region"),
    "gain_bound_nan": (
        lambda: GainBound(gamma=np.nan, formula_id="ifp_osp"),
        DomainError, "gain must be finite and nonnegative, got nan"),
    # K = -1e-10 passes the PSD floor, and M + K = 1e-12 - 1e-10 < 0
    "ahu_gain_indefinite": (
        lambda: ahu_gain([[1e-12]], [[1.0]], [[-1e-10]]),
        DomainError, "M \\+ AᵀKA must be positive definite"),
    # the supplies claim strong monotonicity, but F = 0 never reaches v1 = 1
    "monotone_inclusion_stalls": (
        lambda: solve_monotone_inclusion(
            lambda y: 0.0 * y, lambda z: 0.0 * z, [1.0], [0.0],
            SupplyRate.output_strict(1.0, 1), SupplyRate.passivity(1)),
        NoConvergenceError, "monotone inclusion iteration stalled, residual 1.000e\\+00"),
    "empty_relation_csv": (
        lambda: RelationSamples(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)))
        .to_csv(os.devnull),
        DomainError, "no samples to export"),
}


@pytest.mark.parametrize("case", sorted(_RAISES))
def test_error_path_raises_its_class(case):
    call, error, fragment = _RAISES[case]
    with pytest.raises(error, match=fragment):
        call()


def test_failures_that_are_reported_not_raised():
    def f(x):
        raise FloatingPointError("f fails")

    report = validate_system(CtSystem(f, lambda x: x[:1], [[1.0], [0.0]]))
    assert report["f_h_finite"] is False and report["ok"] is False
    # signals of zero energy give no ratio, so the gain stays 0
    lti = catalog_build("lti", {"F": [[-1.0]], "G": [[1.0]]})
    res = empirical_gain(lti, np.zeros(1), [np.zeros((20, 1)), np.zeros((10, 1))], dt=0.01)
    assert res == {"gain": 0.0, "truncated": False, "n_signals": 2}
