"""The equilibrium identity and its corollary, on the seven catalog families
that the benchmark certifies.

At an equilibrium pair (x̄′, x̄) the storage term of the dissipation matrix
vanishes for any supply and any storage: Δf = -G Δu in continuous time and
Δf = Δx - G Δu in discrete time.  So the supply on the I/O increments is the
dissipation matrix's quadratic form,

    w(Δu, Δy) = [1; Δu]ᵀ D(x̄′, x̄) [1; Δu],

which ties the dissipation stack to ``SupplyRate.evaluate`` on a sampled
equilibrium relation.  Its corollary: where D ⪰ 0 on every pair, every pair
of equilibria satisfies the supply, so a certificate that passes implies
that the relation check on the same system and supply holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidlab import EquilibriumMap, SupplyRate, catalog_build, sample_pairs
from eidlab import certify
from eidlab.certify import verify_eid_ct, verify_eid_dt
from eidlab.equilibria import check_relation_dissipativity


def _box(n, half=1.0):
    return (-half * np.ones(n), half * np.ones(n))


def _families():
    """Per family: the system, its state box, its storage (a generator, or P
    in discrete time), and a supply it certifies and one it does not."""
    sr, osp = SupplyRate, SupplyRate.output_strict
    ifp = lambda q: sr(-q * np.eye(2), 0.5 * np.eye(2), 0.5 * np.eye(2), warn_definite=False)
    ph = catalog_build("port_hamiltonian", {
        "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        "R": np.diag([0.5, 0.2, 0.3, 0.1]).tolist(),
        "G": [[1, 0], [0, 0], [0, 1], [0, 0]],
        "hamiltonian": {"P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(), "c": [0.3, 0.0, 0.2, 0.0]}})
    so = catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    smib = catalog_build("smib", {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2})
    gff = catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    ahu = catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "c": [0.5] * 4, "A": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
        "b": [1.0, -0.5], "alpha": 1.0})
    dti = catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    lti = catalog_build("lti", {"F": (0.5 * np.eye(2)).tolist(), "G": np.eye(2).tolist(),
                                "discrete": True})
    return {
        "port_hamiltonian": (ph, _box(4), ph.storage, sr.passivity(2), osp(5.0, 2)),
        "second_order": (so, _box(2, 2.0), so.storage, osp(0.5, 1), osp(2.0, 1)),
        "smib": (smib, (np.array([-1.2, -0.5]), np.array([1.2, 0.5])), smib.storage,
                 osp(0.5, 1), osp(2.0, 1)),
        "gradient_ff": (gff, _box(1), gff.storage,
                        sr([[-0.27]], [[0.5]], [[-0.3]], warn_definite=False),
                        sr([[-0.622]], [[0.5]], [[-0.3]], warn_definite=False)),
        "ahu_saddle": (ahu, _box(6), ahu.storage, osp(0.5, 4), osp(2.0, 4)),
        "dt_integrator": (dti, _box(2), dti.meta["P"], ifp(0.0), ifp(0.5)),
        "lti_dt": (lti, _box(2), 2.0 * np.eye(2), sr.l2_gain(2.5, 2, 2), sr.l2_gain(1.5, 2, 2)),
    }


FAMILIES = _families()


def _supplies(family):
    """The family's passing and failing supplies and one indefinite supply."""
    sys, _, _, passing, failing = FAMILIES[family]
    indefinite = SupplyRate(np.eye(sys.p), 0.3 * np.ones((sys.p, sys.m)), -np.eye(sys.m),
                            warn_definite=False)
    return {"pass": passing, "fail": failing, "indefinite": indefinite}


@pytest.mark.parametrize("kind", ["pass", "fail", "indefinite"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_supply_on_equilibrium_pairs_is_the_dissipation_form(family, kind):
    sys, region, storage, _, _ = FAMILIES[family]
    w = _supplies(family)[kind]
    samples = EquilibriumMap(sys).sample_io_relation(region, 24, seed=3)
    assert len(samples) >= 12
    i, j = np.triu_indices(len(samples), 1)
    pairs = np.stack([samples.x[i], samples.x[j]], axis=1)
    (_, D, sigma), = certify._dissipation_stacks(sys, storage, pairs, w)
    du, dy = samples.u[i] - samples.u[j], samples.y[i] - samples.y[j]
    v = np.hstack([np.ones((len(du), 1)), du])
    gap = w.evaluate(du, dy) - np.einsum("ki,kij,kj->k", v, D, v)
    assert np.all(np.abs(gap) <= 1e-9 * (1.0 + sigma))


@settings(derandomize=True, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**16))
def test_passing_certificate_implies_the_relation_check_holds(seed):
    for family in sorted(FAMILIES):
        sys, region, storage, _, _ = FAMILIES[family]
        verify = verify_eid_dt if sys.discrete else verify_eid_ct
        pairs = sample_pairs(sys, region, count=200, seed=seed)
        samples = EquilibriumMap(sys).sample_io_relation(region, 30, seed=seed + 1)
        for kind, w in _supplies(family).items():
            passed = verify(sys, w, storage, pairs).passed
            assert passed or kind != "pass", f"{family}: its certified supply failed"
            assert not passed or check_relation_dissipativity(samples, w)["monotone"], \
                f"{family}/{kind}: certificate passed, relation check did not hold"
