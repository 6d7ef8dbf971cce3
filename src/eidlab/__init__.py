"""eid-lab: certification of equilibrium-independent dissipativity.

Numerical verification of dissipativity certificates that hold uniformly
over every forced equilibrium of a control-affine system, supply-rate
composition across feedback interconnections, closed-form gain bounds, and
trajectory-level dissipation audits.
"""

from .certify import (
    BregmanStorage,
    EidCertificate,
    FactorizationResult,
    bregman,
    check_sector,
    factor_dissipation,
    sample_pairs,
    sector_supply,
    supply_margin,
    verify_eid_ct,
    verify_eid_dt,
    verify_kyp_lti,
)
from .equilibria import (
    EquilibriumMap,
    IoSample,
    RelationSamples,
    annihilator,
    check_relation_dissipativity,
    cocoercivity_check,
    maximality_conditions,
)
from .errors import EidLabError
from .gains import (
    FeasibleRegion,
    GainBound,
    ahu_gain,
    dt_gradient_gain,
    empirical_gain,
    ifp_osp_gain,
)
from .interconnect import (
    ComposedSupply,
    FeedbackLoop,
    circle_criterion,
    compose_closed_loop,
    compose_supply,
    kappa_search,
    loop_transform,
    solve_monotone_inclusion,
    static_feedback,
)
from .sim import (
    DissipationAudit,
    Trajectory,
    audit_dissipation,
    simulate_ct,
    simulate_dt,
    stability_experiment,
)
from .systems import (
    CtSystem,
    DtSystem,
    SectorBounds,
    SeparableConvex,
    StaticNonlinearity,
    StorageGenerator,
    SupplyRate,
    catalog_build,
    load_system,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "BregmanStorage", "EidCertificate", "FactorizationResult", "bregman",
    "check_sector", "factor_dissipation", "sample_pairs",
    "sector_supply", "supply_margin", "verify_eid_ct", "verify_eid_dt", "verify_kyp_lti",
    "EquilibriumMap", "IoSample", "RelationSamples", "annihilator",
    "check_relation_dissipativity", "cocoercivity_check",
    "maximality_conditions", "EidLabError", "FeasibleRegion", "GainBound",
    "ahu_gain", "dt_gradient_gain", "empirical_gain",
    "ifp_osp_gain", "ComposedSupply", "FeedbackLoop", "circle_criterion",
    "compose_closed_loop", "compose_supply", "kappa_search", "loop_transform",
    "solve_monotone_inclusion", "static_feedback", "DissipationAudit",
    "Trajectory", "audit_dissipation", "simulate_ct", "simulate_dt",
    "stability_experiment", "CtSystem", "DtSystem", "SectorBounds",
    "SeparableConvex", "StaticNonlinearity", "StorageGenerator", "SupplyRate",
    "catalog_build", "load_system", "validate_system",
]
