"""eid-lab: certification of equilibrium-independent dissipativity.

Numerical verification of dissipativity certificates that hold uniformly
over every forced equilibrium of a control-affine system, supply-rate
composition across feedback interconnections, closed-form gain bounds, and
trajectory-level dissipation audits.

``import eidlab`` imports no submodule: each public name is looked up in its
module when used (PEP 562), so a process loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; ``__all__`` and the lookup read it
_EXPORTS = {
    "certify": ("BregmanStorage", "EidCertificate", "FactorizationResult", "bregman",
                "check_sector", "factor_dissipation", "sample_pairs", "sector_supply",
                "supply_margin", "verify_eid_ct", "verify_eid_dt", "verify_kyp_lti"),
    "equilibria": ("EquilibriumMap", "IoSample", "RelationSamples", "annihilator",
                   "check_relation_dissipativity", "cocoercivity_check",
                   "maximality_conditions"),
    "errors": ("EidLabError",),
    "gains": ("FeasibleRegion", "GainBound", "ahu_gain", "dt_gradient_gain",
              "empirical_gain", "ifp_osp_gain"),
    "interconnect": ("ComposedSupply", "FeedbackLoop", "circle_criterion",
                     "compose_closed_loop", "compose_supply", "kappa_search",
                     "loop_transform", "solve_monotone_inclusion", "static_feedback"),
    "sim": ("DissipationAudit", "Trajectory", "audit_dissipation", "simulate_ct",
            "simulate_dt", "stability_experiment"),
    "systems": ("CtSystem", "DtSystem", "SectorBounds", "StorageGenerator", "SupplyRate",
                "catalog_build", "load_system", "validate_system"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not cached here, so the name is always the module's current binding
    if name not in _MODULE_OF:
        from .errors import UnknownNameError

        raise UnknownNameError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
