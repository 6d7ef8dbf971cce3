"""Span tracing for the benchmark's traced runs, installed from outside ``src``.

``Tracer.install`` replaces each layer's public functions and methods with
timing wrappers wherever they are looked up: on every ``eidlab`` module that
holds a reference to the function (so ``eidlab.interconnect.verify_eid_ct``
is wrapped as well as ``eidlab.certify.verify_eid_ct``), on the defining
class for methods, and through a class-level property for the storage
callables that ``StorageGenerator`` keeps per instance.  ``uninstall``
restores every original, so untraced passes in the same process run the
library unmodified.

Each call records a span (name, start, end, parent) in memory, up to
``MAX_SPANS``; self time (duration minus the time covered by child spans)
and the counters below are kept for every call, stored or not.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

_CLOCK = time.perf_counter
MAX_SPANS = 200_000  # spans kept in memory and written; later ones are only counted


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._seen_pair_sets: list = []
        self._patches: list = []

    # spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str, info=None) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.span_name)
        if idx < MAX_SPANS:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            start = _CLOCK()
            self.span_start.append(start)
        else:
            self.dropped += 1
            idx = -1
            start = _CLOCK()
        frame = [idx, name, start, 0.0, info]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, error: bool = False) -> None:
        end = _CLOCK()
        self.stack.pop()
        idx, name, start, child, _ = frame
        if idx >= 0:
            self.span_end[idx] = end
        dur = end - start
        self.calls[name] += 1
        if error:
            self.errors[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][3] += dur

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def ancestor_info(self, key):
        for frame in reversed(self.stack):
            if frame[4] and key in frame[4]:
                return frame[4][key]
        return None

    def new_pass(self) -> None:
        """Forget which pair sets were seen; reuse is counted per pass."""
        self._seen_pair_sets.clear()

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    # wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            info = before(tracer, fn, args, kwargs) if before else None
            frame = tracer.enter(name, info)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, error=True)
                raise
            tracer.exit(frame)
            if after:
                after(tracer, info, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _patch_function(self, name, fn, before=None, after=None):
        wrapper = self.wrap(name, fn, before, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "eidlab" or modname.startswith("eidlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, before=None, after=None):
        self._set(cls, attr, self.wrap(name, vars(cls)[attr], before, after))

    def _patch_instance_callable(self, cls, attr, name):
        tracer = self
        cache_key = f"_bench_traced_{attr}"

        def get(obj):
            raw = obj.__dict__[attr]
            wrapped = obj.__dict__.get(cache_key)
            if wrapped is None or wrapped.__wrapped__ is not raw:
                wrapped = tracer.wrap(name, raw)
                obj.__dict__[cache_key] = wrapped
            return wrapped

        def put(obj, value):
            obj.__dict__[attr] = value

        self._set(cls, attr, property(get, put))

    def install(self) -> None:
        """Wrap every traced function and method.  Raises ``LookupError``
        naming every one the library no longer has, so that a renamed layer
        function cannot make its per-layer metrics read zero unnoticed."""
        import importlib

        from eidlab import equilibria, systems

        if self._patches:
            raise RuntimeError("tracer already installed")
        missing = [f"{layer}.{fn_name}" for layer, names, _, _ in _FUNCTIONS for fn_name in names
                   if not callable(getattr(importlib.import_module("eidlab." + layer), fn_name,
                                           None))]
        missing += [f"systems.{cls.__name__}.{attr}" for cls in (systems.CtSystem, systems.DtSystem)
                    for attr in ("f", "h") if not callable(getattr(cls, attr, None))]
        missing += [f"systems.StorageGenerator.{attr}" for attr in ("grad_V", "V")
                    if attr not in getattr(systems.StorageGenerator, "__dataclass_fields__", {})]
        missing += [f"equilibria.EquilibriumMap.{attr}" for attr in _MAP_METHODS
                    if attr not in vars(equilibria.EquilibriumMap)]
        if missing:
            raise LookupError("traced library functions not found: " + ", ".join(missing))

        for layer, names, before, after in _FUNCTIONS:
            module = importlib.import_module("eidlab." + layer)
            for fn_name in names:
                self._patch_function(f"{layer}.{fn_name}", getattr(module, fn_name), before, after)
        for attr in ("f", "h"):
            owners = {next(c for c in cls.__mro__ if attr in vars(c))
                      for cls in (systems.CtSystem, systems.DtSystem)}
            for owner in owners:
                self._patch_method(owner, attr, "systems." + attr,
                                   before=_rows_before if attr == "f" else None)
        for attr in ("grad_V", "V"):
            self._patch_instance_callable(systems.StorageGenerator, attr, "systems." + attr)
        for attr in _MAP_METHODS:
            self._patch_method(equilibria.EquilibriumMap, attr, "equilibria." + attr)

    def uninstall(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # output ----------------------------------------------------------------

    def write(self, path) -> None:
        n = len(self.span_name)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, dtype=np.float64, count=n),
            end=np.frombuffer(self.span_end, dtype=np.float64, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            dropped=np.array(self.dropped),
        )


# hooks: ``before`` returns the span's info dict; ``after`` sees the result.


def _rows_before(tracer, fn, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    tracer.counts["systems.f_rows"] += x.shape[0] if np.ndim(x) == 2 else 1
    return None


def _relation_before(tracer, fn, args, kwargs):
    samples = _bound(fn, args, kwargs)["samples"]
    n = len(samples) if hasattr(samples, "__len__") else 0
    tracer.counts["equilibria.relation_pairs"] += n * (n - 1) // 2
    return None


def _verify_before(tracer, fn, args, kwargs):
    pairs = _bound(fn, args, kwargs)["pairs"]
    n = len(pairs)
    tracer.counts["certify.pairs_evaluated"] += n
    if any(p is pairs for p in tracer._seen_pair_sets):
        tracer.counts["certify.reused_pairs"] += n
    else:
        tracer._seen_pair_sets.append(pairs)
    if tracer.parent_name() == "interconnect.circle_criterion":
        tracer.counts["interconnect.circle_eps_tried"] += 1
    return None


def _gain_before(tracer, fn, args, kwargs):
    signals = _bound(fn, args, kwargs)["disturbances"]
    if not isinstance(signals, (list, tuple)):  # never consume the caller's iterator
        return {"width": 0}
    lengths = Counter(np.shape(v)[0] for v in signals)
    return {"width": max(lengths.values(), default=0)}


def _gain_after(tracer, info, result):
    tracer.counts["gains.signals"] += int(result["n_signals"])


def _stability_before(tracer, fn, args, kwargs):
    return {"width": int(_bound(fn, args, kwargs)["probes"])}


def _stability_after(tracer, info, result):
    n = int(result["n_probes"])
    tracer.counts["sim.nonconverged_probes"] += n - int(round(result["converged_fraction"] * n))


def _simulate_after(tracer, info, traj):
    samples = traj.times.size
    rows = traj.states.size // (samples * traj.states.shape[-1])
    steps = (samples - 1) * rows
    tracer.counts["sim.state_steps"] += steps
    width = tracer.ancestor_info("width") or 0
    if rows >= 8 or width >= 8:
        tracer.counts["sim.batchable_steps"] += steps


# (layer module, public functions, before hook, after hook)
_FUNCTIONS = [
    ("numerics", ["rk4_step", "fd_jacobian", "fd_gradient", "newton_root"], None, None),
    ("systems", ["catalog_build", "load_system"], None, None),
    ("equilibria", ["check_relation_dissipativity", "cocoercivity_check"], _relation_before, None),
    ("certify", ["verify_eid_ct", "verify_eid_dt"], _verify_before, None),
    ("certify", ["sample_pairs", "factor_dissipation", "verify_kyp_lti", "check_sector"],
     None, None),
    ("interconnect", ["circle_criterion", "kappa_search", "compose_supply",
                      "compose_closed_loop", "static_feedback", "loop_transform"], None, None),
    ("gains", ["empirical_gain"], _gain_before, _gain_after),
    ("gains", ["ahu_gain", "dt_gradient_gain", "ifp_osp_gain"], None, None),
    ("sim", ["simulate_ct", "simulate_dt"], None, _simulate_after),
    ("sim", ["audit_dissipation"], None, None),
    ("sim", ["stability_experiment"], _stability_before, _stability_after),
]
_MAP_METHODS = ("project", "sample_io_relation", "solve_equilibrium", "ku_ky")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, as (value, unit) pairs."""
    c, s, i, k = tracer.calls, tracer.self_time, tracer.incl, tracer.counts
    per = 1.0 / max(passes, 1)
    verify = ("certify.verify_eid_ct", "certify.verify_eid_dt")
    relation = ("equilibria.check_relation_dissipativity", "equilibria.cocoercivity_check")
    simulate = ("sim.simulate_ct", "sim.simulate_dt")
    projections = c["equilibria.project"]
    cli_calls = sum(v for name, v in c.items() if name.startswith("cli."))
    out = {
        "numerics.rk4_calls": (c["numerics.rk4_step"] * per, "count"),
        "numerics.rk4_self_s": (s["numerics.rk4_step"] * per, "s"),
        "numerics.fd_jacobian_calls": (c["numerics.fd_jacobian"] * per, "count"),
        "numerics.fd_jacobian_self_s": (s["numerics.fd_jacobian"] * per, "s"),
        "numerics.newton_calls": (c["numerics.newton_root"] * per, "count"),
        "systems.f_calls": (c["systems.f"] * per, "count"),
        "systems.f_rows": (k["systems.f_rows"] * per, "count"),
        "systems.h_calls": (c["systems.h"] * per, "count"),
        "systems.grad_V_calls": (c["systems.grad_V"] * per, "count"),
        "systems.rows_per_call": (_ratio(k["systems.f_rows"], c["systems.f"]), "rows/call"),
        "systems.self_s": (tracer.layer_self("systems") * per, "s"),
        "equilibria.projections": (projections * per, "count"),
        "equilibria.projection_failures": (tracer.errors["equilibria.project"] * per, "count"),
        "equilibria.accepted_frac": (
            _ratio(projections - tracer.errors["equilibria.project"], projections), "frac"),
        "equilibria.ms_per_projection": (1e3 * _ratio(i["equilibria.project"], projections), "ms"),
        "equilibria.project_self_s": (s["equilibria.project"] * per, "s"),
        "equilibria.relation_pairs": (k["equilibria.relation_pairs"] * per, "count"),
        "equilibria.us_per_relation_pair": (
            1e6 * _ratio(sum(i[n] for n in relation), k["equilibria.relation_pairs"]), "us"),
        "equilibria.relation_self_s": (sum(s[n] for n in relation) * per, "s"),
        "certify.verify_calls": (sum(c[n] for n in verify) * per, "count"),
        "certify.pairs_evaluated": (k["certify.pairs_evaluated"] * per, "count"),
        "certify.us_per_pair": (
            1e6 * _ratio(sum(i[n] for n in verify), k["certify.pairs_evaluated"]), "us"),
        "certify.self_s": (tracer.layer_self("certify") * per, "s"),
        "certify.pair_reuse_frac": (
            _ratio(k["certify.reused_pairs"], k["certify.pairs_evaluated"]), "frac"),
        "interconnect.circle_eps_tried": (k["interconnect.circle_eps_tried"] * per, "count"),
        "interconnect.compose_calls": (
            (c["interconnect.compose_supply"] + c["interconnect.compose_closed_loop"]) * per,
            "count"),
        "interconnect.self_s": (tracer.layer_self("interconnect") * per, "s"),
        "gains.signals": (k["gains.signals"] * per, "count"),
        "gains.self_s": (tracer.layer_self("gains") * per, "s"),
        "sim.state_steps": (k["sim.state_steps"] * per, "count"),
        "sim.us_per_state_step": (
            1e6 * _ratio(sum(i[n] for n in simulate), k["sim.state_steps"]), "us"),
        "sim.integrate_self_s": (sum(s[n] for n in simulate) * per, "s"),
        "sim.audit_self_s": (s["sim.audit_dissipation"] * per, "s"),
        "sim.nonconverged_probes": (k["sim.nonconverged_probes"] * per, "count"),
        "sim.batchable_frac": (_ratio(k["sim.batchable_steps"], k["sim.state_steps"]), "frac"),
        "cli.self_ms": (1e3 * _ratio(tracer.layer_self("cli"), cli_calls), "ms"),
    }
    return out
