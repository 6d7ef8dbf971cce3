"""Command-line front end.

Every command reads JSON configuration, runs one analysis, writes a JSON
report (and CSV artifacts where applicable) and exits 0 on a Pass verdict,
2 on a valid run with a Fail verdict, and 1 on configuration or runtime
errors.  Reports embed a hash of the resolved configuration and the seed so
runs are reproducible and diffable in CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys as _sys
from pathlib import Path

import click
import numpy as np

from . import certify as certify_mod
from . import equilibria, gains, interconnect, sim
from .errors import EidLabError
from .systems import SectorBounds, SupplyRate, load_system

_EXIT_PASS = 0
_EXIT_ERROR = 1
_EXIT_FAIL = 2


def _resolve_seed(seed):
    if seed is not None:
        return int(seed)
    env = os.environ.get("EIDLAB_SEED")
    return int(env) if env else 0


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _parse_supply(spec: dict) -> SupplyRate:
    kind = spec.get("type")
    if kind == "passivity":
        return SupplyRate.passivity(int(spec.get("m", 1)))
    if kind == "l2_gain":
        return SupplyRate.l2_gain(float(spec["gamma"]), int(spec.get("p", 1)),
                                  int(spec.get("m", 1)))
    if kind == "output_strict":
        return SupplyRate.output_strict(float(spec["a"]), int(spec.get("m", 1)))
    if kind == "input_feedforward":
        return SupplyRate.input_feedforward(float(spec["nu"]), int(spec.get("m", 1)))
    return SupplyRate(spec["Q"], spec["S"], spec["R"], warn_definite=False)


def _region_box(spec, n):
    if spec is None:
        return (-np.ones(n), np.ones(n))
    return (np.asarray(spec["lo"], dtype=float), np.asarray(spec["hi"], dtype=float))


def _emit(command: str, config: dict, seed: int, verdict: str,
          metrics: dict, artifacts, out_dir) -> int:
    report = {
        "command": command,
        "config_hash": _config_hash(config),
        "seed": seed,
        "verdict": verdict,
        "metrics": metrics,
        "artifacts": [str(a) for a in artifacts],
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{command.replace('-', '_')}_report.json"
    path.write_text(json.dumps(report, indent=2, default=_jsonify))
    click.echo(json.dumps(report, indent=2, default=_jsonify))
    return _EXIT_PASS if verdict == "pass" else _EXIT_FAIL


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return str(obj)


def _common(fn):
    fn = click.option("--system", "system_file", type=click.Path(exists=True),
                      default=None, help="system description JSON")(fn)
    fn = click.option("--config", "config_file", type=click.Path(exists=True),
                      default=None, help="analysis configuration JSON")(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--tol", type=float, default=None)(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=".")(fn)
    return fn


@click.group()
def main():
    """eid-lab: equilibrium-independent dissipativity certification."""


def _run(ctx_exit, body):
    try:
        ctx_exit(body())
    except (EidLabError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx_exit(_EXIT_ERROR)


def _require_system(system_file):
    if system_file is None:
        raise click.ClickException("--system is required for this command")
    return load_system(system_file)


def _pairs_for(system, cfg, seed):
    region = _region_box(cfg.get("region"), system.n)
    count = int(cfg.get("pairs", 500))
    return certify_mod.sample_pairs(system, region, count=count, seed=seed)


@main.command("certify")
@_common
def cmd_certify(system_file, config_file, seed, tol, out_dir):
    """Continuous-time EID certification for a catalog system."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        w = _parse_supply(cfg.get("supply", {"type": "passivity", "m": system.m}))
        gen = system.storage
        if gen is None:
            raise EidLabError("system has no storage generator")
        pairs = _pairs_for(system, cfg, rseed)
        kw = {}
        if tol is not None:
            kw = {"tol_a": tol, "tol_b": tol}
        cert = certify_mod.verify_eid_ct(system, w, gen, pairs,
                                         mode=cfg.get("mode", "inequality"),
                                         seed=rseed, **kw)
        return _emit("certify", cfg, rseed, cert.verdict, cert.to_dict(), [], out_dir)
    _run(_sys.exit, body)


@main.command("certify-dt")
@_common
def cmd_certify_dt(system_file, config_file, seed, tol, out_dir):
    """Discrete-time EID certification with quadratic storage."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        w = _parse_supply(cfg.get("supply", {"type": "passivity", "m": system.m}))
        P = np.asarray(cfg["P"], dtype=float) if "P" in cfg else system.meta.get("P")
        if P is None:
            raise EidLabError("no storage matrix P given or known for this system")
        pairs = _pairs_for(system, cfg, rseed)
        kw = {"tol_a": tol, "tol_b": tol} if tol is not None else {}
        cert = certify_mod.verify_eid_dt(system, w, P, pairs,
                                         mode=cfg.get("mode", "inequality"),
                                         seed=rseed, **kw)
        return _emit("certify-dt", cfg, rseed, cert.verdict, cert.to_dict(), [], out_dir)
    _run(_sys.exit, body)


@main.command("kyp")
@_common
def cmd_kyp(system_file, config_file, seed, tol, out_dir):
    """Linear dissipativity check for a given quadratic storage."""
    def body():
        cfg = _load_config(config_file)
        rseed = _resolve_seed(seed)
        w = _parse_supply(cfg["supply"])
        n, m = np.atleast_2d(cfg["G"]).shape
        H = np.atleast_2d(cfg.get("H", np.eye(n)))
        J = cfg.get("J", np.zeros((H.shape[0], m)))
        res = certify_mod.verify_kyp_lti(cfg["F"], cfg["G"], H, J, w, cfg["P"],
                                         tol=tol if tol is not None else 1e-9)
        verdict = "pass" if res["passed"] else "fail"
        metrics = {"lambda_max": res["lambda_max"]}
        return _emit("kyp", cfg, rseed, verdict, metrics, [], out_dir)
    _run(_sys.exit, body)


@main.command("region")
@_common
def cmd_region(system_file, config_file, seed, tol, out_dir):
    """Sweep the feedforward-passivity feasibility region to CSV."""
    def body():
        cfg = _load_config(config_file)
        rseed = _resolve_seed(seed)
        reg = gains.FeasibleRegion(mu=float(cfg["mu"]), g=float(cfg["g"]),
                                   j=float(cfg["j"]))
        nu_lo = float(cfg.get("nu_min", 0.0))
        nu_hi = float(cfg.get("nu_max", reg.nu_intercept))
        points = int(cfg.get("points", 101))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "region.csv"
        with open(csv_path, "w") as fh:
            fh.write("nu,rho_max_eq16,rho_max_eq18,member\n")
            for nu in np.linspace(nu_lo, nu_hi, points):
                r16 = reg.rho_max_feedthrough(nu)
                r18 = reg.rho_max_curvature(nu)
                probe = 0.5 * min(r16, r18)
                member = reg.membership(nu, probe) if probe > 0 else (nu < reg.nu_intercept)
                fh.write(f"{nu},{r16},{r18},{int(member)}\n")
        metrics = {
            "nu_intercept": reg.nu_intercept,
            "rho_intercept_eq16": reg.rho_intercept_feedthrough,
            "rho_intercept_eq18": reg.rho_intercept_curvature,
        }
        return _emit("region", cfg, rseed, "pass", metrics, [csv_path], out_dir)
    _run(_sys.exit, body)


@main.command("gain")
@_common
def cmd_gain(system_file, config_file, seed, tol, out_dir):
    """Closed-form gain sweep to CSV."""
    def body():
        cfg = _load_config(config_file)
        rseed = _resolve_seed(seed)
        formula = cfg["formula"]
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "gain_sweep.csv"
        rows = []
        if formula == "ifp_osp":
            b = float(cfg.get("b", 0.0))
            for a in cfg["grid"]:
                rows.append((a, gains.ifp_osp_gain(float(a), b).gamma))
            param = "a"
        elif formula == "dt_gradient":
            mu = float(cfg.get("mu", 1.0))
            grid = [1e-6] + [float(v) for v in cfg["grid"]]  # asymptote row first
            for alpha in grid:
                rows.append((alpha, gains.dt_gradient_gain(mu, alpha).gamma))
            param = "alpha"
        elif formula == "ahu":
            bound = gains.ahu_gain(cfg["M"], cfg["A"], cfg.get("K", np.zeros(
                (np.atleast_2d(cfg["A"]).shape[0],) * 2)))
            rows.append((0.0, bound.gamma))
            param = "index"
        else:
            raise EidLabError(f"unknown gain formula {formula!r}")
        with open(csv_path, "w") as fh:
            fh.write(f"{param},gamma\n")
            for k, g in rows:
                fh.write(f"{k},{g}\n")
        metrics = {"formula": formula, "max_gamma": max(g for _, g in rows)}
        return _emit("gain", cfg, rseed, "pass", metrics, [csv_path], out_dir)
    _run(_sys.exit, body)


@main.command("compose")
@_common
def cmd_compose(system_file, config_file, seed, tol, out_dir):
    """Supply-rate composition and kappa search across the feedback loop."""
    def body():
        cfg = _load_config(config_file)
        rseed = _resolve_seed(seed)
        w1 = _parse_supply(cfg["w1"])
        w2 = _parse_supply(cfg["w2"])
        if "kappa" in cfg:
            comp = interconnect.compose_supply(w1, w2, float(cfg["kappa"]))
            lam = comp.lambda_max_q
            verdict = "pass" if lam < -(tol if tol is not None else 1e-9) else "fail"
            metrics = {"kappa": comp.kappa, "lambda_max_q": lam,
                       "Q_cl": comp.Q_cl, "S_cl": comp.S_cl, "R_cl": comp.R_cl}
        else:
            krange = tuple(cfg.get("kappa_range", (1e-4, 1e4)))
            res = interconnect.kappa_search(w1, w2, krange,
                                            grid=int(cfg.get("grid", 60)),
                                            tol=tol if tol is not None else 1e-9)
            verdict = res["verdict"]
            metrics = {"kappa": res["kappa"], "lambda_max_q": res["lambda_max_q"]}
        return _emit("compose", cfg, rseed, verdict, metrics, [], out_dir)
    _run(_sys.exit, body)


@main.command("circle")
@_common
def cmd_circle(system_file, config_file, seed, tol, out_dir):
    """Sector absolute-stability certificate search."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        sector = cfg["sector"]
        bounds = SectorBounds.scalar(float(sector["alpha"]), float(sector["beta"]),
                                     m=system.m)
        gen = system.storage
        if gen is None:
            raise EidLabError("system has no storage generator")
        pairs = _pairs_for(system, cfg, rseed)
        res = interconnect.circle_criterion(system, bounds, gen, pairs,
                                            tol=tol if tol is not None else 1e-9)
        metrics = {"certified_eps": res["certified_eps"]}
        return _emit("circle", cfg, rseed, res["verdict"], metrics, [], out_dir)
    _run(_sys.exit, body)


def _input_from_config(cfg, m):
    spec = cfg.get("input", {"type": "zero"})
    if spec["type"] == "zero":
        return None
    if spec["type"] == "constant":
        return np.atleast_1d(np.asarray(spec["value"], dtype=float))
    raise EidLabError(f"unknown input type {spec['type']!r}")


@main.command("simulate")
@_common
def cmd_simulate(system_file, config_file, seed, tol, out_dir):
    """Simulate a trajectory and export it to CSV."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        x0 = np.asarray(cfg["x0"], dtype=float)
        if system.discrete:
            traj = sim.simulate_dt(system, x0, _input_from_config(cfg, system.m),
                                   steps=int(cfg.get("steps", 100)))
        else:
            traj = sim.simulate_ct(system, x0, _input_from_config(cfg, system.m),
                                   T=float(cfg.get("T", 1.0)),
                                   dt=float(cfg.get("dt", 1e-3)))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "trajectory.csv"
        traj.to_csv(csv_path)
        metrics = {"final_state": traj.states[-1], "samples": len(traj)}
        return _emit("simulate", cfg, rseed, "pass", metrics, [csv_path], out_dir)
    _run(_sys.exit, body)


@main.command("audit")
@_common
def cmd_audit(system_file, config_file, seed, tol, out_dir):
    """Simulate and audit the dissipation inequality along the run."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        w = _parse_supply(cfg.get("supply", {"type": "passivity", "m": system.m}))
        emap = equilibria.EquilibriumMap(system)
        xbar = emap.project(np.asarray(cfg["xbar"], dtype=float))
        eq = emap.ku_ky(xbar)
        x0 = np.asarray(cfg.get("x0", xbar), dtype=float)
        if system.discrete:
            traj = sim.simulate_dt(system, x0, eq.u, steps=int(cfg.get("steps", 100)))
            storage = system.meta.get("P")
            if "P" in cfg:
                storage = np.asarray(cfg["P"], dtype=float)
            audit = sim.audit_dissipation(traj, storage, w, eq.u, eq.y, xbar=xbar,
                                          tol=tol)
        else:
            traj = sim.simulate_ct(system, x0, eq.u,
                                   T=float(cfg.get("T", 1.0)),
                                   dt=float(cfg.get("dt", 1e-3)))
            storage = certify_mod.BregmanStorage(system.storage, xbar)
            audit = sim.audit_dissipation(traj, storage, w, eq.u, eq.y, tol=tol)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "audit.csv"
        audit.to_csv(csv_path, times=traj.times)
        metrics = {"max_violation": audit.max_violation, "tol": audit.tol}
        return _emit("audit", cfg, rseed, audit.verdict, metrics, [csv_path], out_dir)
    _run(_sys.exit, body)


@main.command("stability")
@_common
def cmd_stability(system_file, config_file, seed, tol, out_dir):
    """Probe-shell convergence experiment around an equilibrium."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        emap = equilibria.EquilibriumMap(system)
        xbar = emap.project(np.asarray(cfg["xbar"], dtype=float))
        eq = emap.ku_ky(xbar)
        res = sim.stability_experiment(
            system, xbar, eq.u,
            radius=float(cfg.get("radius", 0.1)),
            probes=int(cfg.get("probes", 32)),
            horizon=float(cfg.get("horizon", 20.0)),
            dt=float(cfg.get("dt", 1e-3)),
            steps=int(cfg.get("steps", 2000)),
        )
        verdict = "pass" if res["converged_fraction"] == 1.0 else "fail"
        metrics = {"converged_fraction": res["converged_fraction"],
                   "max_final_distance": res["max_final_distance"]}
        return _emit("stability", cfg, rseed, verdict, metrics, [], out_dir)
    _run(_sys.exit, body)


@main.command("io-relation")
@_common
def cmd_io_relation(system_file, config_file, seed, tol, out_dir):
    """Sample the equilibrium I/O relation and check pairwise dissipativity."""
    def body():
        cfg = _load_config(config_file)
        system = _require_system(system_file)
        rseed = _resolve_seed(seed)
        emap = equilibria.EquilibriumMap(system)
        region = _region_box(cfg.get("region"), system.n)
        samples = emap.sample_io_relation(region, int(cfg.get("count", 50)),
                                          seed=rseed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "io_relation.csv"
        samples.to_csv(csv_path)
        w = _parse_supply(cfg.get("supply", {"type": "passivity", "m": system.m}))
        rep = equilibria.check_relation_dissipativity(
            samples, w, tol=tol if tol is not None else 1e-9)
        verdict = "pass" if rep["monotone"] else "fail"
        metrics = {"min_pair_value": rep["min_pair_value"],
                   "n_samples": len(samples),
                   "projection_failures": samples.projection_failures}
        return _emit("io-relation", cfg, rseed, verdict, metrics, [csv_path], out_dir)
    _run(_sys.exit, body)


if __name__ == "__main__":
    main()
