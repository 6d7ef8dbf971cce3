"""Command-line front end.

Every command reads JSON configuration, runs one analysis, writes a JSON
report (and CSV artifacts where applicable) and exits 0 on a Pass verdict,
2 on a valid run with a Fail verdict, and 1 on configuration or runtime
errors.  Reports embed a hash of the resolved configuration and the seed so
runs are reproducible and diffable in CI.  Each command is one analysis body
registered with :func:`_command`, which owns everything else; a body imports
the modules it runs, so a process loads only those.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import click
import numpy as np

from .errors import ConfigError, EidLabError

_EXIT_PASS = 0
_EXIT_ERROR = 1
_EXIT_FAIL = 2

_OPTIONS = (
    click.option("--system", "system_file", type=click.Path(exists=True),
                 default=None, help="system description JSON"),
    click.option("--config", "config_file", type=click.Path(exists=True),
                 default=None, help="analysis configuration JSON"),
    click.option("--seed", type=int, default=None),
    click.option("--tol", type=float, default=None),
    click.option("--out", "out_dir", type=click.Path(), default="."),
)


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _parse_supply(spec: dict) -> SupplyRate:
    from .systems import SupplyRate

    kind, m = spec.get("type"), int(spec.get("m", 1))
    if kind == "passivity":
        return SupplyRate.passivity(m)
    if kind == "l2_gain":
        return SupplyRate.l2_gain(float(spec["gamma"]), int(spec.get("p", 1)), m)
    if kind == "output_strict":
        return SupplyRate.output_strict(float(spec["a"]), m)
    if kind == "input_feedforward":
        return SupplyRate.input_feedforward(float(spec["nu"]), m)
    if kind is not None:
        raise ConfigError(f"unknown supply type {kind!r}")
    return SupplyRate(spec["Q"], spec["S"], spec["R"], warn_definite=False)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return str(obj)


@dataclass
class _Run:
    """One command invocation: the configuration, seed, ``--tol`` as given,
    output directory and (for commands that take one) the loaded system."""

    cfg: dict
    seed: int
    tol: Optional[float]
    out: Path
    system: Any = None

    @property
    def tolerance(self) -> float:
        """``--tol``, or 1e-9 for analyses without a default of their own."""
        return 1e-9 if self.tol is None else self.tol

    def supply(self) -> SupplyRate:
        """The configured supply rate; passivity on the system's inputs by default."""
        return _parse_supply(self.cfg.get("supply", {"type": "passivity", "m": self.system.m}))

    def generator(self):
        if self.system.storage is None:
            raise EidLabError("system has no storage generator")
        return self.system.storage

    def storage_matrix(self):
        """The discrete-time storage matrix P: the config's, else the system's."""
        P = self.cfg.get("P", self.system.meta.get("P"))
        if P is None:
            raise EidLabError("no storage matrix P given or known for this system")
        return np.asarray(P, dtype=float)

    def region(self):
        """The configured state box, [-1, 1]^n by default."""
        spec = self.cfg.get("region", {"lo": -np.ones(self.system.n), "hi": np.ones(self.system.n)})
        return (np.asarray(spec["lo"], dtype=float), np.asarray(spec["hi"], dtype=float))

    def pairs(self):
        from . import certify

        count = int(self.cfg.get("pairs", 500))
        return certify.sample_pairs(self.system, self.region(), count=count, seed=self.seed)

    def equilibrium(self):
        """The configured ``xbar`` projected onto the equilibrium set, and its (u, y)."""
        from . import equilibria

        emap = equilibria.EquilibriumMap(self.system)
        xbar = emap.project(np.asarray(self.cfg["xbar"], dtype=float))
        return xbar, emap.ku_ky(xbar)

    def simulate(self, x0, u):
        from . import sim

        if self.system.discrete:
            return sim.simulate_dt(self.system, x0, u, steps=int(self.cfg.get("steps", 100)))
        return sim.simulate_ct(self.system, x0, u, T=float(self.cfg.get("T", 1.0)),
                               dt=float(self.cfg.get("dt", 1e-3)))


def _start(system_file, config_file, seed, tol, out_dir, needs_system) -> _Run:
    cfg = {}
    if config_file is not None:
        with open(config_file) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("configuration must be a JSON object")
    system = None
    if needs_system:
        if system_file is None:
            raise ConfigError("--system is required for this command")
        from .systems import load_system

        system = load_system(system_file)
    if seed is None:
        env_seed = os.environ.get("EIDLAB_SEED") or "0"
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"EIDLAB_SEED must be an integer, got {env_seed!r}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _Run(cfg, seed, tol, out, system)


def _emit(command: str, run: _Run, verdict: str, metrics: dict, artifacts) -> int:
    report = {"command": command, "config_hash": _config_hash(run.cfg), "seed": run.seed,
              "verdict": verdict, "metrics": metrics, "artifacts": [str(a) for a in artifacts]}
    text = json.dumps(report, indent=2, default=_jsonify)
    (run.out / f"{command.replace('-', '_')}_report.json").write_text(text)
    click.echo(text)
    return _EXIT_PASS if verdict == "pass" else _EXIT_FAIL


@click.group()
def main():
    """eid-lab: equilibrium-independent dissipativity certification."""


def _command(name: str, needs_system: bool = False):
    """Register ``body(run) -> (verdict, metrics, artifacts)`` as command ``name``."""
    def register(body):
        def command(system_file, config_file, seed, tol, out_dir):
            try:
                run = _start(system_file, config_file, seed, tol, out_dir, needs_system)
                code = _emit(name, run, *body(run))
            except (EidLabError, OSError, KeyError, ValueError) as exc:
                message = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                click.echo(f"error: {message}", err=True)
                code = _EXIT_ERROR
            sys.exit(code)
        for option in _OPTIONS:
            command = option(command)
        main.command(name, help=body.__doc__)(command)
        return body
    return register


def _certificate(run: _Run, verify, storage):
    kw = {} if run.tol is None else {"tol_a": run.tol, "tol_b": run.tol}
    cert = verify(run.system, run.supply(), storage, run.pairs(),
                  mode=run.cfg.get("mode", "inequality"), seed=run.seed, **kw)
    return cert.verdict, cert.to_dict(), []


@_command("certify", needs_system=True)
def _certify(run):
    """Continuous-time EID certification for a catalog system."""
    from . import certify

    return _certificate(run, certify.verify_eid_ct, run.generator())


@_command("certify-dt", needs_system=True)
def _certify_dt(run):
    """Discrete-time EID certification with quadratic storage."""
    from . import certify

    return _certificate(run, certify.verify_eid_dt, run.storage_matrix())


@_command("kyp")
def _kyp(run):
    """Linear dissipativity check for a given quadratic storage."""
    from . import certify

    cfg = run.cfg
    w = _parse_supply(cfg["supply"])
    n, m = np.atleast_2d(cfg["G"]).shape
    H = np.atleast_2d(cfg.get("H", np.eye(n)))
    J = cfg.get("J", np.zeros((H.shape[0], m)))
    res = certify.verify_kyp_lti(cfg["F"], cfg["G"], H, J, w, cfg["P"], tol=run.tolerance)
    return ("pass" if res["passed"] else "fail"), {"lambda_max": res["lambda_max"]}, []


@_command("region")
def _region(run):
    """Sweep the feedforward-passivity feasibility region to CSV."""
    from . import gains

    cfg = run.cfg
    reg = gains.FeasibleRegion(mu=float(cfg["mu"]), g=float(cfg["g"]), j=float(cfg["j"]))
    nu_lo = float(cfg.get("nu_min", 0.0))
    nu_hi = float(cfg.get("nu_max", reg.nu_intercept))
    points = int(cfg.get("points", 101))
    csv_path = run.out / "region.csv"
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
    return "pass", metrics, [csv_path]


@_command("gain")
def _gain(run):
    """Closed-form gain sweep to CSV."""
    from . import gains

    cfg = run.cfg
    formula = cfg["formula"]
    if formula == "ifp_osp":
        b = float(cfg.get("b", 0.0))
        param, rows = "a", [(a, gains.ifp_osp_gain(float(a), b).gamma) for a in cfg["grid"]]
    elif formula == "dt_gradient":
        mu = float(cfg.get("mu", 1.0))
        grid = [1e-6] + [float(v) for v in cfg["grid"]]  # asymptote row first
        param, rows = "alpha", [(alpha, gains.dt_gradient_gain(mu, alpha).gamma) for alpha in grid]
    elif formula == "ahu":
        K = cfg.get("K", np.zeros((np.atleast_2d(cfg["A"]).shape[0],) * 2))
        param, rows = "index", [(0.0, gains.ahu_gain(cfg["M"], cfg["A"], K).gamma)]
    else:
        raise EidLabError(f"unknown gain formula {formula!r}")
    csv_path = run.out / "gain_sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"{param},gamma\n")
        for k, g in rows:
            fh.write(f"{k},{g}\n")
    return "pass", {"formula": formula, "max_gamma": max(g for _, g in rows)}, [csv_path]


@_command("compose")
def _compose(run):
    """Supply-rate composition and kappa search across the feedback loop."""
    from . import interconnect

    cfg = run.cfg
    w1, w2 = _parse_supply(cfg["w1"]), _parse_supply(cfg["w2"])
    if "kappa" in cfg:
        comp = interconnect.compose_supply(w1, w2, float(cfg["kappa"]))
        lam = comp.lambda_max_q
        verdict = "pass" if lam < -run.tolerance else "fail"
        metrics = {"kappa": comp.kappa, "lambda_max_q": lam,
                   "Q_cl": comp.Q_cl, "S_cl": comp.S_cl, "R_cl": comp.R_cl}
    else:
        res = interconnect.kappa_search(w1, w2, tuple(cfg.get("kappa_range", (1e-4, 1e4))),
                                        grid=int(cfg.get("grid", 60)), tol=run.tolerance)
        verdict = res["verdict"]
        metrics = {"kappa": res["kappa"], "lambda_max_q": res["lambda_max_q"]}
    return verdict, metrics, []


@_command("circle", needs_system=True)
def _circle(run):
    """Sector absolute-stability certificate search."""
    from . import interconnect, systems

    sector = run.cfg["sector"]
    bounds = systems.SectorBounds.scalar(float(sector["alpha"]), float(sector["beta"]),
                                         m=run.system.m)
    res = interconnect.circle_criterion(run.system, bounds, run.generator(), run.pairs(),
                                        tol=run.tolerance)
    return res["verdict"], {"certified_eps": res["certified_eps"]}, []


@_command("simulate", needs_system=True)
def _simulate(run):
    """Simulate a trajectory and export it to CSV."""
    spec = run.cfg.get("input", {"type": "zero"})
    if spec["type"] not in ("zero", "constant"):
        raise EidLabError(f"unknown input type {spec['type']!r}")
    u = np.atleast_1d(np.asarray(spec["value"], dtype=float)) if spec["type"] == "constant" else None
    traj = run.simulate(run.cfg["x0"], u)
    csv_path = run.out / "trajectory.csv"
    traj.to_csv(csv_path)
    return "pass", {"final_state": traj.states[-1], "samples": len(traj)}, [csv_path]


@_command("audit", needs_system=True)
def _audit(run):
    """Simulate and audit the dissipation inequality along the run."""
    from . import certify, sim

    w = run.supply()
    xbar, eq = run.equilibrium()
    if run.system.discrete:
        storage = run.storage_matrix()
    else:
        storage = certify.BregmanStorage(run.generator(), xbar)
    traj = run.simulate(run.cfg.get("x0", xbar), eq.u)
    audit = sim.audit_dissipation(traj, storage, w, eq.u, eq.y, xbar=xbar, tol=run.tol)
    csv_path = run.out / "audit.csv"
    audit.to_csv(csv_path, times=traj.times)
    metrics = {"max_violation": audit.max_violation, "tol": audit.tol}
    return audit.verdict, metrics, [csv_path]


@_command("stability", needs_system=True)
def _stability(run):
    """Probe-shell convergence experiment around an equilibrium."""
    from . import sim

    xbar, eq = run.equilibrium()
    res = sim.stability_experiment(
        run.system, xbar, eq.u,
        radius=float(run.cfg.get("radius", 0.1)),
        probes=int(run.cfg.get("probes", 32)),
        horizon=float(run.cfg.get("horizon", 20.0)),
        dt=float(run.cfg.get("dt", 1e-3)),
        steps=int(run.cfg.get("steps", 2000)),
    )
    verdict = "pass" if res["converged_fraction"] == 1.0 else "fail"
    metrics = {"converged_fraction": res["converged_fraction"],
               "max_final_distance": res["max_final_distance"]}
    return verdict, metrics, []


@_command("io-relation", needs_system=True)
def _io_relation(run):
    """Sample the equilibrium I/O relation and check pairwise dissipativity."""
    from . import equilibria

    emap = equilibria.EquilibriumMap(run.system)
    samples = emap.sample_io_relation(run.region(), int(run.cfg.get("count", 50)), seed=run.seed)
    csv_path = run.out / "io_relation.csv"
    samples.to_csv(csv_path)
    rep = equilibria.check_relation_dissipativity(samples, run.supply(), tol=run.tolerance)
    verdict = "pass" if rep["monotone"] else "fail"
    metrics = {"min_pair_value": rep["min_pair_value"],
               "n_samples": len(samples),
               "projection_failures": samples.projection_failures}
    return verdict, metrics, [csv_path]


if __name__ == "__main__":
    main()
