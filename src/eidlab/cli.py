"""Command-line front end.

Every command reads JSON configuration, runs one analysis, writes a JSON
report (and CSV artifacts where applicable) and exits 0 on a Pass verdict,
2 on a valid run with a Fail verdict, and 1 on configuration or runtime
errors.  Reports embed a hash of the resolved configuration and the seed so
runs are reproducible and diffable in CI.  Each command is one analysis body
registered with :func:`_command`, which owns everything else; a body imports
the modules it runs, so a process loads only those.  A config key left out
takes the library function's default and ``--tol`` is passed only when given;
``--system`` is loaded when a body first needs it.  Explicit-kappa ``compose``,
the one verdict judged here, passes when lambda_max(Q_cl) < -(--tol or 1e-9).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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


def _grid(cfg: dict) -> list:
    """The config's ``grid`` as floats: a ConfigError unless it is a list of JSON numbers."""
    grid = cfg["grid"]
    if not isinstance(grid, list) or not all(type(v) in (int, float) for v in grid):
        raise ConfigError(f"grid must be a list of numbers, got {grid!r}")
    return [float(v) for v in grid]


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return str(obj)


@dataclass
class _Run:
    """One command invocation: config, seed, ``--tol``, output directory, ``--system``."""

    cfg: dict
    seed: int
    tol: Optional[float]
    out: Path
    system_file: Optional[str]

    @functools.cached_property
    def system(self):
        """The ``--system`` description, loaded when a command first reads it."""
        if self.system_file is None:
            raise ConfigError("--system is required for this command")
        from .systems import load_system

        return load_system(self.system_file)

    def given(self, *tols, **convert) -> dict:
        """The keywords this run sets: ``--tol`` under each of ``tols`` if given,
        and each key of ``convert`` the config sets, converted by its function."""
        kw = {} if self.tol is None else dict.fromkeys(tols, self.tol)
        return kw | {key: to(self.cfg[key]) for key, to in convert.items() if key in self.cfg}

    def supply(self) -> SupplyRate:
        """The configured supply rate; passivity on the system's inputs by default."""
        return _parse_supply(self.cfg.get("supply", {"type": "passivity", "m": self.system.m}))

    def generator(self):
        if self.system.storage is None:
            raise ConfigError("system has no storage generator")
        return self.system.storage

    def storage_matrix(self):
        """The discrete-time storage matrix P: the config's, else the system's."""
        P = self.cfg.get("P", self.system.meta.get("P"))
        if P is None:
            raise ConfigError("no storage matrix P given or known for this system")
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
        return sim.simulate_ct(self.system, x0, u, **self.given(T=float, dt=float))


def _start(system_file, config_file, seed, tol, out_dir) -> _Run:
    cfg = {}
    if config_file is not None:
        with open(config_file) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("configuration must be a JSON object")
    if seed is None:
        env_seed = os.environ.get("EIDLAB_SEED") or "0"
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"EIDLAB_SEED must be an integer, got {env_seed!r}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _Run(cfg, seed, tol, out, system_file)


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


def _command(name: str):
    """Register ``body(run) -> (verdict, metrics, artifacts)`` as command ``name``."""
    def register(body):
        def command(system_file, config_file, seed, tol, out_dir):
            try:
                run = _start(system_file, config_file, seed, tol, out_dir)
                code = _emit(name, run, *body(run))
            except (EidLabError, OSError, KeyError, ValueError, TypeError) as exc:
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
    cert = verify(run.system, run.supply(), storage, run.pairs(), seed=run.seed,
                  **run.given("tol_a", "tol_b", mode=str))
    return cert.verdict, cert.to_dict(), []


@_command("certify")
def _certify(run):
    """Continuous-time EID certification for a catalog system."""
    from . import certify

    return _certificate(run, certify.verify_eid_ct, run.generator())


@_command("certify-dt")
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
    res = certify.verify_kyp_lti(cfg["F"], cfg["G"], H, J, w, cfg["P"], **run.given("tol"))
    return ("pass" if res["passed"] else "fail"), {"lambda_max": res["lambda_max"]}, []


@_command("region")
def _region(run):
    """Sweep the feedforward-passivity feasibility region to CSV."""
    from . import gains, systems

    cfg = run.cfg
    reg = gains.FeasibleRegion(mu=float(cfg["mu"]), g=float(cfg["g"]), j=float(cfg["j"]))
    nus = np.linspace(float(cfg.get("nu_min", 0.0)), float(cfg.get("nu_max", reg.nu_intercept)),
                      int(cfg.get("points", 101)))
    r16 = [reg.rho_max_feedthrough(nu) for nu in nus]
    r18 = [reg.rho_max_curvature(nu) for nu in nus]
    # probed at half the smaller bound; at rho = 0, membership reads nu < j
    member = [int(reg.membership(nu, 0.5 * min(a, b))) for nu, a, b in zip(nus, r16, r18)]
    csv_path = run.out / "region.csv"
    systems._write_csv(csv_path, {"nu": nus, "rho_max_eq16": r16, "rho_max_eq18": r18,
                                  "member": member})
    metrics = {
        "nu_intercept": reg.nu_intercept,
        "rho_intercept_eq16": reg.rho_intercept_feedthrough,
        "rho_intercept_eq18": reg.rho_intercept_curvature,
    }
    return "pass", metrics, [csv_path]


@_command("gain")
def _gain(run):
    """Closed-form gain sweep to CSV."""
    from . import gains, systems

    cfg = run.cfg
    formula = cfg["formula"]
    if formula == "ifp_osp":
        b = float(cfg.get("b", 0.0))
        param, grid = "a", _grid(cfg)
        gammas = [gains.ifp_osp_gain(a, b).gamma for a in grid]
    elif formula == "dt_gradient":
        mu = float(cfg.get("mu", 1.0))
        param, grid = "alpha", [1e-6] + _grid(cfg)  # asymptote row first
        gammas = [gains.dt_gradient_gain(mu, alpha).gamma for alpha in grid]
    elif formula == "ahu":
        K = cfg.get("K", np.zeros((np.atleast_2d(cfg["A"]).shape[0],) * 2))
        param, grid, gammas = "index", [0.0], [gains.ahu_gain(cfg["M"], cfg["A"], K).gamma]
    else:
        raise ConfigError(f"unknown gain formula {formula!r}")
    csv_path = run.out / "gain_sweep.csv"
    systems._write_csv(csv_path, {param: grid, "gamma": gammas})
    return "pass", {"formula": formula, "max_gamma": max(gammas)}, [csv_path]


@_command("compose")
def _compose(run):
    """Supply-rate composition and kappa search across the feedback loop."""
    from . import interconnect

    cfg = run.cfg
    w1, w2 = _parse_supply(cfg["w1"]), _parse_supply(cfg["w2"])
    if "kappa" in cfg:
        comp = interconnect.compose_supply(w1, w2, float(cfg["kappa"]))
        lam = comp.lambda_max_q
        verdict = "pass" if lam < -(1e-9 if run.tol is None else run.tol) else "fail"
        metrics = {"kappa": comp.kappa, "lambda_max_q": lam,
                   "Q_cl": comp.Q_cl, "S_cl": comp.S_cl, "R_cl": comp.R_cl}
    else:
        res = interconnect.kappa_search(w1, w2, **run.given("tol", kappa_range=tuple, grid=int))
        verdict = res["verdict"]
        metrics = {"kappa": res["kappa"], "lambda_max_q": res["lambda_max_q"]}
    return verdict, metrics, []


@_command("circle")
def _circle(run):
    """Sector absolute-stability certificate search."""
    from . import interconnect, systems

    sector = run.cfg["sector"]
    bounds = systems.SectorBounds.scalar(float(sector["alpha"]), float(sector["beta"]),
                                         m=run.system.m)
    res = interconnect.circle_criterion(run.system, bounds, run.generator(), run.pairs(),
                                        **run.given("tol"))
    return res["verdict"], {"certified_eps": res["certified_eps"]}, []


@_command("simulate")
def _simulate(run):
    """Simulate a trajectory and export it to CSV."""
    spec = run.cfg.get("input", {"type": "zero"})
    if spec["type"] not in ("zero", "constant"):
        raise ConfigError(f"unknown input type {spec['type']!r}")
    u = np.atleast_1d(np.asarray(spec["value"], dtype=float)) if spec["type"] == "constant" else None
    traj = run.simulate(run.cfg["x0"], u)
    csv_path = run.out / "trajectory.csv"
    traj.to_csv(csv_path)
    return "pass", {"final_state": traj.states[-1], "samples": len(traj)}, [csv_path]


@_command("audit")
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
    audit = sim.audit_dissipation(traj, storage, w, eq.u, eq.y, xbar=xbar, **run.given("tol"))
    csv_path = run.out / "audit.csv"
    audit.to_csv(csv_path, times=traj.times)
    metrics = {"max_violation": audit.max_violation, "tol": audit.tol}
    return audit.verdict, metrics, [csv_path]


@_command("stability")
def _stability(run):
    """Probe-shell convergence experiment around an equilibrium."""
    from . import sim

    xbar, eq = run.equilibrium()
    res = sim.stability_experiment(run.system, xbar, eq.u, **run.given(
        radius=float, probes=int, horizon=float, dt=float, steps=int))
    verdict = "pass" if res["converged_fraction"] == 1.0 else "fail"
    metrics = {"converged_fraction": res["converged_fraction"],
               "max_final_distance": res["max_final_distance"]}
    return verdict, metrics, []


@_command("io-relation")
def _io_relation(run):
    """Sample the equilibrium I/O relation and check pairwise dissipativity."""
    from . import equilibria

    emap = equilibria.EquilibriumMap(run.system)
    samples = emap.sample_io_relation(run.region(), int(run.cfg.get("count", 50)), seed=run.seed)
    csv_path = run.out / "io_relation.csv"
    samples.to_csv(csv_path)
    rep = equilibria.check_relation_dissipativity(samples, run.supply(), **run.given("tol"))
    verdict = "pass" if rep["monotone"] else "fail"
    metrics = {"min_pair_value": rep["min_pair_value"],
               "n_samples": len(samples),
               "projection_failures": samples.projection_failures}
    return verdict, metrics, [csv_path]


if __name__ == "__main__":
    main()
