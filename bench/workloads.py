"""The four benchmark workloads: certify, sweep, simulate and cli.

Each ``setup_<name>(seed, smoke, in_process)`` builds the systems and draws
every input from ``seed``, then returns ``tasks(p)``: the task list of pass
``p``.  A task is one public call that answers one question (one verdict,
one search, one experiment or one CLI command).  Its ``check`` compares the
answer with the paper's closed forms or the acceptance scenarios'
expectations and returns an error message, or None when it holds.

Library functions are always looked up through their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from eidlab import certify, equilibria, gains, interconnect, sim, systems

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_CONFIGS = BENCH_DIR / "cli_configs"

PH_PARAMS = {
    "J": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "R": np.diag([0.5, 0.2, 0.3, 0.1]).tolist(),
    "G": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "hamiltonian": {"P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(), "c": [0.3, 0.0, 0.2, 0.0]},
}
SMIB_PARAMS = {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2}
SMIB_REGION = (np.array([-1.2, -0.5]), np.array([1.2, 0.5]))
AHU_A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # a recorded library defect that makes this task raise (or its command
    # exit non-zero) today; that failure counts in ``failed`` but leaves the
    # run ``correct``, while a wrong answer from this task still does not
    known_defect: Optional[str] = None


def derive_seed(seed: int, *keys) -> int:
    """Independent sub-seed for one input, stable for a given workload seed."""
    words = [seed] + [k if isinstance(k, int) else zlib.crc32(k.encode()) for k in keys]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _box(n, half=1.0):
    return (-half * np.ones(n), half * np.ones(n))


def _expect(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def ifp_osp_gain_closed_form(a: float, b: float) -> float:
    """gamma for the supply (-a, 1/2, b): min over delta > 1/(2a) of
    sqrt((b + delta/2) / (a - 1/(2 delta))), attained at
    delta* = (sqrt(4ab + 1) + 1) / (2a)."""
    delta = (np.sqrt(4.0 * a * b + 1.0) + 1.0) / (2.0 * a)
    return float(np.sqrt((b + delta / 2.0) / (a - 1.0 / (2.0 * delta))))


def gaussian_signals(rng, count, m, steps, scale, support):
    """Gaussian disturbances active on the first ``support`` share of the horizon."""
    active = max(1, int(support * steps))
    out = []
    for _ in range(count):
        sig = np.zeros((steps, m))
        sig[:active] = scale * rng.normal(size=(active, m))
        out.append(sig)
    return out


# ---------------------------------------------------------------------------
# certify: fresh pairs and one verdict per task, no pair set reused


@dataclass
class CertifyCase:
    label: str
    system: object
    region: tuple
    count: int
    supply: object
    expect_pass: bool
    storage: object = None  # generator (CT) or P matrix (DT); default system.storage
    options: dict = None


def _certify_cases(smoke: bool) -> list:
    # 200 second-order pairs cost about what 300 pairs of the four cheapest
    # families do, so task_p50_ms falls inside that group of ten tasks
    n_ph, n, n_so = (100, 40, 40) if smoke else (2000, 300, 200)
    sr = systems.SupplyRate
    osp = sr.output_strict

    ph = systems.catalog_build("port_hamiltonian", PH_PARAMS)
    sqrt_r, grad_h = ph.meta["sqrt_R"], ph.meta["grad_H"]
    ell = lambda x, xb: sqrt_r @ (grad_h(x) - grad_h(xb))
    so = systems.catalog_build("second_order", {"mu": 1.0, "c": 0.5})
    smib = systems.catalog_build("smib", SMIB_PARAMS)
    gff = systems.catalog_build("gradient_ff", {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1})
    ahu = systems.catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "c": [0.5] * 4, "A": AHU_A.tolist(), "b": [1.0, -0.5], "alpha": 1.0})
    dti = systems.catalog_build("dt_integrator", {"alpha": 0.5, "n": 2})
    lti = systems.catalog_build("lti", {"F": (0.5 * np.eye(2)).tolist(),
                                        "G": np.eye(2).tolist(), "discrete": True})
    ifp = lambda q: sr(-q * np.eye(2), 0.5 * np.eye(2), 0.5 * np.eye(2), warn_definite=False)
    return [
        # acceptance 1: exact passivity certificate with the dissipation factor ell
        CertifyCase("port_hamiltonian/pass", ph, _box(4), n_ph, sr.passivity(2), True,
                    options=dict(ell=ell, mode="equality", tol_a=1e-9, tol_b=1e-9, tol_c=1e-9)),
        # y = G'grad H only sees R through components 1 and 3 (0.5, 0.3): OSP(5) fails
        CertifyCase("port_hamiltonian/fail", ph, _box(4), n_ph, osp(5.0, 2), False),
        # dV = -x2^2 = -y^2: output strict up to a = 1
        CertifyCase("second_order/pass", so, _box(2, 2.0), n_so, osp(0.5, 1), True),
        CertifyCase("second_order/fail", so, _box(2, 2.0), n_so, osp(2.0, 1), False),
        # dV = -D omega^2 with D = 1
        CertifyCase("smib/pass", smib, SMIB_REGION, n, osp(0.5, 1), True),
        CertifyCase("smib/fail", smib, SMIB_REGION, n, osp(2.0, 1), False),
        # (nu, rho) = (0.3, 0.27) inside and (0.3, 0.622) outside the feasible region
        CertifyCase("gradient_ff/pass", gff, _box(1), n,
                    sr([[-0.27]], [[0.5]], [[-0.3]], warn_definite=False), True),
        CertifyCase("gradient_ff/fail", gff, _box(1), n,
                    sr([[-0.622]], [[0.5]], [[-0.3]], warn_definite=False), False),
        # unit storage weight: strong monotonicity mu = 1 gives OSP up to a = 1
        CertifyCase("ahu_saddle/pass", ahu, _box(6), n, osp(0.5, 4), True),
        CertifyCase("ahu_saddle/fail", ahu, _box(6), n, osp(2.0, 4), False),
        # x+ = x + alpha u with P = I/(2 alpha): IFP with R = alpha/2 is exact, OSP is not
        CertifyCase("dt_integrator/pass", dti, _box(2), n, ifp(0.0), True, dti.meta["P"]),
        CertifyCase("dt_integrator/fail", dti, _box(2), n, ifp(0.5), False, dti.meta["P"]),
        # x+ = x/2 + u, y = x has l2 gain 2; P = 2I certifies gamma = 2.5, none can 1.5
        CertifyCase("lti_dt/pass", lti, _box(2), n, sr.l2_gain(2.5, 2, 2), True, 2.0 * np.eye(2)),
        CertifyCase("lti_dt/fail", lti, _box(2), n, sr.l2_gain(1.5, 2, 2), False, 2.0 * np.eye(2)),
    ]


def _run_certify_case(case: CertifyCase, pair_seed: int):
    pairs = certify.sample_pairs(case.system, case.region, count=case.count, seed=pair_seed)
    options = case.options or {}
    if case.system.discrete:
        return certify.verify_eid_dt(case.system, case.supply, case.storage, pairs, **options)
    storage = case.storage or case.system.storage
    return certify.verify_eid_ct(case.system, case.supply, storage, pairs, **options)


def _check_certify_case(case: CertifyCase, cert) -> Optional[str]:
    if cert.n_pairs != case.count:
        return f"{case.label}: {cert.n_pairs} pairs evaluated, expected {case.count}"
    return _expect(cert.passed == case.expect_pass,
                   f"{case.label}: verdict {cert.verdict}, expected "
                   f"{'pass' if case.expect_pass else 'fail'}")


def setup_certify(seed: int, smoke: bool, in_process: bool = True):
    cases = _certify_cases(smoke)

    def tasks(p: int) -> list:
        return [Task(case.label,
                     partial(_run_certify_case, case, derive_seed(seed, p, k)),
                     partial(_check_certify_case, case))
                for k, case in enumerate(cases)]

    return tasks


# ---------------------------------------------------------------------------
# sweep: boundary searches and relation checks over pair sets drawn once


def setup_sweep(seed: int, smoke: bool, in_process: bool = True):
    # one kappa search per pass: pooled over passes, the kappa_search samples
    # are the 41st fastest of every 45 tasks, so task_p90_ms falls near their
    # median; with more per pass it would fall in the noisy upper tail of
    # their times
    n_circle, n_region_points, n_relation, n_kappa = (80, 4, 30, 1) if smoke else (400, 20, 300, 1)
    sr = systems.SupplyRate

    smib = systems.catalog_build("smib", SMIB_PARAMS)
    circle_pairs = certify.sample_pairs(smib, SMIB_REGION, count=n_circle,
                                        seed=derive_seed(seed, "circle"))
    pass_sector = systems.SectorBounds.scalar(0.0, 1.0)
    fail_sector = systems.SectorBounds.scalar(-1.5, 1.0)

    # acceptance 3: gradient_ff region with closed-form boundary
    mu, g, j = 2.0, 1.0, 0.9
    gff = systems.catalog_build("gradient_ff", {"mu": mu, "g": g, "j": j, "n": 1})
    region_pairs = certify.sample_pairs(gff, _box(1), count=60, seed=derive_seed(seed, "region"))
    rng = np.random.default_rng(derive_seed(seed, "region-points"))
    points = []
    for _ in range(n_region_points):
        nu = rng.uniform(0.0, 0.7)
        curvature_cap = mu * (j - nu) / (mu * j**2 + g**2 * (j - nu))
        feedthrough_cap = (j - nu) / j**2
        rho_in = rng.uniform(0.1, 0.9) * curvature_cap
        rho_out = curvature_cap + rng.uniform(0.1, 0.9) * (0.95 * feedthrough_cap - curvature_cap)
        points += [(nu, rho_in, True), (nu, rho_out, False)]

    # acceptance 8: gradient loop supplies with (lam, alpha) drawn so that
    # alpha < 2 lam / L; kappa = 1 then already gives a negative definite Q_cl
    rng = np.random.default_rng(derive_seed(seed, "kappa"))
    lip, mu_loop = 1.5, 1.0
    loops = []
    for _ in range(n_kappa):
        lam = rng.uniform(0.5, 0.9)
        alpha = rng.uniform(0.2, 0.8) * 2.0 * lam / lip
        w1 = sr(np.zeros((1, 1)), 0.5 * np.eye(1), (alpha / 2) * np.eye(1), warn_definite=False)
        w2 = sr(-(lam / lip) * np.eye(1), 0.5 * np.eye(1), -(1 - lam) * mu_loop * np.eye(1),
                warn_definite=False)
        loops.append((w1, w2, -min((1 - lam) * mu_loop, lam / lip - alpha / 2)))

    # equilibrium I/O relation of the saddle flow: u - u' = grad phi(z) - grad phi(z')
    # on A z = b, so it is strongly monotone with modulus mu = 1
    b = np.random.default_rng(derive_seed(seed, "relation-b")).uniform(-1.0, 1.0, size=2)
    ahu = systems.catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "c": [0.5] * 4, "A": AHU_A.tolist(), "b": b.tolist()})
    relation = equilibria.EquilibriumMap(ahu).sample_io_relation(
        _box(6), n_relation, seed=derive_seed(seed, "relation"))
    n_rel = len(relation)
    rel_pairs = n_rel * (n_rel - 1) // 2
    if n_rel < 2:
        raise RuntimeError("relation sample has fewer than two equilibria")
    passivity = sr.passivity(4)

    def region_task(nu, rho, inside):
        w = sr([[-rho]], [[0.5]], [[-nu]], warn_definite=False)
        return Task(f"region/{'inside' if inside else 'outside'}",
                    lambda: certify.verify_eid_ct(gff, w, gff.storage, region_pairs),
                    lambda cert: _expect(cert.passed == inside,
                                         f"region point (nu={nu:.3f}, rho={rho:.3f}) "
                                         f"verdict {cert.verdict}"))

    def kappa_task(w1, w2, lambda_at_one):
        return Task("kappa_search", lambda: interconnect.kappa_search(w1, w2),
                    lambda r: _expect(r["passed"] and r["lambda_max_q"] <= lambda_at_one + 1e-9,
                                      f"kappa search lambda {r['lambda_max_q']:.3e} above the "
                                      f"kappa = 1 value {lambda_at_one:.3e}"))

    def tasks(p: int) -> list:
        out = [
            Task("circle/pass_sector",
                 lambda: interconnect.circle_criterion(smib, pass_sector, smib.storage, circle_pairs),
                 lambda r: _expect(r["passed"] and r["certified_eps"] >= 0.3,
                                   f"sector [0,1]: certified eps {r['certified_eps']}")),
            Task("circle/fail_sector",
                 lambda: interconnect.circle_criterion(smib, fail_sector, smib.storage, circle_pairs),
                 lambda r: _expect(not r["passed"], "sector [-1.5,1] was certified")),
        ]
        out += [region_task(*pt) for pt in points]
        out += [kappa_task(*loop) for loop in loops]
        out += [
            Task("relation_dissipativity",
                 lambda: equilibria.check_relation_dissipativity(relation, passivity),
                 lambda r: _expect(r["monotone"] and r["n_pairs"] == rel_pairs,
                                   f"relation not monotone: min {r['min_pair_value']:.3e}")),
            Task("cocoercivity",
                 lambda: equilibria.cocoercivity_check(relation, 0.9),
                 lambda r: _expect(r["holds"], f"cocoercivity 0.9 < mu violated: "
                                               f"min margin {r['min_margin']:.3e}")),
        ]
        return out

    return tasks


# ---------------------------------------------------------------------------
# simulate: RK4 and exact iteration; the certificate kernel sits idle


def setup_simulate(seed: int, smoke: bool, in_process: bool = True):
    probes, n_ahu_signals, n_dt_signals = (4, 2, 4) if smoke else (32, 8, 20)
    rng = np.random.default_rng(derive_seed(seed, "simulate"))

    smib = systems.catalog_build("smib", SMIB_PARAMS)
    smib_loop = interconnect.static_feedback(smib, np.tanh)
    smib_map = equilibria.EquilibriumMap(smib)
    smib_eq = smib_map.ku_ky(smib_map.project(np.array([rng.uniform(-0.4, 0.4), 0.0])))

    dtg = systems.catalog_build("dt_gradient", {"mu": [1.0, 2.0], "c": 0.5, "alpha": 0.5})
    dtg_eq = equilibria.EquilibriumMap(dtg).ku_ky(rng.uniform(-1.0, 1.0, size=2))

    ahu = systems.catalog_build("ahu_saddle", {
        "mu": [1.0] * 4, "A": AHU_A.tolist(), "b": rng.uniform(-1.0, 1.0, size=2).tolist()})
    ahu_xbar = equilibria.EquilibriumMap(ahu).solve_equilibrium(np.zeros(4), np.zeros(6))
    ahu_signals = gaussian_signals(rng, n_ahu_signals, 4, 200, scale=0.5, support=0.6)
    ahu_bound = 1.0  # gamma* = 1 / lambda_min(M + A'KA) with M = I, K = 0

    mu_dt, alpha_dt = 1.0, 0.5
    dt_grad = systems.catalog_build("dt_gradient", {"mu": mu_dt, "alpha": alpha_dt})
    dt_signals = gaussian_signals(rng, n_dt_signals, 1, 200, scale=1.0, support=0.3)
    # output strict with modulus mu, feedforward excess alpha / 2
    dt_bound = ifp_osp_gain_closed_form(mu_dt, alpha_dt / 2.0)

    ph = systems.catalog_build("port_hamiltonian", PH_PARAMS)
    ph_map = equilibria.EquilibriumMap(ph)
    ph_eq = ph_map.ku_ky(ph_map.project(rng.uniform(-0.3, 0.3, size=4)))
    ph_x0 = ph_eq.x + rng.uniform(-0.3, 0.3, size=4)
    ph_storage = certify.BregmanStorage(ph.storage, ph_eq.x)
    ph_dt, ph_T = 5e-3, 2.0

    def ph_audit():
        traj = sim.simulate_ct(ph, ph_x0, lambda t: ph_eq.u, T=ph_T, dt=ph_dt)
        return sim.audit_dissipation(traj, ph_storage, systems.SupplyRate.passivity(2),
                                     ph_eq.u, ph_eq.y, tol=sim.ct_audit_tol(ph_dt, ph_T))

    def converged(r):
        return _expect(r["converged_fraction"] == 1.0 and r["n_probes"] == probes,
                       f"{r['converged_fraction']:.3f} of {r['n_probes']} probes converged")

    def gain_within(bound):
        return lambda r: _expect(0.0 < r["gain"] <= 1.01 * bound,
                                 f"empirical gain {r['gain']:.4f} vs closed form {bound:.4f}")

    def tasks(p: int) -> list:
        return [
            # acceptance 6 loop with a shorter horizon: 160 RK4 steps per probe
            Task("stability/smib_tanh",
                 lambda: sim.stability_experiment(smib_loop, smib_eq.x, smib_eq.u, radius=0.3,
                                                  probes=probes, horizon=8.0, dt=0.05),
                 converged),
            Task("stability/dt_gradient",
                 lambda: sim.stability_experiment(dtg, dtg_eq.x, dtg_eq.u, radius=0.3,
                                                  probes=probes, steps=40),
                 converged),
            Task("empirical_gain/ahu_saddle",
                 lambda: gains.empirical_gain(ahu, ahu_xbar, ahu_signals, dt=0.04),
                 gain_within(ahu_bound)),
            Task("empirical_gain/dt_gradient",
                 lambda: gains.empirical_gain(dt_grad, np.zeros(1), dt_signals),
                 gain_within(dt_bound)),
            Task("simulate_audit/port_hamiltonian", ph_audit,
                 lambda a: _expect(a.passed, f"audit violation {a.max_violation:.3e} > {a.tol:.3e}")),
        ]

    return tasks


# ---------------------------------------------------------------------------
# cli: each eid-lab command on a small fixed config


class CommandError(Exception):
    """An eid-lab command exited with status 1 (configuration or runtime error)."""


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Peak resident memory (KiB) of each CLI command's own process, in run order.
# Read from the child's own rusage, so that other children of the benchmark
# (set-up and calibration interpreters) never count in it.
CLI_CHILD_MAXRSS_KB: list = []
CLI_TIMEOUT_S = 120.0


def _run_cli_subprocess(args: list, env: dict):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "cli-stdout.txt", "w+") as out, open(out_dir / "cli-stderr.txt", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "eidlab.cli", *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        deadline = time.monotonic() + CLI_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise CommandError(f"eid-lab {args[0]} timed out after {CLI_TIMEOUT_S:.0f} s")
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        CLI_CHILD_MAXRSS_KB.append(usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read()


def _run_cli_in_process(args: list):
    from eidlab import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="eid-lab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _cli_result(runner, args):
    code, stdout, stderr = runner(args)
    if code not in (0, 2):
        raise CommandError(f"eid-lab {args[0]} exited {code}: {stderr.strip()[-200:]}")
    return code, json.loads(stdout)


def _cli_check(expected_metrics: Callable[[dict], Optional[str]]):
    def check(result):
        code, report = result
        if code != 0 or report["verdict"] != "pass":
            return f"{report['command']}: verdict {report['verdict']} (exit {code}), expected pass"
        return expected_metrics(report["metrics"])
    return check


def _cli_commands(out_dir: Path) -> list:
    """(command, system file, config file, metric check) for all 11 commands."""
    gain_cfg = json.loads((CLI_CONFIGS / "gain.json").read_text())
    gain_max = max(ifp_osp_gain_closed_form(gain_cfg["mu"], a / 2.0)
                   for a in [1e-6] + gain_cfg["grid"])
    region_cfg = json.loads((CLI_CONFIGS / "region.json").read_text())
    mu, g, j = region_cfg["mu"], region_cfg["g"], region_cfg["j"]
    compose_cfg = json.loads((CLI_CONFIGS / "compose.json").read_text())
    q1, r1 = compose_cfg["w1"]["Q"][0][0], compose_cfg["w1"]["R"][0][0]
    q2, r2 = compose_cfg["w2"]["Q"][0][0], compose_cfg["w2"]["R"][0][0]
    # S1 = S2 = 1/2 and kappa = 1 make Q_cl diagonal: diag(Q1 + R2, R1 + Q2)
    compose_lambda = max(q1 + r2, r1 + q2)

    def close(value, expected, tol, what):
        return _expect(abs(value - expected) <= tol, f"{what} {value!r}, expected {expected!r}")

    def region_check(m):
        csv_rows = len((out_dir / "region" / "region.csv").read_text().splitlines())
        return (close(m["nu_intercept"], j, 1e-12, "nu intercept")
                or close(m["rho_intercept_eq16"], 1.0 / j, 1e-12, "feedthrough rho intercept")
                or close(m["rho_intercept_eq18"], mu / (mu * j + g**2), 1e-12,
                         "curvature rho intercept")
                or _expect(csv_rows == region_cfg["points"] + 1, f"region.csv has {csv_rows} rows"))

    return [
        ("certify", "sys_second_order.json", "certify.json",
         lambda m: _expect(m["n_pairs"] == 200, f"{m['n_pairs']} pairs")),
        ("certify-dt", "sys_dt_integrator.json", "certify_dt.json",
         lambda m: _expect(m["n_pairs"] == 200, f"{m['n_pairs']} pairs")),
        # H omitted for n = 2 > m = 1, as the command allows; y = x has L2 gain
        # sqrt(1 + 1/4) < 1.5, and P = diag(2, 1) certifies it under either
        # storage convention (x'Px or x'Px / 2)
        ("kyp", None, "kyp.json",
         lambda m: _expect(m["lambda_max"] <= 1e-9, f"lambda_max {m['lambda_max']:.3e}")),
        ("region", None, "region.json", region_check),
        ("gain", None, "gain.json",
         lambda m: close(m["max_gamma"], gain_max, 1e-9, "max gamma")),
        ("compose", None, "compose.json",
         lambda m: close(m["lambda_max_q"], compose_lambda, 1e-9, "lambda_max(Q_cl)")),
        ("circle", "sys_smib.json", "circle.json",
         lambda m: _expect(m["certified_eps"] >= 0.3, f"certified eps {m['certified_eps']}")),
        # xdot = -x from x0 = 1: x(1) = exp(-1)
        ("simulate", "sys_lti_decay.json", "simulate.json",
         lambda m: _expect(m["samples"] == 101, f"{m['samples']} samples")
         or close(m["final_state"][0], float(np.exp(-1.0)), 1e-8, "x(1)")),
        ("audit", "sys_second_order.json", "audit.json",
         lambda m: _expect(m["max_violation"] <= m["tol"], "audit violation")),
        ("stability", "sys_smib.json", "stability.json",
         lambda m: _expect(m["converged_fraction"] == 1.0,
                           f"converged fraction {m['converged_fraction']}")),
        ("io-relation", "sys_ahu_saddle.json", "io_relation.json",
         lambda m: _expect(m["n_samples"] + m["projection_failures"] == 40 and m["n_samples"] >= 2,
                           f"{m['n_samples']} samples, {m['projection_failures']} failures")),
    ]


KNOWN_CLI_DEFECTS = {
    "kyp": "eid-lab kyp with H omitted for n > m exits 1 (inconsistent LTI matrix dimensions)",
}


def setup_cli(seed: int, smoke: bool, in_process: bool = False):
    from eidlab import cli  # noqa: F401  (click and the CLI module are part of set-up)

    out_dir = ROOT / ".bench_out" / "cli"
    runner = _run_cli_in_process if in_process else partial(_run_cli_subprocess, env=cli_env())
    commands = _cli_commands(out_dir)

    def tasks(p: int) -> list:
        out = []
        for k, (command, system_file, config_file, metrics_check) in enumerate(commands):
            args = [command, "--config", str(CLI_CONFIGS / config_file),
                    "--out", str(out_dir / command), "--seed", str(derive_seed(seed, p, k) % 2**31)]
            if system_file:
                args += ["--system", str(CLI_CONFIGS / system_file)]
            out.append(Task(f"cli/{command}", partial(_cli_result, runner, args),
                            _cli_check(metrics_check), KNOWN_CLI_DEFECTS.get(command)))
        return out

    return tasks


WORKLOADS = {
    "certify": setup_certify,
    "sweep": setup_sweep,
    "simulate": setup_simulate,
    "cli": setup_cli,
}
