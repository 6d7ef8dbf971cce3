import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from eidlab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _gradient_ff_system(tmp_path):
    return _write(tmp_path, "sys.json", {
        "schema": 1, "family": "gradient_ff",
        "params": {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1},
    })


def _report(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# certification commands


def test_certify_pass_and_report(runner, tmp_path):
    sys_path = _gradient_ff_system(tmp_path)
    # interior feedforward/output-strict pair (nu, rho) = (0.2, 0.3)
    cfg = _write(tmp_path, "cfg.json", {
        "supply": {"Q": [[-0.3]], "S": [[0.5]], "R": [[-0.2]]},
        "pairs": 100,
    })
    result = runner.invoke(main, ["certify", "--system", sys_path,
                                  "--config", cfg, "--seed", "1",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rep = _report(result)
    assert rep["verdict"] == "pass"
    assert rep["command"] == "certify"
    assert (tmp_path / "certify_report.json").exists()
    on_disk = json.loads((tmp_path / "certify_report.json").read_text())
    assert on_disk["config_hash"] == rep["config_hash"]
    residuals = rep["metrics"]["residuals"]
    assert [len(residuals[k]) for k in ("worst_a_pair", "worst_b_pair")] == [2, 2]


def test_certify_fail_exits_2(runner, tmp_path):
    sys_path = _gradient_ff_system(tmp_path)
    # rho = 1 lies outside the feasible output-strictness cap (about 0.71)
    # while keeping the certificate setup well posed
    cfg = _write(tmp_path, "cfg.json", {
        "supply": {"type": "output_strict", "a": 1.0}, "pairs": 100,
    })
    result = runner.invoke(main, ["certify", "--system", sys_path,
                                  "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert _report(result)["verdict"] == "fail"


def test_certify_malformed_config_exits_1(runner, tmp_path):
    sys_path = _gradient_ff_system(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["certify", "--system", sys_path,
                                  "--config", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 1


def test_certify_dt_uses_catalog_storage(runner, tmp_path):
    sys_path = _write(tmp_path, "dtsys.json", {
        "schema": 1, "family": "dt_integrator", "params": {"alpha": 0.5},
    })
    cfg = _write(tmp_path, "cfg.json", {
        "supply": {"Q": [[0.0]], "S": [[0.5]], "R": [[0.25]]},
        "pairs": 60,
    })
    result = runner.invoke(main, ["certify-dt", "--system", sys_path,
                                  "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert _report(result)["verdict"] == "pass"


def test_kyp_pass_and_fail(runner, tmp_path):
    base = {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]], "P": [[0.5]]}
    cfg_ok = _write(tmp_path, "ok.json", {**base,
                    "supply": {"type": "passivity", "m": 1}})
    result = runner.invoke(main, ["kyp", "--config", cfg_ok,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    cfg_bad = _write(tmp_path, "bad.json", {**base, "P": [[1.0]],
                     "supply": {"type": "l2_gain", "gamma": 0.9}})
    result = runner.invoke(main, ["kyp", "--config", cfg_bad,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_kyp_defaults_h_identity_and_zero_feedthrough(runner, tmp_path):
    # H omitted with n = 2 > m = 1: y = x (p = 2) with J = 0 (2 x 1);
    # |G(jw)|² = 1/(1+w²) + 1/(4+w²) peaks at 1.25 < 1.5²
    cfg = _write(tmp_path, "cfg.json", {
        "F": [[-1.0, 0.0], [0.0, -2.0]], "G": [[1.0], [1.0]],
        "P": [[2.0, 0.0], [0.0, 1.0]],
        "supply": {"type": "l2_gain", "gamma": 1.5, "p": 2, "m": 1},
    })
    result = runner.invoke(main, ["kyp", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert _report(result)["metrics"]["lambda_max"] <= 1e-9


# ---------------------------------------------------------------------------
# sweeps


def test_region_sweep_csv_and_metrics(runner, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"mu": 2.0, "g": 1.0, "j": 0.9,
                                        "points": 11})
    result = runner.invoke(main, ["region", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rep = _report(result)
    assert rep["metrics"]["nu_intercept"] == pytest.approx(0.9)
    assert rep["metrics"]["rho_intercept_eq16"] == pytest.approx(1.0 / 0.9)
    assert rep["metrics"]["rho_intercept_eq18"] == pytest.approx(2.0 / 2.8)
    lines = (tmp_path / "region.csv").read_text().splitlines()
    assert lines[0] == "nu,rho_max_eq16,rho_max_eq18,member"
    assert len(lines) == 12


def test_gain_sweep_includes_asymptote_row(runner, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"formula": "dt_gradient", "mu": 1.0,
                                        "grid": [0.5, 1.0, 1.9]})
    result = runner.invoke(main, ["gain", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "gain_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,gamma"
    first_alpha, first_gamma = map(float, lines[1].split(","))
    assert first_alpha == 1e-6
    assert first_gamma == pytest.approx(1.0, abs=1e-3)
    assert len(lines) == 5


def test_gain_ahu_matches_the_library(runner, tmp_path):
    from eidlab import gains

    M, A = [[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0]]
    cfg = _write(tmp_path, "cfg.json", {"formula": "ahu", "M": M, "A": A})
    result = runner.invoke(main, ["gain", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    gamma = gains.ahu_gain(M, A, np.zeros((1, 1))).gamma
    assert gamma == pytest.approx(1.0)
    assert _report(result)["metrics"] == {"formula": "ahu", "max_gamma": gamma}
    lines = (tmp_path / "gain_sweep.csv").read_text().splitlines()
    assert lines == ["index,gamma", f"0.0,{gamma}"]


# ---------------------------------------------------------------------------
# interconnection commands


def test_compose_fixed_kappa_and_search(runner, tmp_path):
    cfg = _write(tmp_path, "fixed.json", {
        "w1": {"type": "output_strict", "a": 1.0},
        "w2": {"type": "output_strict", "a": 1.0},
        "kappa": 1.0,
    })
    result = runner.invoke(main, ["compose", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    cfg = _write(tmp_path, "search.json", {
        "w1": {"type": "passivity"}, "w2": {"type": "passivity"},
    })
    result = runner.invoke(main, ["compose", "--config", cfg,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "kappa" in _report(result)["metrics"]


def test_compose_tol_zero_is_not_replaced(runner, tmp_path):
    # S1 = S2 = 1/2 and kappa = 1 make Q_cl = diag(Q1 + R2, R1 + Q2) = -1e-10 I,
    # negative definite, which passes at --tol 0 and fails at the 1e-9 default
    w = {"Q": [[-1e-10]], "S": [[0.5]], "R": [[0.0]]}
    cfg = _write(tmp_path, "cfg.json", {"w1": w, "w2": w, "kappa": 1.0})
    args = ["compose", "--config", cfg, "--out", str(tmp_path)]
    assert runner.invoke(main, args + ["--tol", "0"]).exit_code == 0
    assert runner.invoke(main, args).exit_code == 2


def test_compose_reads_an_input_feedforward_supply(runner, tmp_path):
    from eidlab import interconnect
    from eidlab.systems import SupplyRate

    cfg = _write(tmp_path, "cfg.json", {"w1": {"type": "input_feedforward", "nu": 0.3},
                                        "w2": {"type": "passivity"}, "kappa": 2.0})
    result = runner.invoke(main, ["compose", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code in (0, 2), result.output
    comp = interconnect.compose_supply(SupplyRate.input_feedforward(0.3, 1),
                                       SupplyRate.passivity(1), 2.0)
    metrics = _report(result)["metrics"]
    for key in ("Q_cl", "S_cl", "R_cl"):
        assert metrics[key] == getattr(comp, key).tolist()


def test_keys_a_config_leaves_out_take_the_library_defaults(runner, tmp_path, monkeypatch):
    # the CLI passes a key only when the config sets it, and --tol only when given
    from eidlab import interconnect, sim

    calls = []
    monkeypatch.setattr(sim, "stability_experiment", lambda *a, **kw: calls.append(kw) or {
        "converged_fraction": 1.0, "max_final_distance": 0.0})
    monkeypatch.setattr(interconnect, "kappa_search", lambda *a, **kw: calls.append(kw) or {
        "verdict": "pass", "kappa": 1.0, "lambda_max_q": -1.0})
    sys_path = _write(tmp_path, "sys.json", {"schema": 1, **_SYSTEMS["dt_gradient"]})
    supplies = {"w1": {"type": "passivity"}, "w2": {"type": "passivity"}}
    for command, config, extra in [
        ("stability", {"xbar": [0.0]}, []),
        ("stability", {"xbar": [0.0], "probes": 3.0, "steps": 10}, []),
        ("compose", supplies, []),
        ("compose", {**supplies, "kappa_range": [0.1, 10], "grid": 5}, ["--tol", "0.5"]),
    ]:
        cfg = _write(tmp_path, "cfg.json", config)
        result = runner.invoke(main, [command, "--system", sys_path, "--config", cfg,
                                      "--out", str(tmp_path)] + extra)
        assert result.exit_code == 0, result.output
    assert calls == [{}, {"probes": 3, "steps": 10}, {},
                     {"kappa_range": (0.1, 10), "grid": 5, "tol": 0.5}]
    assert type(calls[1]["probes"]) is int


def test_circle_certifies_smib_sector(runner, tmp_path):
    sys_path = _write(tmp_path, "smib.json", {
        "schema": 1, "family": "smib",
        "params": {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2},
    })
    cfg = _write(tmp_path, "cfg.json", {
        "sector": {"alpha": 0.0, "beta": 1.0},
        "region": {"lo": [-1.2, -0.5], "hi": [1.2, 0.5]},
        "pairs": 200,
    })
    result = runner.invoke(main, ["circle", "--system", sys_path,
                                  "--config", cfg, "--seed", "3",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert _report(result)["metrics"]["certified_eps"] >= 0.3


# ---------------------------------------------------------------------------
# trajectory commands


def test_simulate_writes_trajectory(runner, tmp_path):
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "second_order", "params": {"mu": 1.0},
    })
    cfg = _write(tmp_path, "cfg.json", {"x0": [0.1, 0.0], "T": 0.1, "dt": 1e-3})
    result = runner.invoke(main, ["simulate", "--system", sys_path,
                                  "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,u_1,y_1"
    assert len(lines) == 102
    # 100 steps, 101 samples; the last sample has no input of its own
    assert _report(result)["metrics"]["samples"] == 101
    assert lines[-1].split(",")[3] == ""


def test_audit_pass(runner, tmp_path):
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "second_order", "params": {"mu": 1.0},
    })
    cfg = _write(tmp_path, "cfg.json", {
        "xbar": [0.5, 0.0], "x0": [0.6, 0.1], "T": 2.0, "dt": 1e-3,
        "supply": {"type": "passivity", "m": 1},
    })
    result = runner.invoke(main, ["audit", "--system", sys_path,
                                  "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "audit.csv").exists()
    rep = _report(result)
    assert rep["metrics"]["max_violation"] <= rep["metrics"]["tol"]


def test_stability_fail_for_expansive_step(runner, tmp_path):
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "dt_gradient", "params": {"mu": 1.0, "alpha": 3.0},
    })
    cfg = _write(tmp_path, "cfg.json", {"xbar": [0.0], "radius": 0.2,
                                        "probes": 4, "steps": 200})
    result = runner.invoke(main, ["stability", "--system", sys_path,
                                  "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert _report(result)["metrics"]["converged_fraction"] == 0.0


def test_io_relation_monotone(runner, tmp_path):
    sys_path = _gradient_ff_system(tmp_path)
    cfg = _write(tmp_path, "cfg.json", {"count": 20})
    result = runner.invoke(main, ["io-relation", "--system", sys_path,
                                  "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rep = _report(result)
    assert rep["metrics"]["min_pair_value"] >= -1e-9
    lines = (tmp_path / "io_relation.csv").read_text().splitlines()
    assert lines[0] == "x_1,u_1,y_1"


# ---------------------------------------------------------------------------
# reproducibility plumbing


def test_seed_env_fallback(runner, tmp_path, monkeypatch):
    sys_path = _gradient_ff_system(tmp_path)
    monkeypatch.setenv("EIDLAB_SEED", "77")
    result = runner.invoke(main, ["certify", "--system", sys_path,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert _report(result)["seed"] == 77


def test_non_integer_seed_env_is_a_config_error(runner, tmp_path, monkeypatch):
    # int() used to fail with a message that named no setting
    sys_path = _gradient_ff_system(tmp_path)
    monkeypatch.setenv("EIDLAB_SEED", "abc")
    result = runner.invoke(main, ["certify", "--system", sys_path, "--out", str(tmp_path)])
    assert _error(result) == "error: EIDLAB_SEED must be an integer, got 'abc'"
    # --seed wins, so the variable is never read
    result = runner.invoke(main, ["certify", "--system", sys_path, "--seed", "3",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output


def test_config_hash_deterministic(runner, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"mu": 2.0, "g": 1.0, "j": 0.9})
    hashes = set()
    for _ in range(2):
        result = runner.invoke(main, ["region", "--config", cfg,
                                      "--out", str(tmp_path)])
        hashes.add(_report(result)["config_hash"])
    assert len(hashes) == 1


def test_missing_system_is_an_error(runner, tmp_path):
    result = runner.invoke(main, ["certify", "--out", str(tmp_path)])
    assert result.exit_code != 0


def test_system_path_with_brace_in_directory(runner, tmp_path):
    run_dir = tmp_path / "run{1}"
    run_dir.mkdir()
    sys_path = _gradient_ff_system(run_dir)
    cfg = _write(tmp_path, "cfg.json", {
        "supply": {"Q": [[-0.3]], "S": [[0.5]], "R": [[-0.2]]}, "pairs": 50,
    })
    result = runner.invoke(main, ["certify", "--system", sys_path, "--config", cfg,
                                  "--seed", "1", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert _report(result)["verdict"] == "pass"


# ---------------------------------------------------------------------------
# the contract every command shares


_SYSTEMS = {
    "gradient_ff": {"family": "gradient_ff", "params": {"mu": 2.0, "g": 1.0, "j": 0.9, "n": 1}},
    "dt_integrator": {"family": "dt_integrator", "params": {"alpha": 0.5}},
    "smib": {"family": "smib", "params": {"M": 1.0, "D": 1.0, "b": 1.0, "V": 1.0, "P_m": 0.2}},
    "lti_decay": {"family": "lti", "params": {"F": [[-1.0]], "G": [[1.0]]}},
    "second_order": {"family": "second_order", "params": {"mu": 1.0}},
    "dt_gradient": {"family": "dt_gradient", "params": {"mu": 1.0, "alpha": 3.0}},
}

# (command, system or None, small config); both verdicts occur
_CONTRACT_CASES = [
    ("certify", "gradient_ff",
     {"supply": {"Q": [[-0.3]], "S": [[0.5]], "R": [[-0.2]]}, "pairs": 30}),
    ("certify-dt", "dt_integrator",
     {"supply": {"Q": [[0.0]], "S": [[0.5]], "R": [[0.25]]}, "pairs": 30}),
    ("kyp", None, {"F": [[-1.0]], "G": [[1.0]], "H": [[1.0]], "P": [[0.5]],
                   "supply": {"type": "passivity"}}),
    ("region", None, {"mu": 2.0, "g": 1.0, "j": 0.9, "points": 5}),
    ("gain", None, {"formula": "ifp_osp", "b": 0.5, "grid": [0.5, 1.0]}),
    ("compose", None, {"w1": {"type": "passivity"}, "w2": {"type": "passivity"},
                       "grid": 10}),
    ("circle", "smib", {"sector": {"alpha": 0.0, "beta": 1.0}, "pairs": 40,
                        "region": {"lo": [-1.2, -0.5], "hi": [1.2, 0.5]}}),
    ("simulate", "lti_decay", {"x0": [1.0], "T": 0.1, "dt": 0.01}),
    ("audit", "second_order", {"xbar": [0.5, 0.0], "x0": [0.6, 0.1], "T": 0.2, "dt": 0.01}),
    ("stability", "dt_gradient", {"xbar": [0.0], "radius": 0.2, "probes": 4, "steps": 50}),
    ("io-relation", "gradient_ff", {"count": 10}),
]


def test_contract_cases_cover_every_command():
    assert sorted(c for c, _, _ in _CONTRACT_CASES) == sorted(main.commands)


@pytest.mark.parametrize("command,system,config", _CONTRACT_CASES,
                         ids=[c for c, _, _ in _CONTRACT_CASES])
def test_command_contract(runner, tmp_path, command, system, config):
    out = tmp_path / "out"
    args = [command, "--config", _write(tmp_path, "cfg.json", config), "--seed", "2",
            "--out", str(out)]
    if system is not None:
        sys_path = _write(tmp_path, "sys.json", {"schema": 1, **_SYSTEMS[system]})
        missing = runner.invoke(main, args)
        assert missing.exit_code == 1
        assert missing.stderr.strip() == "error: --system is required for this command"
        args += ["--system", sys_path]
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 2), result.output
    rep = json.loads(result.stdout)
    assert result.exit_code == (0 if rep["verdict"] == "pass" else 2)
    assert list(rep) == ["command", "config_hash", "seed", "verdict", "metrics", "artifacts"]
    assert rep["command"] == command and rep["seed"] == 2
    on_disk = out / f"{command.replace('-', '_')}_report.json"
    assert json.loads(on_disk.read_text()) == rep
    for artifact in rep["artifacts"]:
        assert Path(artifact).is_file()
        # every CSV artifact has the one format: CRLF line ends, and each row
        # as wide as the header (region and gain wrote LF lines before)
        raw = Path(artifact).read_bytes()
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), artifact
        rows = list(csv.reader(raw.decode().splitlines()))
        assert {len(row) for row in rows} == {len(rows[0])}, artifact


def test_module_entry_point_lists_every_command():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "eidlab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("Commands:", 1)[1].strip().splitlines()
    assert [line.split()[0] for line in lines] == [
        "audit", "certify", "certify-dt", "circle", "compose", "gain",
        "io-relation", "kyp", "region", "simulate", "stability",
    ]


# ---------------------------------------------------------------------------
# error messages


def _error(result):
    assert result.exit_code == 1
    assert result.stdout == ""
    return result.stderr.strip()


def test_missing_config_key_names_the_key(runner, tmp_path):
    sys_path = _write(tmp_path, "sys.json", {"schema": 1, **_SYSTEMS["lti_decay"]})
    cfg = _write(tmp_path, "cfg.json", {"T": 0.1})
    result = runner.invoke(main, ["simulate", "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert _error(result) == "error: missing key 'x0'"


def test_unknown_supply_type_is_named(runner, tmp_path):
    # a misspelt type used to be read as a raw Q/S/R spec: "missing key 'Q'"
    cfg = _write(tmp_path, "cfg.json", {"w1": {"type": "passivity"}, "w2": {"type": "pasivity"}})
    result = runner.invoke(main, ["compose", "--config", cfg, "--out", str(tmp_path)])
    assert _error(result) == "error: unknown supply type 'pasivity'"


@pytest.mark.parametrize("command,config,message", [
    ("gain", {"formula": "hinf", "grid": [1.0]}, "error: unknown gain formula 'hinf'"),
    ("simulate", {"x0": [1.0], "input": {"type": "ramp"}}, "error: unknown input type 'ramp'"),
])
def test_unknown_choice_is_named(runner, tmp_path, command, config, message):
    sys_path = _write(tmp_path, "sys.json", {"schema": 1, **_SYSTEMS["lti_decay"]})
    cfg = _write(tmp_path, "cfg.json", config)
    result = runner.invoke(main, [command, "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert _error(result) == message


@pytest.mark.parametrize("command,system,config,message", [
    ("stability", _SYSTEMS["dt_gradient"], {"xbar": [0.0], "probes": None},
     "error: int() argument must be"),
    ("simulate", _SYSTEMS["lti_decay"], {"x0": [1.0], "T": None},
     "error: float() argument must be"),
    ("certify", {"family": "gradient_ff", "params": {"mu": 1.0, "g": 1.0, "j": 0.5, "n": 2.0}},
     {"pairs": 10}, "error: "),
], ids=["stability-probes-null", "simulate-T-null", "certify-float-n"])
def test_wrong_json_type_is_one_error_line(runner, tmp_path, command, system, config, message):
    # each of these used to escape as a TypeError traceback
    sys_path = _write(tmp_path, "sys.json", {"schema": 1, **system})
    cfg = _write(tmp_path, "cfg.json", config)
    result = runner.invoke(main, [command, "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    lines = _error(result).splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), result.stderr


@pytest.mark.parametrize("config", [
    {"formula": "ifp_osp", "b": 0.5, "grid": [True, "0.5", 1]},
    {"formula": "dt_gradient", "grid": [True, "0.3"]},
    {"formula": "ifp_osp", "grid": 0.5},
], ids=["ifp_osp", "dt_gradient", "not-a-list"])
def test_gain_grid_reads_json_numbers_only(runner, tmp_path, config):
    # ifp_osp used to read true and "0.5" through float() and exit 0, writing
    # the rows True,… and 0.5,…; dt_gradient read the same grid as 1.0 and 0.3
    cfg = _write(tmp_path, "cfg.json", config)
    result = runner.invoke(main, ["gain", "--config", cfg, "--out", str(tmp_path)])
    assert _error(result) == f"error: grid must be a list of numbers, got {config['grid']!r}"
    assert not (tmp_path / "gain_sweep.csv").exists()


def test_gain_grid_cells_hold_the_parameter_each_gamma_used(runner, tmp_path):
    from eidlab import gains

    cfg = _write(tmp_path, "cfg.json", {"formula": "ifp_osp", "b": 0.5, "grid": [1, 0.5]})
    result = runner.invoke(main, ["gain", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in (tmp_path / "gain_sweep.csv").read_text().splitlines()]
    assert rows == [["a", "gamma"]] + [[repr(a), repr(gains.ifp_osp_gain(a, 0.5).gamma)]
                                        for a in (1.0, 0.5)]


def test_catalog_n_of_another_type_is_named(runner, tmp_path):
    # dt_integrator with n 2.5 used to build n = 2 and certify it
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "dt_integrator", "params": {"alpha": 0.5, "n": 2.5},
    })
    result = runner.invoke(main, ["certify-dt", "--system", sys_path, "--out", str(tmp_path)])
    assert _error(result) == "error: n must be an integer, got 2.5"


def test_jsonify_reads_numpy_scalars_and_names_other_objects():
    from eidlab.cli import _jsonify

    class Named:
        def __str__(self):
            return "named"

    assert _jsonify(np.int64(3)) == 3 and type(_jsonify(np.int64(3))) is int
    assert _jsonify(np.bool_(True)) is True
    assert _jsonify(Named()) == "named"


def test_non_object_config_is_a_config_error(runner, tmp_path):
    cfg = _write(tmp_path, "cfg.json", [1, 2])
    result = runner.invoke(main, ["region", "--config", cfg, "--out", str(tmp_path)])
    assert _error(result) == "error: configuration must be a JSON object"


def test_region_with_a_nan_parameter_is_an_error(runner, tmp_path):
    # json reads NaN, which passed the region's check: exit 0, verdict pass
    # and a NaN rho_intercept_eq18
    cfg = _write(tmp_path, "cfg.json", {"mu": float("nan"), "g": 1.0, "j": 0.9, "points": 3})
    result = runner.invoke(main, ["region", "--config", cfg, "--out", str(tmp_path)])
    assert _error(result) == "error: mu must be positive"


def test_non_object_system_file_is_a_config_error(runner, tmp_path):
    # a null system file used to die with a TypeError traceback
    sys_path = _write(tmp_path, "sys.json", None)
    result = runner.invoke(main, ["certify", "--system", sys_path, "--out", str(tmp_path)])
    assert _error(result) == "error: system description must be a JSON object, got NoneType"


def test_audit_without_storage_generator_is_an_error(runner, tmp_path):
    # the lti family has no storage generator; this used to escape as an
    # AttributeError traceback
    sys_path = _write(tmp_path, "sys.json", {"schema": 1, **_SYSTEMS["lti_decay"]})
    cfg = _write(tmp_path, "cfg.json", {"xbar": [0], "x0": [0.5], "T": 0.1, "dt": 0.01})
    result = runner.invoke(main, ["audit", "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert _error(result) == "error: system has no storage generator"


def test_dt_audit_without_storage_matrix_says_so(runner, tmp_path):
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "lti",
        "params": {"F": [[0.5]], "G": [[1.0]], "discrete": True},
    })
    cfg = _write(tmp_path, "cfg.json", {"xbar": [0], "x0": [0.5], "steps": 5})
    result = runner.invoke(main, ["audit", "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert _error(result) == "error: no storage matrix P given or known for this system"


def test_dt_audit_rejects_indefinite_storage_matrix(runner, tmp_path):
    # an indefinite P used to pass the audit (max_violation -0.325)
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "dt_integrator", "params": {"alpha": 0.5, "n": 2},
    })
    cfg = _write(tmp_path, "cfg.json", {"xbar": [0, 0], "x0": [0.5, -0.2], "steps": 10,
                                        "P": (-np.eye(2)).tolist()})
    result = runner.invoke(main, ["audit", "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert _error(result) == "error: P must be positive semidefinite"


@pytest.mark.parametrize("command,system,config,message", [
    # pairs: 0 used to certify on the degenerate pair alone (pass, n_pairs 1)
    ("certify", "second_order", {"supply": {"type": "output_strict", "a": 0.5}, "pairs": 0},
     "error: need at least one pair, got count=0"),
    # probes: 0 used to die with a ZeroDivisionError traceback
    ("stability", "smib", {"xbar": [0.2, 0.0], "probes": 0, "horizon": 0.1},
     "error: need at least one probe, got probes=0"),
])
def test_empty_sample_counts_are_errors(runner, tmp_path, command, system, config, message):
    sys_path = _write(tmp_path, "sys.json", {"schema": 1, **_SYSTEMS[system]})
    cfg = _write(tmp_path, "cfg.json", config)
    result = runner.invoke(main, [command, "--system", sys_path, "--config", cfg,
                                  "--out", str(tmp_path)])
    assert _error(result) == message


def test_empty_integrator_is_an_error(runner, tmp_path):
    # n: 0 used to escape as an IndexError traceback
    sys_path = _write(tmp_path, "sys.json", {
        "schema": 1, "family": "dt_integrator", "params": {"alpha": 0.5, "n": 0},
    })
    result = runner.invoke(main, ["certify-dt", "--system", sys_path, "--out", str(tmp_path)])
    assert _error(result) == "error: need n >= 1, got n = 0"
