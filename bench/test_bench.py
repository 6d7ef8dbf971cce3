"""Self-test of the benchmark, outside the tier-1 suite (its testpaths is tests/).

    python3 -m pytest bench/test_bench.py

Runs every workload at smoke size in both modes and checks that the result
line carries exactly the metrics BENCHMARK.json names, with their units;
checks that the benchmark refuses to run without the library sources; and
checks the compare mode's verdicts on synthetic runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from compare import summarize  # noqa: E402
from run import PassLog  # noqa: E402
from workloads import Task  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _smoke(workload, trace, seed=7):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_named_metric(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    record = json.loads((ROOT / ".bench_out" /
                         f"result-{workload}-seed7-trace{trace}.json").read_text())
    # the one recorded defect: eid-lab kyp with H omitted for n > m exits 1
    assert all(message.startswith("cli/kyp:") for message in record["failures"])
    assert result["failed"] == len(record["failures"])


def test_same_seed_gives_same_layer_counts():
    counts = []
    for _ in range(2):
        metrics = _smoke("certify", 1, seed=3)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["certify.pairs_evaluated"] > 0


def test_only_a_recorded_defect_leaves_the_run_correct():
    def boom():
        raise RuntimeError("boom")

    log = PassLog()
    log.run(Task("cli/kyp", boom, lambda r: None, known_defect="recorded"))
    assert len(log.failures) == 1 and log.unexpected == 0
    # a wrong answer from the same task is not the recorded defect
    log.run(Task("cli/kyp", lambda: 1, lambda r: "wrong answer", known_defect="recorded"))
    assert log.unexpected == 1
    log.run(Task("certify/x", boom, lambda r: None))
    log.run(Task("certify/x", lambda: 1, lambda r: "wrong answer"))
    assert len(log.failures) == 4 and log.unexpected == 3


def test_tracer_refuses_missing_layer_functions(monkeypatch):
    from eidlab import numerics
    from tracing import Tracer

    monkeypatch.delattr(numerics, "rk4_step")
    with pytest.raises(LookupError, match="numerics.rk4_step"):
        Tracer().install()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    faster = summarize(parent, [0.5 * p for p in parent], 0.1, "lower")
    assert faster["verdict"] == "improved" and faster["win_frac"] == 1.0
    same = summarize(parent, list(parent), 0.1, "lower")
    assert same["verdict"] == "within bound" and same["win_frac"] == 0.0
    assert summarize(parent, [1.5 * p for p in parent], 0.1, "lower")["verdict"] == "regressed"
    # higher is better: a lower rate is the regression
    assert summarize(parent, [0.5 * p for p in parent], 0.1, "higher")["verdict"] == "regressed"
    noisy = [100.0, 140.0] * 5
    assert summarize(noisy, [1.05 * p for p in noisy], 0.1, "lower")["verdict"] == "unresolved"
    with pytest.raises(ValueError):
        summarize(parent[:9], parent[:9], 0.1, "lower")
