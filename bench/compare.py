#!/usr/bin/env python3
"""Parent-versus-change comparison of the end-to-end metrics.

    python3 bench/compare.py --parent DIR --change DIR [--workload W ...] \
        [--pairs 10]

DIR is a checkout (source tree with ``bench/`` and ``src/``) of each commit.
For every pair i the two sides run ``bench/run.py`` for ``run_seconds`` with
the same seed ``SEED0 + i``, the parent first on even i and the change first
on odd i.  Each side uses its own ``bench/run.py``; run length, bounds and
better-directions come from the change's ``BENCHMARK.json``.

For each workload and metric the report gives both sides' median and
quartiles, the change's win fraction over the pairs (ties count for neither
side) and a verdict:

- ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ, in its favour, by more than the parent's quartile spread;
- ``unresolved``: the parent's own spread is wider than the bound and not
  every change run beats every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_PAIRS = 10
SEED0 = 1000


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(parent: list, change: list, bound: float, better: str) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``change[i]`` share a seed."""
    if len(parent) != len(change) or len(parent) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} paired runs")
    sign = 1.0 if better == "lower" else -1.0
    gain = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: the change is better
    wins = sum(g > 0 for g in gain)
    p, c = _stats(parent), _stats(change)
    delta = sign * (p["median"] - c["median"])  # > 0: the change is better
    scale = abs(p["median"])
    spread = p["q3"] - p["q1"]
    every_run_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if wins >= 0.9 * len(parent) and delta > spread:
        verdict = "improved"
    elif spread > bound * scale and not every_run_better:
        verdict = "unresolved"
    elif -delta > bound * scale:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "win_frac": wins / len(parent), "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", dest="workloads")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for workload in workloads:
            for side, checkout in order:
                runs[workload][side].append(run_once(checkout, workload, SEED0 + i, seconds))
                print(f"pair {i} {workload} {side} done", file=sys.stderr, flush=True)

    report = {}
    for workload in workloads:
        report[workload] = {}
        for name, m in metrics.items():
            parent = [r[name] for r in runs[workload]["parent"]]
            change = [r[name] for r in runs[workload]["change"]]
            s = summarize(parent, change, m["bound"], m["better"])
            report[workload][name] = s
            print(f"{workload:9s} {name:12s} parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  change "
                  f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                  f"{s['change']['q3']:.6g}]  wins {s['win_frac']:.2f}  {s['verdict']}")
    print(json.dumps({"pairs": args.pairs, "seconds": seconds, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
