#!/usr/bin/env python3
"""eid-lab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {certify,sweep,simulate,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

A single-process closed loop: one caller, one task in flight, no worker
threads, BLAS pinned to one thread.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes (set-up plus
one pass of tasks) and prints the per-layer metrics of the traced passes.
``--smoke`` runs one pass at tiny sizes.  End-to-end times are CPU seconds
rescaled to a reference machine speed (see ``Calibration``).  Outputs
of every task are checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
Run details, per-task timings and failures go to
``.bench_out/result-<workload>-seed<N>-trace<T>.json`` and trace spans to
``.bench_out/trace-<workload>-seed<N>.npz``.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, here and in every child process
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_TASK_SAMPLES = 100  # so that ten task timings lie beyond p90
MAX_MEASURE_S = 150.0   # hard stop for the sample floor, inside the 180 s limit
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
CALIBRATION_WINDOW = 4      # kernel runs around a task, half before and half after


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Times are CPU times rescaled by a reference kernel run between tasks:
# ``time * reference_s / (median kernel time nearby)``.  On the shared virtual
# machine this benchmark was built on, the CPU time of one fixed task swung by
# up to 2x within seconds as other tenants loaded the host, and a kernel doing
# the same kind of work swung with it; the rescaled times are what the tasks
# would take where the kernel takes ``reference_s``.  Neither kernel touches
# the library, so no change to ``src`` moves it.  Raw CPU and wall times are
# kept in the result file.


def compute_kernel() -> float:
    """CPU seconds of RK4 on a damped pendulum with a 2x2 least-squares
    solve per step, one 2-vector at a time in plain numpy: the small-array
    and small-LAPACK-call work of the library's inner loops (which call
    ``lstsq`` per certificate pair and per projection step).  Without the
    solve, the kernel tracked the tasks' swings less closely: over the same
    four certify runs the rescaled p50 spread was 7.4% instead of 2.0%."""
    import numpy as np

    g = np.array([0.0, 1.0])
    w = np.array([[1.0, 0.2], [0.1, 0.9]])
    x, dt, u = np.array([0.3, 0.0]), 0.01, 0.1

    def f(z):
        return np.array([z[1], -np.sin(z[0]) - z[1]]) + g * u

    t0 = cpu_clock()
    for _ in range(200):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        correction, *_ = np.linalg.lstsq(w, x, rcond=None)
        x = x + 1e-9 * correction
    return cpu_clock() - t0


def startup_kernel() -> float:
    """CPU seconds of a fresh interpreter that imports numpy and exits: the
    start-up work that a CLI command and the imports of set-up consist of."""
    t0 = cpu_clock()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return cpu_clock() - t0


class Calibration(NamedTuple):
    kernel: Callable[[], float]
    reference_s: float  # kernel CPU time at the reference speed
    every_s: float      # task CPU seconds between two kernel runs


COMPUTE = Calibration(compute_kernel, 0.0095, 0.05)
STARTUP = Calibration(startup_kernel, 0.18, 0.6)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "sweep", "simulate", "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass at tiny sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run details


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_details(args, passes: int, tasks: int) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": passes, "tasks": tasks,
        "loop": "closed: one caller, one task in flight, no worker threads",
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "click": metadata.version("click"),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# tasks and passes


class PassLog:
    """Task timings and outcomes pooled over passes."""

    def __init__(self, calibration: Calibration | None = None):
        self.calibration = calibration
        self.samples: list[float] = []  # CPU seconds per task
        self.passes: list[int] = []
        self.labels: list[str] = []
        self.walls: list[float] = []
        self.kernel: list[float] = []  # calibration kernel runs
        self.kernel_before: list[int] = []  # index of the last kernel run before each task
        self._since_kernel = 0.0
        self.failures: list[str] = []
        self.unexpected = 0  # failures other than a task's recorded defect

    def run(self, task, p: int = 0, tracer=None) -> None:
        cal = self.calibration
        if cal and (not self.kernel or self._since_kernel >= cal.every_s):
            self.kernel.append(cal.kernel())
            self._since_kernel = 0.0
        span = None
        if tracer is not None:
            name = "cli." + task.label[4:] if task.label.startswith("cli/") else "task." + task.label
            span = tracer.enter(name)
        w0, t0 = time.perf_counter(), cpu_clock()
        try:
            result = task.run()
        except Exception as exc:  # a failing task is counted, never aborts the run
            message = f"{task.label}: {type(exc).__name__}: {exc}"
            result = None
        else:
            message = None
        raised = message is not None
        elapsed = cpu_clock() - t0
        self.walls.append(time.perf_counter() - w0)
        if span is not None:
            tracer.exit(span, error=message is not None)
        if message is None:
            try:
                message = task.check(result)
            except Exception as exc:  # an answer the check cannot read is a wrong answer
                message = f"{task.label}: check raised {type(exc).__name__}: {exc}"
        self._since_kernel += elapsed
        self.samples.append(elapsed)
        self.passes.append(p)
        self.labels.append(task.label)
        self.kernel_before.append(len(self.kernel) - 1)
        if message is not None:
            self.failures.append(message)
            self.unexpected += not (raised and task.known_defect)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def rescaled(self) -> list[float]:
        """Task CPU times at the reference speed; the raw CPU times when no
        kernel was run."""
        if not self.kernel:
            return list(self.samples)
        half = CALIBRATION_WINDOW // 2
        out = []
        for t, j in zip(self.samples, self.kernel_before):
            window = self.kernel[max(0, j + 1 - half): j + 1 + half]
            out.append(t * self.calibration.reference_s / statistics.median(window))
        return out

    def medians_ms(self, values) -> dict:
        by_label = defaultdict(list)
        for label, v in zip(self.labels, values):
            by_label[label].append(v)
        return {k: 1e3 * statistics.median(v) for k, v in by_label.items()}


def run_pass(setup, args, log: PassLog, p: int, in_process: bool, tracer=None) -> float:
    """Set up from the seed and run pass ``p``; returns the CPU time of both."""
    t0 = cpu_clock()
    if tracer is not None:
        frame = tracer.enter("setup")
    tasks = setup(args.seed, args.smoke, in_process=in_process)
    if tracer is not None:
        tracer.exit(frame)
    for task in tasks(p):
        log.run(task, p, tracer)
    return cpu_clock() - t0


def time_setup_in_child(args) -> tuple:
    """CPU seconds of a fresh interpreter from process start to the end of
    its imports, then of the rest of set-up, and the median compute-kernel
    time measured around the latter."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 4 or words[0] != "ready":
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-500:]}")
    return tuple(float(w) for w in words[1:])


def measure_setup(args) -> tuple:
    """Median set-up time over fresh interpreters: imports rescaled by the
    start-up kernel runs before and after each child, the rest of set-up by
    the compute kernel runs inside it."""
    startup = [STARTUP.kernel()]
    samples, children = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        imports, compute, kernel = time_setup_in_child(args)
        startup.append(STARTUP.kernel())
        around = 0.5 * (startup[-2] + startup[-1])
        samples.append(imports * STARTUP.reference_s / around
                       + compute * COMPUTE.reference_s / kernel)
        children.append({"import_cpu_s": imports, "compute_cpu_s": compute,
                         "compute_kernel_s": kernel, "startup_kernel_s": around})
    return statistics.median(samples), children


def cli_startup_ms() -> float:
    from workloads import cli_env

    env = cli_env()
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = cpu_clock()
        subprocess.run([sys.executable, "-m", "eidlab.cli", "--help"], cwd=ROOT, env=env,
                       capture_output=True, check=True, timeout=60)
        times.append(cpu_clock() - t0)
    return 1e3 * statistics.median(times)


def _p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_end_to_end(args, setup):
    setup_s, children = measure_setup(args)
    is_cli = args.workload == "cli"
    tasks = setup(args.seed, args.smoke, in_process=False)
    # a CLI command is mostly interpreter start-up and imports
    log = PassLog(STARTUP if is_cli else COMPUTE)
    start = time.perf_counter()
    p = 0
    while True:
        for task in tasks(p):
            log.run(task, p)
        p += 1
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed >= MAX_MEASURE_S:
            break
        if elapsed >= args.seconds and log.attempted >= MIN_TASK_SAMPLES:
            break
    if is_cli:
        from workloads import CLI_CHILD_MAXRSS_KB

        peak_rss_kb = max(CLI_CHILD_MAXRSS_KB)
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = log.rescaled()
    pass_time = defaultdict(float)
    pass_tasks = defaultdict(int)
    for q, t in zip(log.passes, times):
        pass_time[q] += t
        pass_tasks[q] += 1
    attempted, failed = log.attempted, len(log.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (statistics.median(pass_tasks[q] / pass_time[q] for q in pass_time), "1/s"),
        "task_p50_ms": (1e3 * statistics.median(times), "ms"),
        "task_p90_ms": (1e3 * _p90(times) if attempted > 1 else 1e3 * times[0], "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    extra = {
        "setup_children": children,
        "kernel_s": log.kernel,
        "raw_cpu": {"task_p50_ms": 1e3 * statistics.median(log.samples),
                    "task_p90_ms": 1e3 * _p90(log.samples) if attempted > 1 else None},
        "task_median_rescaled_ms": log.medians_ms(times),
        "task_median_cpu_ms": log.medians_ms(log.samples),
        "task_median_wall_ms": log.medians_ms(log.walls),
    }
    return log, p, metrics, extra


def run_traced(args, setup):
    from tracing import Tracer, layer_metrics

    in_process = True
    tracer = Tracer()
    log = PassLog()
    if not args.smoke:  # warm caches and lazy imports before timing
        run_pass(setup, args, PassLog(), 0, in_process)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(setup, args, log, 0, in_process))
        tracer.install()
        tracer.new_pass()
        try:
            traced.append(run_pass(setup, args, log, 0, in_process, tracer))
        finally:
            tracer.uninstall()
        if args.smoke or time.perf_counter() - start >= min(args.seconds, MAX_MEASURE_S):
            break
    metrics = layer_metrics(tracer, len(traced))
    startup = cli_startup_ms() if args.workload == "cli" else 0.0
    metrics["cli.startup_ms"] = (startup, "ms")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "frac")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    extra = {"untraced_pass_s": untraced, "traced_pass_s": traced,
             "task_median_cpu_ms": log.medians_ms(log.samples),
             "spans_stored": len(tracer.span_name), "spans_dropped": tracer.dropped,
             "self_time_s": dict(sorted(tracer.self_time.items()))}
    return log, len(traced), metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eidlab" / "__init__.py").is_file():
        print(f"error: eid-lab sources not found at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    setup = WORKLOADS[args.workload]
    if args.setup_only:
        # imports are done; the kernel runs around the compute part of set-up
        # and its own CPU time is not set-up time
        import_cpu = time.process_time()
        kernel = [compute_kernel()]
        t0 = time.process_time()
        setup(args.seed, args.smoke, in_process=False)
        compute_cpu = time.process_time() - t0
        kernel += [compute_kernel(), compute_kernel()]
        print("ready", import_cpu, compute_cpu, statistics.median(kernel), flush=True)
        return 0

    runner = run_traced if args.trace else run_end_to_end
    log, passes, metrics, extra = runner(args, setup)
    details = run_details(args, passes, log.attempted)
    result = {
        "correct": log.unexpected == 0,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"details": details, "result": result, "failures": log.failures, **extra}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for message in log.failures[:5]:
        print(f"task failed: {message}", file=sys.stderr)
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
