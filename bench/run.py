"""Benchmark of the symporder package, measured from outside through its public API.

    python3 bench/run.py --workload winding|staircase|cli --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One process, one closed-loop caller: each op starts after
the previous one finished, and a run attempts whole passes over the
workload's list of calls until ``--seconds`` of wall time have passed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead, and the spans are written to ``bench/out``.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
STARTUP_PROBES = 5
PROBE_TIMEOUT = 120.0

# The speed of this class of machine drifts by up to 2x over tens of seconds
# (other tenants, clock boost), which moved raw wall-time medians of 20 s
# runs by 18-25 % between runs.  Every timing is therefore taken next to a
# fixed calibration kernel and scaled to the speed at which that kernel takes
# its reference time, its median on the machine the benchmark was built on.
# In-process work is calibrated by a compute kernel; work that starts
# interpreters (the cli workload) by starting one.
CALIBRATION_REF_S = {False: 0.013, True: 0.160}
_CALIBRATION_MATS = np.random.default_rng(0).normal(size=(2049, 4, 4))


def calibration_scale(spawns: bool) -> float:
    """Reference time over the wall time of the calibration kernel, run now.

    The compute kernel mixes LAPACK and interpreter work like the in-process
    ops; the spawn kernel starts an interpreter that imports numpy.
    """
    start = perf_counter()
    if spawns:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       timeout=PROBE_TIMEOUT)
    else:
        np.linalg.svd(_CALIBRATION_MATS)
        total = 0.0
        for k in range(2000):
            total += float(np.sin(k * 1e-3))
    return CALIBRATION_REF_S[spawns] / (perf_counter() - start)


# per-layer metric -> (unit, source, span or count name, phase)
# "self" is span time minus child spans, "total" includes children,
# "calls" counts spans, "count" sums a counter.  Op-phase figures are per op
# (per pass over the call list for cli); setup-phase figures are per setup.
LAYERS = {
    "maslov.winding_ms": ("ms", "self", "maslov.winding", "ops"),
    "maslov.winding_calls": ("count", "calls", "maslov.winding", "ops"),
    "maslov.winding_samples": ("count", "count", "maslov.winding_samples", "ops"),
    "maslov.refinements": ("count", "calls", "maslov.refine", "ops"),
    "matrices.polar_ms": ("ms", "self", "matrices.polar", "ops"),
    "maslov.homogenize_ms": ("ms", "total", "maslov.homogenize", "ops"),
    "growth.mu_tilde_calls": ("count", "calls", "growth.mu_tilde", "ops"),
    "paths.power_ms": ("ms", "self", "paths.power", "ops"),
    "paths.resample_ms": ("ms", "self", "paths.resample", "ops"),
    "paths.cone_ms": ("ms", "self", "paths.cone", "ops"),
    "paths.extract2_ms": ("ms", "self", "paths.extract2", "ops"),
    "paths.extract4_ms": ("ms", "self", "paths.extract4", "ops"),
    "growth.staircase_ms": ("ms", "self", "growth.staircase", "ops"),
    "growth.staircase_calls": ("count", "calls", "growth.staircase", "ops"),
    "generators.integrate_ms": ("ms", "self", "generators.integrate", "setup"),
    "generators.closure_calls": ("count", "count", "generators.closure_calls", "setup"),
    "io.load_ms": ("ms", "self", "io.load", "ops"),
    "io.save_ms": ("ms", "self", "io.save", "ops"),
    "io.bytes_read": ("B", "count", "io.bytes_read", "ops"),
    "io.bytes_written": ("B", "count", "io.bytes_written", "ops"),
    "prequant.ms": ("ms", "self", "prequant", "ops"),
    "prequant.grid_points": ("count", "count", "prequant.grid_points", "ops"),
    "cli.self_ms": ("ms", "self", "cli.run", "ops"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the perf_counter reading when "
                             "ready, and exit (used to time set-up)")
    return parser.parse_args(argv)


class Run:
    """Op loop with failure and check bookkeeping for one workload state."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.scales: list[float] = []

    def one(self, i: int) -> float:
        """Run op ``i``, check its output, and return its calibrated wall time."""
        self.attempted += 1
        scale = calibration_scale(self.workload.spawns)
        self.scales.append(scale)
        start = perf_counter()
        try:
            result = self.workload.op(self.state, i)
        except Exception:  # a failed op is counted, and the run goes on
            elapsed = perf_counter() - start
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return elapsed * scale
        elapsed = perf_counter() - start
        try:
            self.workload.check(self.state, i, result)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            # a malformed output (missing field, null, wrong shape) is wrong too
            self.wrong.append(str(exc))
            print(f"check failed on op {i}: {exc}", file=sys.stderr)
        return elapsed * scale

    def phase(self, seconds: float) -> list[float]:
        """Calibrated op times of whole passes over the call list, for ``seconds``."""
        times: list[float] = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            times.extend(self.one(i) for i in range(self.workload.round_len))
        return times


def setup_seconds(args, spawns: bool) -> float:
    """Median over fresh interpreters of the time from spawn to ready."""
    readings = []
    for _ in range(SETUP_PROBES):
        before = calibration_scale(spawns)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
        # perf_counter reads CLOCK_MONOTONIC on Linux, which every process shares
        ready = float(proc.stdout.split()[-1]) - start
        readings.append(ready * (before + calibration_scale(spawns)) / 2)
    return statistics.median(readings)


def startup_ms() -> float:
    """Median calibrated wall time of a fresh interpreter that only imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    readings = []
    for _ in range(STARTUP_PROBES):
        scale = calibration_scale(True)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import symporder.cli"],
                       check=True, env=env, timeout=PROBE_TIMEOUT)
        readings.append((perf_counter() - start) * 1e3 * scale)
    return statistics.median(readings)


def layer_metrics(tracer, passes: int, scale: float) -> dict:
    per_phase = {phase: tracer.times(phase) for phase in ("setup", "ops")}
    metrics = {}
    for name, (unit, source, key, phase) in LAYERS.items():
        own, total, calls = per_phase[phase]
        if source == "count":
            value = tracer.counts[phase, key]
        else:
            value = {"self": own, "total": total, "calls": calls}[source][key]
        if unit == "ms":
            value *= 1e3 * scale
        if phase == "ops":
            value /= passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced_run(args, workload, workdir: Path, run: Run) -> dict:
    """Untraced then traced halves of the run; per-layer metrics from the second."""
    from tracing import Tracer

    half = args.seconds / 2
    plain = run.phase(half)
    tracer = Tracer()
    tracer.install()
    try:
        run.state = workload.setup(args.seed, workdir, tracer)
        run.state["in_process"] = True
        tracer.phase = "ops"
        first = len(run.scales)
        traced = run.phase(half)
    finally:
        tracer.uninstall()
    passes = len(traced) // workload.round_len
    metrics = layer_metrics(tracer, passes, statistics.median(run.scales[first:]))
    startup = startup_ms() if args.workload == "cli" else 0.0
    # mean time per pass: a median over cli calls would fall between call kinds
    base = sum(plain) / (len(plain) // workload.round_len)
    with_trace = sum(traced) / passes
    metrics["cli.startup_ms"] = {"value": startup, "unit": "ms"}
    metrics["trace.pass_ms"] = {"value": with_trace * 1e3, "unit": "ms"}
    metrics["trace.overhead_ms"] = {"value": (with_trace - base) * 1e3, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": 100 * (with_trace - base) / base, "unit": "%"}
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"spans": tracer.spans,
                   "counts": {f"{p}:{k}": v for (p, k), v in tracer.counts.items()}}, fh)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symporder" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'symporder'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so that the calibration
    # kernel runs on the CPU that the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        state = workload.setup(args.seed, workdir)
        if args.setup_only:
            print(repr(perf_counter()))
            return 0
        state["in_process"] = bool(args.trace)  # cli: call cli.run in-process
        run = Run(workload, state)
        run.one(0)  # warm-up: lazy imports and compiled caches settle before timing
        if args.trace:
            metrics = traced_run(args, workload, workdir, run)
        else:
            times = run.phase(args.seconds)
            kinds = workload.round_len
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                # mean over the call kinds of each kind's median: a median over
                # all cli calls would fall between two kinds of call
                "op_p50_ms": {"value": statistics.fmean(
                    statistics.median(times[k::kinds]) for k in range(kinds)) * 1e3,
                    "unit": "ms"},
                "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
                "setup_s": {"value": setup_seconds(args, workload.spawns), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
