"""Self-test of the benchmark's output checks; runs in well under a second.

    python3 bench/selftest.py

Each check must accept the value its closed form predicts and reject a value
that is deliberately wrong: a winding off by 2*pi, a gamma_n outside its band,
a command line report with NaN or a traceback.  Exits 1 on the first check
that lets a wrong value through or rejects a right one.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import checks
import workloads


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def cases():
    mu = 3 * 2 * math.pi + 0.25
    yield "winding accepts its exact value", not rejects(checks.winding, "w", mu + 1e-12, mu)
    yield "winding rejects one turn more", rejects(checks.winding, "w", mu + 2 * math.pi, mu)
    yield "winding rejects one turn less", rejects(checks.winding, "w", mu - 2 * math.pi, mu)
    yield "winding rejects NaN", rejects(checks.winding, "w", math.nan, mu)
    yield "inverse winding accepts -mu", not rejects(checks.inverse_winding, "i", mu, -mu)
    yield "inverse winding rejects +mu", rejects(checks.inverse_winding, "i", mu, mu)
    yield "inverse winding rejects -mu + 2 pi", rejects(
        checks.inverse_winding, "i", mu, -mu + 2 * math.pi)

    ratio, n = 97.5 / 64, 64
    yield "staircase accepts ceil(n r)", not rejects(checks.staircase, "g", 98, n, ratio)
    yield "staircase accepts one above the tie", not rejects(checks.staircase, "g", 99, n, ratio)
    yield "staircase rejects gamma_n far above the band", rejects(checks.staircase, "g", 101, n, ratio)
    yield "staircase rejects gamma_n below the band", rejects(checks.staircase, "g", 94, n, ratio)
    yield "staircase rejects a missing gamma_n", rejects(checks.staircase, "g", None, n, ratio)

    good = '{"command": "maslov", "value": 6.283185307179586}'
    yield "cli accepts a clean report", not rejects(checks.cli_report, 0, good, "")
    for constant in ("NaN", "Infinity", "-Infinity"):
        yield f"cli rejects {constant}", rejects(
            checks.cli_report, 0, '{"command": "cone", "min_eigenvalue": %s}' % constant, "")
    yield "cli rejects a traceback", rejects(
        checks.cli_report, 1, "",
        "Traceback (most recent call last):\n  ...\nnumpy.linalg.LinAlgError: SVD did not converge\n")
    yield "cli rejects a traceback even on exit 0", rejects(
        checks.cli_report, 0, good, "Traceback (most recent call last):\n")
    yield "cli rejects a nonzero exit", rejects(checks.cli_report, 2, "", "error: raise p_max\n")
    yield "cli rejects text that is not JSON", rejects(checks.cli_report, 0, "value: 1", "")

    report = {"command": "maslov", "value": 2 * math.pi * 3, "turns": 3.0}
    expect = {"value": (2 * math.pi * 3, 1e-8), "turns": (3, 1e-8)}
    yield "fields accepts matching values", not rejects(checks.fields, "maslov", report, expect)
    shifted = dict(report, value=2 * math.pi * 4)
    yield "fields rejects a winding one turn off", rejects(checks.fields, "maslov", shifted, expect)
    yield "fields rejects a report for another command", rejects(
        checks.fields, "cone", report, expect)
    yield "fields rejects a missing field", rejects(
        checks.fields, "maslov", {"command": "maslov"}, expect)
    yield "fields rejects a wrong status", rejects(
        checks.fields, "cone", {"command": "cone", "status": "negative"}, {"status": "dominant"})

    yield from workload_cases()


def workload_cases():
    """The workloads' own checks, fed results derived from their closed forms."""
    entry = workloads.WindingEntry(None, None, None, None, 8.1, 9.3, 200.5)
    state = {"pool": [entry] * workloads.POOL}
    lx, ly = math.log(8.1), math.log(9.3)
    right = (ly - lx, lx, ly, 200.5, 5.0, -5.0)
    winding = workloads.Winding()
    yield "winding op check accepts the closed forms", not rejects(winding.check, state, 0, right)
    yield "winding op check rejects maslov(U8) one turn off", rejects(
        winding.check, state, 0, right[:3] + (200.5 + 2 * math.pi,) + right[4:])
    yield "winding op check rejects z from a winding one turn off", rejects(
        winding.check, state, 0, (right[0], math.log(8.1 + 2 * math.pi)) + right[2:])
    yield "winding op check rejects maslov(S^-1) = maslov(S)", rejects(
        winding.check, state, 0, right[:5] + (5.0,))

    stair = workloads.Staircase()
    state = {"pool": [workloads.StairEntry(None, None, 97.5 / 64)] * workloads.POOL}
    yield "staircase op check accepts 98", not rejects(stair.check, state, 0, 98)
    yield "staircase op check rejects 102", rejects(stair.check, state, 0, 102)

    cli = workloads.Cli()
    workdir = Path(__file__).resolve().parent / "out" / "selftest"
    try:
        state = cli.setup(7, workdir)
        expect = state["expect"]
        for i, name in enumerate(cli.NAMES):
            if name in ("gamma", "synth-positive", "embed"):
                continue  # these also read program-written files or staircases
            report = {"command": name}
            report.update({k: (v[0] if isinstance(v, tuple) else v)
                           for k, v in expect[name].items()})
            text = json.dumps(report)
            yield f"cli {name} check accepts its closed form", not rejects(
                cli.check, state, i, (0, text, ""))
            key = next(k for k, v in expect[name].items() if isinstance(v, tuple))
            bad = dict(report, **{key: report[key] + 2 * math.pi})
            yield f"cli {name} check rejects {key} off by 2 pi", rejects(
                cli.check, state, i, (0, json.dumps(bad), ""))
            nan = json.dumps(report).replace(repr(report[key]), "NaN", 1)
            yield f"cli {name} check rejects NaN in {key}", rejects(
                cli.check, state, i, (0, nan, ""))
        gamma_index = cli.NAMES.index("gamma")
        ratio = state["ratio"]
        ns = [1, 2, 4, 8, 16, 32, 64]
        report = {"command": "gamma", "closed_form": ratio, "ns": ns,
                  "gamma_ns": [math.ceil(n * ratio) for n in ns]}
        yield "cli gamma check accepts ceil(n r)", not rejects(
            cli.check, state, gamma_index, (0, json.dumps(report), ""))
        report["gamma_ns"][-1] += 3
        yield "cli gamma check rejects gamma_64 three above", rejects(
            cli.check, state, gamma_index, (0, json.dumps(report), ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    results = list(cases())
    failures = [name for name, ok in results if not ok]
    for name in failures:
        print(f"FAIL {name}")
    print(f"{len(results) - len(failures)}/{len(results)} check cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
