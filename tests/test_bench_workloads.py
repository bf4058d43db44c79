"""Every benchmark workload runs one round through its own check, traced.

The workloads and the tracer are imported from ``bench/`` as they are; a
package change that breaks a workload, its check or a name the tracer wraps
fails here, not only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1


@pytest.mark.parametrize("name", ["winding", "staircase", "cli"])
def test_each_workload_passes_its_check_under_the_tracer(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written to bench/
    workloads, tracing = (importlib.import_module(m) for m in ("workloads", "tracing"))
    workload = workloads.WORKLOADS[name]()
    # as in ``bench/run.py``, the package is loaded before the tracer wraps
    # it: a module imported later would bind the wrapped names of the
    # modules it imports from, and the tracer would wrap them twice
    for module in tracing.WRAPS:
        importlib.import_module(module)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = workload.setup(SEED, tmp_path, tracer)
        state["in_process"] = True
        tracer.phase = "ops"
        for i in range(workload.round_len):
            workload.check(state, i, workload.op(state, i))
    finally:
        tracer.uninstall()
    calls = tracer.times("ops")[2]
    # the tracer sees the windings that ``maslov_index`` reads by name; a
    # path in U(2) that ``growth`` reads winds from the step eigenphases of
    # its dominance check, in its caller's span, and extracts no track
    if name == "winding":
        # the U(4) path and the Sp(8) path and its inverse
        assert calls["maslov.winding"] == 3
        assert calls.get("paths.power", 0) == 0
    elif name == "staircase":
        assert calls.get("paths.extract4", 0) == 0
        assert calls.get("maslov.winding", 0) == 0
    else:
        # maslov and synth-positive wind once each; zcoord and the gamma
        # call of a unitary pair read their windings from step eigenphases
        assert calls["maslov.winding"] == 2
        assert calls.get("growth.mu_tilde", 0) == 0
