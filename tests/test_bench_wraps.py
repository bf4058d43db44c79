"""Every package name that the benchmark's tracer wraps exists.

``bench/tracing.py`` replaces package functions by name for the traced
benchmark run; a rename or a deletion in the package would break that run
without failing any other test.  The tracer is loaded from its file as it is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrapped_name_exists_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(module, attr) for module, entries in tracing.WRAPS.items()
               for attr, _, _ in entries]
    missing = [f"{module}.{attr}" for module, attr in wrapped
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert wrapped and missing == []
