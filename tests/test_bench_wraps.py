"""Every package name that the benchmark's tracer wraps exists, and is the
function its defining module holds under that name.

``bench/tracing.py`` replaces package functions by name for the traced
benchmark run; a rename or a deletion in the package would break that run
without failing any other test, and a same-named local twin in the importing
module would take the wrapped binding's place unseen.  The tracer is loaded
from its file as it is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped_bindings() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, entries in tracing.WRAPS.items()
            for attr, _, _ in entries]


def test_every_wrapped_name_exists_in_the_package():
    wrapped = _wrapped_bindings()
    missing = [f"{module}.{attr}" for module, attr in wrapped
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert wrapped and missing == []


def test_every_wrapped_binding_is_its_defining_modules_function():
    # a name wrapped in several modules is one function, held by the module
    # that defines it, so a twin in one importing module is seen
    bindings = {}
    for module, attr in _wrapped_bindings():
        bindings.setdefault(attr, {})[module] = getattr(importlib.import_module(module), attr)
    shadowed = [f"{module}.{attr} ({fn.__module__})"
                for attr, held in bindings.items() for module, fn in held.items()
                if len({id(f) for f in held.values()}) > 1
                or getattr(importlib.import_module(fn.__module__), attr, None) is not fn]
    assert bindings and shadowed == []
