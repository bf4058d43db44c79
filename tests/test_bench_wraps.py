"""Every package name that the benchmark's tracer wraps exists, and is the
function its defining module holds under that name.

``bench/tracing.py`` replaces package functions by name for the traced
benchmark run; a rename or a deletion in the package would break that run
without failing any other test, and a same-named local twin in the importing
module would take the wrapped binding's place unseen.  The tracer is loaded
from its file as it is.
"""

import ast
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


def _unused_imports(source: str) -> set:
    """Names a module binds by import and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_unused_import_is_a_binding_the_tracer_wraps():
    # such a binding stays only for the tracer; when a wrap goes, the name
    # this test reports is the import to delete
    wrapped = set(_wrapped_bindings())
    package = Path(__file__).resolve().parents[1] / "src" / "symporder"
    unused = {(f"symporder.{source.stem}", name)
              for source in sorted(package.glob("*.py"))
              for name in _unused_imports(source.read_text())}
    assert unused and sorted(unused - wrapped) == []
