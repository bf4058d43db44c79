"""Span tracing around the package's public functions, for the traced run only.

The tracer replaces functions in the namespaces that call them (a name bound
by ``from .paths import classify_cone`` lives in the importing module, so each
such binding is wrapped separately) and restores them on ``uninstall``.  Each
call records a span ``[name, start, end, parent, phase]``; counts recorded at
the same boundaries go into ``counts``, keyed by phase and name.  A span's
self time is its duration minus the durations of its children, which never
overlap in one thread.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter


def _extract_name(args, kwargs) -> str:
    order = kwargs.get("order", args[1] if len(args) > 1 else 2)
    return "paths.extract4" if order == 4 else "paths.extract2"


def _winding_samples(tracer, args, kwargs, result) -> None:
    tracer.count("maslov.winding_samples", len(result.per_step_increments) + 1)


def _bytes_read(tracer, args, kwargs, result) -> None:
    tracer.count("io.bytes_read", os.path.getsize(args[0]))


def _bytes_written(tracer, args, kwargs, result) -> None:
    tracer.count("io.bytes_written", os.path.getsize(args[1]))


def _grid_points(tracer, args, kwargs, result) -> None:
    # nested prequant calls (gamma_n_quant_bruteforce -> gamma_quant) count once
    if tracer.stack and tracer.spans[tracer.stack[-1]][0] == "prequant":
        return
    flat = [a for arg in args for a in (arg if isinstance(arg, list) else [arg])]
    for item in flat:
        leaf = getattr(item, "func", item)
        values = getattr(leaf, "values", None)
        if values is not None:
            tracer.count("prequant.grid_points", values.size)


_EXTRACT = ("extract_hamiltonian", _extract_name, None)
_CONE = ("classify_cone", "paths.cone", None)
_WINDING = ("maslov_index", "maslov.winding", _winding_samples)
_HOMOGENIZE = ("homogenize", "maslov.homogenize", None)

# module -> (attribute, span name or name function, hook after return)
WRAPS = {
    "symporder.maslov": [
        _WINDING, _HOMOGENIZE, _EXTRACT,
        ("unitary_polar_factor", "matrices.polar", None),
        ("refine", "maslov.refine", None),
        ("pointwise_power", "paths.power", None),
        ("positive_path_to", "maslov.synth", None),
    ],
    "symporder.growth": [
        _WINDING, _HOMOGENIZE, _EXTRACT, _CONE,
        ("mu_tilde", "growth.mu_tilde", None),
        ("gamma_n_bruteforce", "growth.staircase", None),
        ("growth_estimate", "growth.api", None),
        ("pseudo_distance_k", "growth.api", None),
        ("z_coordinate", "growth.api", None),
    ],
    "symporder.paths": [
        _EXTRACT, _CONE,
        ("resample", "paths.resample", None),
        ("invert", "paths.invert", None),
    ],
    "symporder.generators": [
        ("unitary_path_from_generator", "generators.integrate", None),
        ("symplectic_path_from_hamiltonian", "generators.integrate", None),
    ],
    "symporder.io": [
        (name, "io.load", _bytes_read)
        for name in ("load_path", "load_grid", "load_quant_element", "load_matrix")
    ] + [
        (name, "io.save", _bytes_written)
        for name in ("save_path", "save_grid", "save_quant_element")
    ],
    "symporder.prequant": [
        (name, "prequant", _grid_points)
        for name in ("gamma_quant", "gamma_n_quant_bruteforce", "k_quant",
                     "rotation_curve_distance", "embed_into_z", "calabi_weinstein")
    ],
    "symporder.cli": [
        _EXTRACT, _CONE,
        ("order_leq", "paths.order", None),
        ("run", "cli.run", None),
    ],
}


class Tracer:
    """In-memory span recorder; ``phase`` tags spans as setup or op work."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._saved: list[tuple] = []

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [label, 0.0, 0.0, parent, self.phase]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[self.phase, key] += amount

    def counted(self, fn, key: str):
        """Wrap a benchmark-side closure so that its evaluations are counted."""
        def counting(*args):
            self.count(key)
            return fn(*args)

        return counting

    def install(self) -> None:
        for module_name, entries in WRAPS.items():
            module = importlib.import_module(module_name)
            for attr, name, hook in entries:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def times(self, phase: str) -> tuple[dict, dict, dict]:
        """Per span name: (self seconds, total seconds, call count) in a phase."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, total, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            if tag == phase:
                own[name] += end - start - child[i]
                total[name] += end - start
                calls[name] += 1
        return own, total, calls
