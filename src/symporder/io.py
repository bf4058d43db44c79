"""JSON file formats for paths, leaf-function grids and matrices.

All numbers are written through Python's shortest round-trip float repr, so a
load/save cycle reproduces every value bit-for-bit (17 significant digits
suffice).  Schemas, with matrices flattened row-major:

* path file:      {"dim": d, "times": [...], "matrices": [[d*d floats], ...]}
* grid file:      {"grid_shape": [...], "values": [...]}
* quant file:     {"shift": s, "grid_shape": [...], "values": [...]}
* matrix file:    {"dim": d, "matrix": [d*d floats]}
* hermitian file: {"n": n, "real": [n*n floats], "imag": [n*n floats]}

Loaders accept only positive JSON integers for ``dim``, ``n`` and the
``grid_shape`` entries, and only finite JSON numbers in the float fields (no
booleans or strings, which numpy would read as numbers); anything
else is an :class:`InputError` that names the file, as is a file that cannot
be opened, decoded as UTF-8 or written (only :func:`write_text` writes).
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError
from .paths import SampledPath

if TYPE_CHECKING:
    from .prequant import LeafFunction, QuantElement


def _load_json(filename: str) -> dict:
    try:
        with open(filename, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"{filename}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{filename}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, over-long integer, deep nesting
        raise InputError(f"{filename}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{filename}: expected a JSON object at top level")
    return data


def _require(data: dict, key: str, filename: str):
    if key not in data:
        raise InputError(f"{filename}: missing required key {key!r}")
    return data[key]


def _require_count(data: dict, key: str, filename: str) -> int:
    value = _require(data, key, filename)
    if type(value) is not int or value < 1:
        raise InputError(f"{filename}: {key!r} must be a positive integer, got {value!r}")
    return value


def _require_shape(data: dict, filename: str) -> tuple:
    shape = _require(data, "grid_shape", filename)
    if not isinstance(shape, list) or any(type(n) is not int or n < 1 for n in shape):
        raise InputError(f"{filename}: 'grid_shape' must be a list of positive "
                         f"integers, got {shape!r}")
    return tuple(shape)


def _require_floats(data: dict, key: str, filename: str) -> np.ndarray:
    raw = _require(data, key, filename)
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{filename}: {key!r} must hold numbers ({exc})") from exc
    # a conversion that succeeds leaves a regular nest of values.ndim lists
    leaves = [raw]
    for _ in range(values.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise InputError(f"{filename}: {key!r} must hold only numbers, "
                         "not booleans, strings or null")
    if not np.isfinite(values).all():
        raise InputError(f"{filename}: {key!r} holds a non-finite number")
    return values


def load_path(filename: str) -> SampledPath:
    data = _load_json(filename)
    dim = _require_count(data, "dim", filename)
    times = _require_floats(data, "times", filename)
    mats = _require_floats(data, "matrices", filename)
    try:
        mats = mats.reshape(times.size, dim, dim)
    except ValueError as exc:
        raise InputError(f"{filename}: matrices do not form "
                         f"{times.size} x {dim} x {dim} samples ({exc})") from exc
    try:
        return SampledPath(times, mats)
    except InputError as exc:
        raise InputError(f"{filename}: {exc}") from exc


def write_text(text: str, filename: str) -> None:
    """Write ``text`` to a file; the one place the package writes files."""
    try:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{filename}: {exc.strerror}") from exc


def _save_json(doc: dict, filename: str) -> None:
    write_text(json.dumps(doc) + "\n", filename)


def save_path(path: SampledPath, filename: str) -> None:
    _save_json({
        "dim": path.dim,
        "times": path.times.tolist(),
        "matrices": [m.reshape(-1).tolist() for m in path.matrices],
    }, filename)


def _read_grid(data: dict, filename: str) -> np.ndarray:
    shape = _require_shape(data, filename)
    values = _require_floats(data, "values", filename)
    try:
        return values.reshape(shape)
    except ValueError as exc:
        raise InputError(f"{filename}: values do not fill grid {shape} ({exc})") from exc


def load_grid(filename: str) -> LeafFunction:
    # the path commands never read a grid, so they never load ``prequant``
    from .prequant import LeafFunction, is_normalized

    values = _read_grid(_load_json(filename), filename)
    return LeafFunction(values, normalized=is_normalized(values))


def _grid_doc(leaf: LeafFunction) -> dict:
    return {"grid_shape": list(leaf.grid_shape), "values": leaf.values.reshape(-1).tolist()}


def save_grid(leaf: LeafFunction, filename: str) -> None:
    _save_json(_grid_doc(leaf), filename)


def load_quant_element(filename: str) -> QuantElement:
    """Read a quantomorphism element: a fiber shift plus a leaf function.

    A nonzero mean in the stored values is folded into the shift, since a
    constant leaf function acts as a fiber rotation.
    """
    from .prequant import QuantElement, _fold_mean

    data = _load_json(filename)
    shift = _require_floats(data, "shift", filename)
    if shift.shape != ():
        raise InputError(f"{filename}: 'shift' must be a single number")
    values = _read_grid(data, filename)
    try:
        mean, leaf = _fold_mean(values)
        return QuantElement(float(shift) + mean, leaf)
    except ValueError as exc:
        raise InputError(f"{filename}: {exc}") from exc


def save_quant_element(element: QuantElement, filename: str) -> None:
    _save_json({"shift": element.shift, **_grid_doc(element.func)}, filename)


def load_matrix(filename: str) -> np.ndarray:
    data = _load_json(filename)
    dim = _require_count(data, "dim", filename)
    flat = _require_floats(data, "matrix", filename)
    try:
        return flat.reshape(dim, dim)
    except ValueError as exc:
        raise InputError(f"{filename}: matrix is not {dim} x {dim} ({exc})") from exc


def load_hermitian(filename: str) -> np.ndarray:
    data = _load_json(filename)
    n = _require_count(data, "n", filename)
    re = _require_floats(data, "real", filename)
    im = _require_floats(data, "imag", filename)
    try:
        return re.reshape(n, n) + 1j * im.reshape(n, n)
    except ValueError as exc:
        raise InputError(f"{filename}: blocks are not {n} x {n} ({exc})") from exc
