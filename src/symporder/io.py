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
``grid_shape`` entries, and only finite numbers in the float fields; anything
else is an :class:`InputError` that names the file.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .paths import SampledPath
from .prequant import LeafFunction, QuantElement


def _load_json(filename: str) -> dict:
    try:
        with open(filename) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"{filename}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{filename}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
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
    except (TypeError, ValueError) as exc:
        raise InputError(f"{filename}: {key!r} must hold numbers ({exc})") from exc
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


def save_path(path: SampledPath, filename: str) -> None:
    doc = {
        "dim": path.dim,
        "times": path.times.tolist(),
        "matrices": [m.reshape(-1).tolist() for m in path.matrices],
    }
    with open(filename, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_grid(filename: str) -> LeafFunction:
    data = _load_json(filename)
    shape = _require_shape(data, filename)
    values = _require_floats(data, "values", filename)
    try:
        values = values.reshape(shape)
    except ValueError as exc:
        raise InputError(f"{filename}: values do not fill grid {shape} ({exc})") from exc
    normalized = abs(float(values.mean())) <= 1e-12
    return LeafFunction(values, normalized=normalized)


def save_grid(leaf: LeafFunction, filename: str) -> None:
    doc = {
        "grid_shape": list(leaf.grid_shape),
        "values": leaf.values.reshape(-1).tolist(),
    }
    with open(filename, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_quant_element(filename: str) -> QuantElement:
    """Read a quantomorphism element: a fiber shift plus a leaf function.

    A nonzero mean in the stored values is folded into the shift, since a
    constant leaf function acts as a fiber rotation.
    """
    data = _load_json(filename)
    shift = _require_floats(data, "shift", filename)
    if shift.shape != ():
        raise InputError(f"{filename}: 'shift' must be a single number")
    shape = _require_shape(data, filename)
    values = _require_floats(data, "values", filename)
    try:
        values = values.reshape(shape)
    except ValueError as exc:
        raise InputError(f"{filename}: values do not fill grid {shape} ({exc})") from exc
    mean = float(values.mean())
    try:
        return QuantElement(float(shift) + mean, LeafFunction(values - mean, normalized=True))
    except ValueError as exc:
        raise InputError(f"{filename}: {exc}") from exc


def save_quant_element(element: QuantElement, filename: str) -> None:
    doc = {
        "shift": element.shift,
        "grid_shape": list(element.func.grid_shape),
        "values": element.func.values.reshape(-1).tolist(),
    }
    with open(filename, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


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
