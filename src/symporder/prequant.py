"""Order and growth for quantomorphism lifts over a torus leaf space.

Autonomous lifted flows commuting with the fiber rotation are modeled by a
fiber-rotation amount ``shift`` plus a leaf function on a periodic grid.  A
normalized leaf function generates a strict quantomorphism; composing with
the rotation ``e^{i s}`` shifts its generator by ``s``.  The bi-invariant
order, relative growth, the pseudo-distance and the embedding onto the
metric line Z all become pointwise formulas in ``generator = shift + func``:

* dominance:        shift + min(func) > 0
* order vs 1:       e^{is} f >= 1  iff  -min F <= s;   <= 1  iff  max F <= -s
* relative growth:  gamma(a, b) = max over the grid of gen_b / gen_a
* pseudo-distance:  K(a, b) = max |log gen_a - log gen_b|
* Calabi-Weinstein: time integral of the leaf-volume mean of the generator

Grids sample the unit torus at ``p_j = j / N`` per axis (no duplicated
endpoint), so the plain mean is the exact uniform volume integral for
trigonometric polynomials below the Nyquist degree.  Every average whose sum
overflows is taken again on values scaled by a power of two (:func:`_scaled`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, finite, integer

NORMALIZATION_TOL = 1e-12


def _unit(values) -> tuple[np.ndarray, int]:
    """(2^-e values, e), 2^e the power of two that takes the largest |value| into [1, 2)."""
    e = int(np.frexp(np.max(np.abs(values)))[1]) - 1
    return np.ldexp(values, -e), e


def _scaled(reduce, values):
    """``reduce(values)`` where finite, else 2^e reduce(2^-e values) as in :func:`_unit`:
    exact for reductions homogeneous of degree 1, so a result that fits keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(result := reduce(values)).all():
            return result
        unit, e = _unit(values)
        return np.ldexp(reduce(unit), e)


def is_normalized(values: np.ndarray) -> bool:
    """Zero grid mean within ``NORMALIZATION_TOL`` times the largest |value|, the rounding
    left by subtracting a float mean, read at :func:`_unit`'s scale: F and 2^k F agree."""
    unit, _ = _unit(values)
    return bool(abs(unit.mean()) <= NORMALIZATION_TOL * np.abs(unit).max())


@dataclass(frozen=True)
class LeafFunction:
    """Real function sampled on a periodic torus grid.

    ``normalized`` is read off the values (:func:`is_normalized`, zero grid
    mean), never passed in; only normalized functions generate elements of
    the strict quantomorphism group, unnormalized ones appear as raw data
    (Calabi-Weinstein inputs, embedding pre-images).
    """

    values: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.size == 0:
            raise InputError("leaf function needs a nonempty grid")
        if not np.isfinite(values).all():
            raise InputError("leaf function values must be finite")
        object.__setattr__(self, "normalized", is_normalized(values))

    @property
    def grid_shape(self) -> tuple:
        return self.values.shape


def normalize_leaf(values: np.ndarray) -> LeafFunction:
    """Subtract the grid mean; the result generates a strict quantomorphism."""
    return _fold_mean(values)[1]


def _fold_mean(values: np.ndarray) -> tuple[float, LeafFunction]:
    """(subtracted mean, normalized leaf function) of a grid.  The residual mean
    that a large common offset leaves is subtracted once more and folded into
    the mean; centered values beyond the float range are an InputError."""
    values = np.asarray(values, dtype=float)
    mean = float(_scaled(np.mean, values))
    with np.errstate(over="ignore", invalid="ignore"):
        centered = values - mean
        if not is_normalized(centered):
            residual = float(_scaled(np.mean, centered))
            centered, mean = centered - residual, mean + residual
    if not np.isfinite(centered).all():
        raise InputError("leaf function values minus their grid mean leave the float range")
    return mean, LeafFunction(centered)


def torus_grid(shape) -> list[np.ndarray]:
    """Coordinate arrays p_j = j / N per axis, meshed with 'ij' indexing."""
    return list(np.meshgrid(*(np.arange(n) / n for n in shape), indexing="ij"))


@dataclass(frozen=True)
class QuantElement:
    """Lift e^{i shift} compose flow-of-func: func normalized, generator shift + func finite."""

    shift: float
    func: LeafFunction
    generator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.func.normalized:
            raise InputError("quantomorphism elements need a normalized leaf function")
        with np.errstate(over="ignore"):
            object.__setattr__(self, "generator", self.shift + self.func.values)
        if not np.isfinite(self.generator).all():
            raise InputError("the generator shift + F of a quantomorphism must be finite")

    @property
    def is_dominant(self) -> bool:
        return float(self.generator.min()) > 0.0


def fiber_rotation(shift: float, grid_shape) -> QuantElement:
    """Pure rotation e^{i shift} as a quantomorphism element."""
    return QuantElement(shift, LeafFunction(np.zeros(grid_shape)))


@dataclass(frozen=True)
class HoferProfile:
    """One-sided Hofer-type norms of a normalized leaf function.

    ``plus``/``minus`` are max F and -min F.  For the autonomous commuting
    elements modeled here the time-averaged asymptotic norms coincide with
    them, so these two fields serve wherever the asymptotic norms are meant.
    """

    plus: float
    minus: float


def hofer_norms(f: LeafFunction) -> HoferProfile:
    if not f.normalized:
        raise InputError("Hofer norms are defined for normalized leaf functions")
    return HoferProfile(plus=float(f.values.max()), minus=float(-f.values.min()))


def order_bridge(s: float, f: LeafFunction) -> tuple[bool, bool]:
    """(e^{is} f >= 1, e^{is} f <= 1) decided through the Hofer profile."""
    if not np.isfinite(s):
        raise InputError(f"fiber shift must be finite, got {s}")
    norms = hofer_norms(f)
    return norms.minus <= s, norms.plus <= -s


def _check_same_grid(a: QuantElement, b: QuantElement) -> None:
    if a.func.grid_shape != b.func.grid_shape:
        raise InputError(f"grid shapes differ: {a.func.grid_shape} vs {b.func.grid_shape}")


def gamma_quant(a: QuantElement, b: QuantElement) -> float:
    """Relative growth max over the grid of generator(b) / generator(a).

    Requires a dominant ``a``; ``b`` may be arbitrary (negative values simply
    witness that no positive power of ``a`` is needed).
    """
    _check_same_grid(a, b)
    if not a.is_dominant:
        raise InputError("gamma_quant needs a dominant first argument")
    with np.errstate(over="ignore"):
        return finite(float((b.generator / a.generator).max()), "gamma_quant(a, b)")


def gamma_n_quant_bruteforce(a: QuantElement, b: QuantElement, n: int) -> int:
    """Least integer m with m * generator(a) >= n * generator(b) on the grid.

    This is the ceiling of n * gamma_quant(a, b) with exact-integer boundaries
    kept (a tie within 1e-9 lands on the smaller integer).  A non-integer n,
    or one above the largest float, is an InputError, an overflow a ComputationError.
    """
    if not 1 <= integer(n, "n") <= sys.float_info.max:
        raise InputError(f"n must be positive and at most {sys.float_info.max:.6g}")
    product = finite(n * gamma_quant(a, b), f"n * gamma_quant(a, b) at n = {n:.6g}")
    return int(np.ceil(product - 1e-9))


def k_quant(a: QuantElement, b: QuantElement) -> float:
    """Pseudo-distance max |log generator(a) - log generator(b)|."""
    _check_same_grid(a, b)
    if not (a.is_dominant and b.is_dominant):
        raise InputError("k_quant needs two dominant elements")
    return float(np.abs(np.log(a.generator) - np.log(b.generator)).max())


@dataclass(frozen=True)
class RotationCurveDistance:
    """Distance from a dominant element to the fiber-rotation curve.

    ``t_star`` is the rotation amount attaining the infimum,
    sqrt((s + plus) * (s - minus)).
    """

    value: float
    t_star: float


def rotation_curve_distance(s: float, f: LeafFunction) -> RotationCurveDistance:
    """Distance of e^{is} f to the curve of pure rotations.

    Equals half the log of (s + plus asymptotic norm) / (s - minus asymptotic
    norm); requires the element to be dominant (s > minus norm).
    """
    if not np.isfinite(s):
        raise InputError(f"fiber shift must be finite, got {s}")
    norms = hofer_norms(f)
    # one power of two scales s and both norms, so hi / lo keeps its value
    (s, plus, minus), e = _unit([s, norms.plus, norms.minus])
    hi, lo = s + plus, s - minus
    if lo <= 0.0:
        raise InputError("element is not dominant: rotation distance undefined")
    with np.errstate(over="ignore"):  # a minimizer beyond the float range reads inf
        return RotationCurveDistance(0.5 * float(np.log(hi / lo)),
                                     float(np.ldexp(np.sqrt(hi * lo), e)))


def embed_into_z(f: LeafFunction) -> QuantElement:
    """Isometric embedding of sup-norm function space into the metric space.

    ``F`` maps to the element with generator ``exp(F)``; distances become
    ``k_quant(embed(F), embed(G)) = max |F - G|`` exactly; F above log(max float) is refused.
    """
    bound, top = float(np.log(np.finfo(float).max)), float(f.values.max())
    if top > bound:
        raise InputError(f"leaf function value {top!r} exceeds log(max float) = {bound!r}")
    return QuantElement(*_fold_mean(np.exp(f.values)))


def calabi_weinstein(funcs, weights: np.ndarray | None = None,
                     times: np.ndarray | None = None) -> float:
    """Calabi-Weinstein invariant of a time-sampled family of leaf functions.

    Trapezoid rule in time of the grid mean weighted by ``weights`` (a volume
    density >= 0, scaled by a power of two; ones by default), kept within each
    slice's values, which float rounding can leave.  It vanishes on families
    normalized at every time slice.
    """
    funcs = list(funcs)
    if not funcs:
        raise InputError("need at least one time sample")
    shape = funcs[0].grid_shape
    for f in funcs:
        if f.grid_shape != shape:
            raise InputError("all time slices must share the grid shape")
    times = np.linspace(0.0, 1.0, len(funcs)) if times is None else np.asarray(times, dtype=float)
    if len(times) != len(funcs) or np.any(times[1:] <= times[:-1]):
        raise InputError("times must be strictly increasing and match the family")
    weights = np.ones(shape) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != shape:
        raise InputError(f"weights shape {weights.shape} does not match grid {shape}")
    if not (np.isfinite(times).all() and np.isfinite(weights).all()):
        raise InputError("times and weights must be finite")
    weights, _ = _unit(weights)
    if weights.min() < 0 or (total := weights.sum()) <= 0:
        raise InputError("weights must be nonnegative with a positive total volume")
    means = np.array([np.clip(_scaled(lambda v: (weights * v).sum() / total, f.values),
                              f.values.min(), f.values.max()) for f in funcs])
    return float(means[0] if len(means) == 1 else _scaled(lambda m: np.trapezoid(m, times), means))
