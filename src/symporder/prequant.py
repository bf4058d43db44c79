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
trigonometric polynomials below the Nyquist degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

NORMALIZATION_TOL = 1e-12
DEFAULT_GRID = 1024


@dataclass(frozen=True)
class LeafFunction:
    """Real function sampled on a periodic torus grid.

    ``normalized`` asserts zero grid mean within ``NORMALIZATION_TOL``; only
    normalized functions generate elements of the strict quantomorphism
    group, unnormalized ones appear as raw data (Calabi-Weinstein inputs,
    embedding pre-images).
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.size == 0:
            raise InputError("leaf function needs a nonempty grid")
        if not np.isfinite(values).all():
            raise InputError("leaf function values must be finite")
        if self.normalized and abs(values.mean()) > NORMALIZATION_TOL:
            raise InputError(
                f"claimed normalized but grid mean is {values.mean():.3e}")

    @property
    def grid_shape(self) -> tuple:
        return self.values.shape

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def normalize_leaf(values: np.ndarray) -> LeafFunction:
    """Subtract the grid mean; the result generates a strict quantomorphism."""
    values = np.asarray(values, dtype=float)
    return LeafFunction(values - values.mean(), normalized=True)


def torus_grid(shape) -> list[np.ndarray]:
    """Coordinate arrays p_j = j / N per axis, meshed with 'ij' indexing."""
    axes = [np.arange(n) / n for n in shape]
    if len(axes) == 1:
        return [axes[0]]
    return list(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class QuantElement:
    """Lift e^{i shift} compose flow-of-func, with func a normalized leaf function."""

    shift: float
    func: LeafFunction

    def __post_init__(self):
        if not np.isfinite(self.shift):
            raise InputError(f"fiber shift must be finite, got {self.shift}")
        if not self.func.normalized:
            raise InputError("quantomorphism elements need a normalized leaf function")

    @property
    def generator(self) -> np.ndarray:
        return self.shift + self.func.values

    @property
    def is_dominant(self) -> bool:
        return float(self.generator.min()) > 0.0


def fiber_rotation(shift: float, grid_shape) -> QuantElement:
    """Pure rotation e^{i shift} as a quantomorphism element."""
    return QuantElement(shift, LeafFunction(np.zeros(grid_shape), normalized=True))


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
    plus = float(f.values.max())
    minus = float(-f.values.min())
    return HoferProfile(plus=plus, minus=minus)


def order_bridge(s: float, f: LeafFunction) -> tuple[bool, bool]:
    """(e^{is} f >= 1, e^{is} f <= 1) decided through the Hofer profile."""
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
    return float((b.generator / a.generator).max())


def gamma_n_quant_bruteforce(a: QuantElement, b: QuantElement, n: int,
                             tie_tol: float = 1e-9) -> int:
    """Least integer m with m * generator(a) >= n * generator(b) on the grid.

    This is the ceiling of n * gamma_quant(a, b) with exact-integer boundaries
    kept (a tie lands on the smaller integer, guarded by ``tie_tol``).
    """
    if n < 1:
        raise InputError("n must be positive")
    target = n * gamma_quant(a, b)
    return int(np.ceil(target - tie_tol))


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
    norms = hofer_norms(f)
    hi = s + norms.plus
    lo = s - norms.minus
    if lo <= 0.0:
        raise InputError("element is not dominant: rotation distance undefined")
    value = 0.5 * float(np.log(hi / lo))
    t_star = float(np.sqrt(hi * lo))
    return RotationCurveDistance(value=value, t_star=t_star)


def embed_into_z(f: LeafFunction) -> QuantElement:
    """Isometric embedding of sup-norm function space into the metric space.

    ``F`` maps to the element with generator ``exp(F)``; distances become
    ``k_quant(embed(F), embed(G)) = max |F - G|`` exactly.
    """
    values = np.exp(np.asarray(f.values, dtype=float))
    shift = float(values.mean())
    return QuantElement(shift, LeafFunction(values - values.mean(), normalized=True))


def calabi_weinstein(funcs, weights: np.ndarray | None = None,
                     times: np.ndarray | None = None) -> float:
    """Calabi-Weinstein invariant of a time-sampled family of leaf functions.

    Trapezoid rule in time of the volume-weighted grid mean; ``weights``
    defaults to the uniform unit-volume measure.  The invariant vanishes on
    families that are normalized at every time slice.
    """
    funcs = list(funcs)
    if not funcs:
        raise InputError("need at least one time sample")
    shape = funcs[0].grid_shape
    for f in funcs:
        if f.grid_shape != shape:
            raise InputError("all time slices must share the grid shape")
    if weights is None:
        means = np.array([f.mean for f in funcs])
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != shape:
            raise InputError(f"weights shape {weights.shape} does not match grid {shape}")
        total = weights.sum()
        if total <= 0:
            raise InputError("weights must have positive total volume")
        means = np.array([float((weights * f.values).sum() / total) for f in funcs])
    if len(funcs) == 1:
        return float(means[0])
    if times is None:
        times = np.linspace(0.0, 1.0, len(funcs))
    else:
        times = np.asarray(times, dtype=float)
        if len(times) != len(funcs) or np.any(np.diff(times) <= 0):
            raise InputError("times must be strictly increasing and match the family")
    return float(np.trapezoid(means, times))
