"""Relative growth, the pseudo-distance K, and the metric line Z.

For dominant elements f, g the relative growth is the limit of
``gamma_n(f, g) / n`` where ``gamma_n`` is the least power p with
``f^p >= g^n``.  On the symplectic path groups treated here the limit equals
the ratio of homogenized windings, which makes the brute-force staircase an
independent check of the closed form.  ``K(f, g) = max(log gamma(f, g),
log gamma(g, f))`` is a pseudo-distance, and ``log`` of the homogenized
winding realizes the quotient metric space as the real line.

Winding estimates truncated at k_max carry an error up to C/k_max with C the
quasimorphism defect; these half-widths are propagated through every ratio,
log and max as plain interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError
# ``homogenize`` is not called here; the binding stays because the benchmark's
# tracer wraps ``symporder.growth.homogenize`` by name.
from .maslov import homogenize, maslov_index  # noqa: F401
from .paths import (
    CONE_TOL,
    ConeStatus,
    SampledPath,
    align_grids,
    binary_power,
    classify_cone,
    extract_hamiltonian,
    is_uniform_grid,
    pointwise_power,
)
from .matrices import commutes_with_j, symplectic_inverse

DEFAULT_K_MAX = 8
GROWTH_NS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Estimate:
    """Point value with a propagated uncertainty interval [lower, upper]."""

    value: float
    lower: float
    upper: float

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.upper - self.lower)


def exact(value: float) -> Estimate:
    return Estimate(value, value, value)


def ratio_estimate(num: Estimate, den: Estimate) -> Estimate:
    if den.lower <= 0.0:
        raise ComputationError(
            "denominator interval reaches zero; increase k_max or lower c_emp")
    return Estimate(num.value / den.value, num.lower / den.upper, num.upper / den.lower)


def log_estimate(e: Estimate) -> Estimate:
    if e.lower <= 0.0:
        raise ComputationError("log of an interval reaching zero")
    return Estimate(float(np.log(e.value)), float(np.log(e.lower)), float(np.log(e.upper)))


def max_estimate(a: Estimate, b: Estimate) -> Estimate:
    return Estimate(max(a.value, b.value), max(a.lower, b.lower), max(a.upper, b.upper))


def mu_tilde(path: SampledPath, k_max: int = DEFAULT_K_MAX, c_emp: float = 0.0) -> Estimate:
    """Homogenized winding estimate maslov(X^k_max)/k_max with +-c_emp/k_max.

    This is the last entry of ``homogenize(path, k_max)``, bit for bit,
    without the k_max - 1 windings before it.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    value = maslov_index(pointwise_power(path, k_max)).value / k_max
    half = c_emp / k_max
    return Estimate(value, value - half, value + half)


def _require_dominant(path: SampledPath, tol: float, who: str) -> None:
    verdict = classify_cone(path, tol)
    if verdict.status is not ConeStatus.DOMINANT:
        raise InputError(f"{who} must be dominant, got {verdict.status.value} "
                         f"(min generator eigenvalue {verdict.min_eigenvalue:.3e})")


def gamma_closed_unitary(x: SampledPath, y: SampledPath,
                         tol: float = CONE_TOL) -> float:
    """Relative growth of a dominant unitary pair: maslov(Y) / maslov(X)."""
    for path, who in ((x, "X"), (y, "Y")):
        if not commutes_with_j(path.matrices, 1e-9):
            raise InputError(f"{who} is not a unitary path")
        _require_dominant(path, tol, who)
    mx = maslov_index(x).value
    if mx <= 0.0:
        raise InputError("maslov index of X must be positive")
    return maslov_index(y).value / mx


def gamma_closed_symplectic(x: SampledPath, y: SampledPath,
                            k_max: int = DEFAULT_K_MAX, c_emp: float = 0.0,
                            tol: float = CONE_TOL) -> Estimate:
    """Relative growth via homogenized windings, with propagated uncertainty."""
    _require_dominant(x, tol, "X")
    _require_dominant(y, tol, "Y")
    return ratio_estimate(mu_tilde(y, k_max, c_emp), mu_tilde(x, k_max, c_emp))


def pseudo_distance_k(x: SampledPath, y: SampledPath,
                      k_max: int = DEFAULT_K_MAX, c_emp: float = 0.0,
                      tol: float = CONE_TOL) -> Estimate:
    """K(X, Y) = max(log gamma(X, Y), log gamma(Y, X)) for dominants."""
    gxy = gamma_closed_symplectic(x, y, k_max, c_emp, tol)
    gyx = gamma_closed_symplectic(y, x, k_max, c_emp, tol)
    return max_estimate(log_estimate(gxy), log_estimate(gyx))


@dataclass(frozen=True)
class ZPoint:
    """A dominant path with its coordinate log(homogenized winding) on Z."""

    representative: SampledPath
    coordinate: float
    lower: float
    upper: float


def z_coordinate(x: SampledPath, k_max: int = DEFAULT_K_MAX, c_emp: float = 0.0,
                 tol: float = CONE_TOL) -> ZPoint:
    """Coordinate of a dominant path on the metric line Z.

    Coordinate differences reproduce K exactly, and certified order relations
    are monotone in the coordinate.
    """
    _require_dominant(x, tol, "X")
    est = log_estimate(mu_tilde(x, k_max, c_emp))
    return ZPoint(representative=x, coordinate=est.value,
                  lower=est.lower, upper=est.upper)


# ---------------------------------------------------------------------------
# brute-force order staircase


@dataclass(frozen=True)
class _PowerAtom:
    """Inverse samples and generator track of a path, closed under pointwise
    products via the composition formula for generators."""

    inv: np.ndarray
    hams: np.ndarray

    def __matmul__(self, other: "_PowerAtom") -> "_PowerAtom":
        inv_t = np.swapaxes(self.inv, -1, -2)
        return _PowerAtom(
            inv=other.inv @ self.inv,
            hams=self.hams + inv_t @ other.hams @ self.inv,
        )


def _atoms(path: SampledPath) -> tuple[_PowerAtom, _PowerAtom]:
    """Atoms of X and of X^{-1}, both read off the samples of X."""
    # fourth-order stencils where the grid allows: staircase decisions sit at
    # the cone boundary, where second-order FD noise would flip verdicts
    order = 4 if is_uniform_grid(path.times) and path.n_samples >= 5 else 2
    hams = extract_hamiltonian(path, order=order).hams
    mats = path.matrices
    return (_PowerAtom(symplectic_inverse(mats), hams),
            _PowerAtom(mats, -np.swapaxes(mats, -1, -2) @ hams @ mats))


def _signed_power(atoms: tuple[_PowerAtom, _PowerAtom], k: int) -> _PowerAtom:
    """Atom of X^k from the atoms of X and X^{-1}."""
    up, down = atoms
    if k == 0:
        return _PowerAtom(np.broadcast_to(np.eye(up.inv.shape[-1]), up.inv.shape).copy(),
                          np.zeros(up.hams.shape))
    return binary_power(up if k > 0 else down, abs(k))


def gamma_n_bruteforce(x: SampledPath, y: SampledPath, n: int, p_max: int,
                       tol: float = CONE_TOL) -> int | None:
    """Least p in [-p_max, p_max] with a certified X^p >= Y^n, else None.

    The certificate is conservative: it classifies the generator of the
    canonical pointwise representative, assembled through the exact
    composition formula from the base tracks of X and Y (so finite-difference
    error does not grow with p).  For a dominant X the certified set of
    powers is upward closed, which justifies the bisection used here.
    """
    if n < 0 or p_max < 0:
        raise InputError("n and p_max must be nonnegative")
    if x.dim != y.dim:
        raise InputError("paths must share a dimension")
    x, y = align_grids(x, y)
    x_atoms = _atoms(x)
    if float(np.linalg.eigvalsh(x_atoms[0].hams).min()) < tol:
        raise InputError("X must be dominant for the staircase search")
    y_minus_n = _signed_power(_atoms(y), -n)

    def certified(p: int) -> bool:
        combined = _signed_power(x_atoms, p) @ y_minus_n
        return float(np.linalg.eigvalsh(combined.hams).min()) >= -tol

    if not certified(p_max):
        return None
    if certified(-p_max):
        return -p_max
    lo, hi = -p_max, p_max  # invariant: lo fails, hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GrowthEstimate:
    """Staircase gamma_n over a ladder of n, with its limit and closed form."""

    ns: tuple
    gamma_ns: tuple
    limit_estimate: Estimate
    closed_form: float | None


def growth_estimate(x: SampledPath, y: SampledPath, ns=GROWTH_NS,
                    p_max: int | None = None, k_max: int = DEFAULT_K_MAX,
                    c_emp: float = 0.0, tol: float = CONE_TOL) -> GrowthEstimate:
    """Brute-force growth staircase next to its closed-form prediction."""
    hint = gamma_closed_symplectic(x, y, k_max, c_emp, tol).value
    closed = None
    if commutes_with_j(x.matrices, 1e-9) and commutes_with_j(y.matrices, 1e-9):
        closed = gamma_closed_unitary(x, y, tol)
    gamma_ns = []
    for n in ns:
        bound = p_max if p_max is not None else int(np.ceil(abs(hint) * n)) + 8
        gamma_ns.append(gamma_n_bruteforce(x, y, n, bound, tol))
    if gamma_ns[-1] is None:
        raise ComputationError(
            f"no certified power found at n={ns[-1]}; raise p_max")
    # the staircase pins gamma into [gamma_n/n - 1/n, gamma_n/n]
    top = gamma_ns[-1] / ns[-1]
    limit = Estimate(top, top - 1.0 / ns[-1], top)
    return GrowthEstimate(ns=tuple(ns), gamma_ns=tuple(gamma_ns),
                          limit_estimate=limit, closed_form=closed)
