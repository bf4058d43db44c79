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
    DEFAULT_K_MAX,
    MIN_SAMPLES_ORDER4,
    ConeStatus,
    SampledPath,
    _hamiltonian_track,
    align_grids,
    binary_powers,
    classify_cone,
    cone_holds,
    extract_hamiltonian,
    is_uniform_grid,
    pointwise_power,
)
from .matrices import commutes_with_j, symplectic_inverse

GROWTH_NS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Estimate:
    """Point value with a propagated uncertainty interval [lower, upper]."""

    value: float
    lower: float
    upper: float

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


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
    if not (np.isfinite(c_emp) and c_emp >= 0.0):
        raise InputError(f"c_emp must be a finite non-negative number, got {c_emp}")
    value = maslov_index(pointwise_power(path, k_max)).value / k_max
    half = c_emp / k_max
    return Estimate(value, value - half, value + half)


def _require_dominant(path: SampledPath, tol: float, who: str) -> None:
    """Refuse a path that ``classify_cone`` does not call dominant.

    A Cholesky pass accepts the path without eigenvalues; only a path it
    refuses is classified, which gives the error its eigenvalue and keeps
    ``classify_cone``'s verdict inside the rounding band.
    """
    if cone_holds(extract_hamiltonian(path).hams, tol):
        return
    verdict = classify_cone(path, tol)
    if verdict.status is not ConeStatus.DOMINANT:
        raise InputError(f"{who} must be dominant, got {verdict.status.value} "
                         f"(min generator eigenvalue {verdict.min_eigenvalue:.3e})")


def _require_same_dim(x: SampledPath, y: SampledPath) -> None:
    if x.dim != y.dim:
        raise InputError("paths must share a dimension")


def gamma_closed_unitary(x: SampledPath, y: SampledPath) -> float:
    """Relative growth of a dominant unitary pair: maslov(Y) / maslov(X)."""
    _require_same_dim(x, y)
    for path, who in ((x, "X"), (y, "Y")):
        if not commutes_with_j(path.matrices):
            raise InputError(f"{who} is not a unitary path")
        _require_dominant(path, CONE_TOL, who)
    mx, my = _unitary_windings(x, y)
    return my / mx


def _unitary_windings(x: SampledPath, y: SampledPath) -> tuple[float, float]:
    """(maslov(X), maslov(Y)) of a unitary pair, X's positive."""
    mx = maslov_index(x).value
    if mx <= 0.0:
        raise InputError("maslov index of X must be positive")
    return mx, maslov_index(y).value


def _dominant_mus(x: SampledPath, y: SampledPath, k_max: int, c_emp: float,
                  tol: float) -> tuple[Estimate, Estimate]:
    """Check the dimensions, X, then Y, for dominance; return (mu_tilde(X),
    mu_tilde(Y)), Y's taken first."""
    _require_same_dim(x, y)
    _require_dominant(x, tol, "X")
    _require_dominant(y, tol, "Y")
    mu_y = mu_tilde(y, k_max, c_emp)
    return mu_tilde(x, k_max, c_emp), mu_y


def gamma_closed_symplectic(x: SampledPath, y: SampledPath,
                            k_max: int = DEFAULT_K_MAX, c_emp: float = 0.0,
                            tol: float = CONE_TOL) -> Estimate:
    """Relative growth via homogenized windings, with propagated uncertainty."""
    mu_x, mu_y = _dominant_mus(x, y, k_max, c_emp, tol)
    return ratio_estimate(mu_y, mu_x)


def pseudo_distance_k(x: SampledPath, y: SampledPath,
                      k_max: int = DEFAULT_K_MAX, c_emp: float = 0.0,
                      tol: float = CONE_TOL) -> Estimate:
    """K(X, Y) = max(log gamma(X, Y), log gamma(Y, X)) for dominants.

    Both ratios come from one cone check and one mu_tilde per path.
    """
    mu_x, mu_y = _dominant_mus(x, y, k_max, c_emp, tol)
    gxy = ratio_estimate(mu_y, mu_x)
    gyx = ratio_estimate(mu_x, mu_y)
    return max_estimate(log_estimate(gxy), log_estimate(gyx))


@dataclass(frozen=True)
class ZPoint:
    """Coordinate log(homogenized winding) of a dominant path on Z, with its
    uncertainty interval [lower, upper]."""

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
    return ZPoint(coordinate=est.value, lower=est.lower, upper=est.upper)


# ---------------------------------------------------------------------------
# brute-force order staircase


@dataclass(frozen=True)
class _PowerAtom:
    """Inverse samples and generator track of a path, closed under pointwise
    products via the composition formula for generators."""

    inv: np.ndarray
    hams: np.ndarray

    def hams_of_product(self, other: "_PowerAtom") -> np.ndarray:
        """Generator track of the product path self @ other, without its
        inverse samples; an overflow gives inf or NaN without a warning."""
        inv_t = np.swapaxes(self.inv, -1, -2)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.hams + inv_t @ other.hams @ self.inv

    def __matmul__(self, other: "_PowerAtom") -> "_PowerAtom":
        # overflow warnings are off inside ``binary_powers``, the one caller
        return _PowerAtom(inv=other.inv @ self.inv, hams=self.hams_of_product(other))


def _staircase_hams(path: SampledPath, inverse: np.ndarray | None = None) -> np.ndarray:
    """Generator track the staircase certifies with, from the inverse samples
    when the caller holds them."""
    # fourth-order stencils where the grid allows: staircase decisions sit at
    # the cone boundary, where second-order FD noise would flip verdicts
    order4 = is_uniform_grid(path.times) and path.n_samples >= MIN_SAMPLES_ORDER4
    return _hamiltonian_track(path, 4 if order4 else 2, inverse).hams


def _forward_atom(path: SampledPath) -> _PowerAtom:
    """Atom of X; its inverse samples, formed once, also give its track."""
    inv = symplectic_inverse(path.matrices)
    return _PowerAtom(inv, _staircase_hams(path, inv))


def _inverse_atom(path: SampledPath, hams: np.ndarray) -> _PowerAtom:
    mats = path.matrices
    return _PowerAtom(mats, -np.swapaxes(mats, -1, -2) @ hams @ mats)


def _atoms(path: SampledPath) -> tuple[_PowerAtom, _PowerAtom]:
    """Atoms of X and of X^{-1}, both read off the samples of X."""
    up = _forward_atom(path)
    return up, _inverse_atom(path, up.hams)


def _signed_powers(atoms: tuple, ks: tuple) -> tuple:
    """Atoms of X^k for each k of ``ks`` from the atoms (X, X^{-1}).

    Positive powers come from one squaring pass over X's atom, negative ones
    from one pass over X^{-1}'s, so an atom of a direction no k takes may be
    None.
    """
    up, down = atoms
    powers = {}
    if 0 in ks:
        atom = up if up is not None else down
        powers[0] = _PowerAtom(
            np.broadcast_to(np.eye(atom.inv.shape[-1]), atom.inv.shape).copy(),
            np.zeros(atom.hams.shape))
    for atom, sign in ((up, 1), (down, -1)):
        mags = tuple(sign * k for k in ks if sign * k > 0)
        if mags:
            powers.update(zip((sign * m for m in mags), binary_powers(atom, mags)))
    return tuple(powers[k] for k in ks)


def gamma_n_bruteforce(x: SampledPath, y: SampledPath, n: int, p_max: int) -> int | None:
    """Least p in [-p_max, p_max] with a certified X^p >= Y^n, else None.

    The certificate is conservative: it classifies the generator of the
    canonical pointwise representative, assembled through the exact
    composition formula from the base tracks of X and Y (so finite-difference
    error does not grow with p).  Each probe is one batched Cholesky test of
    H + CONE_TOL I (:func:`paths.cone_holds`) on the generator track of X^p
    Y^-n alone, and X's dominance is one test of H_X - CONE_TOL I; no
    eigenvalue is computed.  For a dominant X the certified set of powers is
    upward closed.  The search (:func:`_least_certified_power`) starts at the
    lowest candidate power: the winding floor L_n of a unitary pair (both
    paths commute with J), below which no power can be certified, clipped to
    [-p_max, p_max], or -p_max without a floor.  An in-range floor is probed
    with L_n - 1 from the same squaring pass as a self-check
    (:class:`ComputationError` if the certificate accepts it); a failing
    candidate is followed by p_max and a bisection between the two.
    """
    return _staircase(x, y, ((n, p_max),), CONE_TOL)[0][0]


def _staircase(x: SampledPath, y: SampledPath, rungs, tol: float) -> tuple:
    """(gamma_n for each (n, p_max) rung of one pair, windings).

    The grids are aligned, the atoms built and X's dominance checked once,
    and every rung reuses them.  This is the one place that tests the
    aligned pair for unitarity: ``windings`` is (maslov(X), maslov(Y)) of a
    unitary pair, which gives each rung its winding floor, and None for any
    other pair.  Only the atoms the probes read are built: Y's inverse
    (n >= 0), X's forward atom, and X's inverse when a probe can fall below
    power 0, that is without a floor or with a floor under 1.  The rung
    powers Y^-n come from one squaring pass.
    """
    for n, p_max in rungs:
        if n < 0 or p_max < 0:
            raise InputError("n and p_max must be nonnegative")
    _require_same_dim(x, y)
    x, y = align_grids(x, y)
    x_up = _forward_atom(x)
    if not cone_holds(x_up.hams, tol):
        raise InputError("X must be dominant for the staircase search")
    floors, windings = [None] * len(rungs), None
    if commutes_with_j(x.matrices) and commutes_with_j(y.matrices):
        windings = mx, my = _unitary_windings(x, y)
        floors = [_winding_floor(n, mx, my, x.dim, tol) for n, _ in rungs]
    x_down = None
    if any(floor is None or floor < 1 for floor in floors):
        x_down = _inverse_atom(x, x_up.hams)
    x_atoms = (x_up, x_down)
    y_powers = _signed_powers((None, _inverse_atom(y, _staircase_hams(y))),
                              tuple(-n for n, _ in rungs))
    gamma_ns = [_least_certified_power(x_atoms, y_minus_n, p_max, tol, floor)
                for y_minus_n, (_, p_max), floor in zip(y_powers, rungs, floors)]
    return gamma_ns, windings


def _winding_floor(n: int, mx: float, my: float, dim: int, tol: float) -> int:
    """Least power p the certificate can accept for X^p >= Y^n on a unitary
    pair with windings mx = maslov(X) > 0 and my = maslov(Y).

    On the unitary subgroup the winding is the time integral of tr H / 2
    over [0, 1] (:func:`maslov.maslov_via_trace`), and det(X^p Y^-n) =
    det(X)^p det(Y)^-n, so the winding of X^p Y^-n is p mx - n my.  A power
    the certificate accepts has H + tol I > 0, hence tr H > -dim tol, at
    every sample; integrating, p mx - n my > -(dim / 2) tol, that is
    p > n ratio - (dim / 2) tol / mx with ratio = my / mx.  The last term
    of the slack covers the rounding of n ratio.  The homogenized Maslov
    quasimorphism is monotone (Eliashberg-Polterovich), so the same floor
    holds for the order itself.
    """
    ratio = my / mx
    slack = 0.5 * dim * tol / mx + 1e-12 * max(1.0, n * abs(ratio))
    return int(np.ceil(n * ratio - slack))


def _probe(x_power: _PowerAtom, y_minus_n: _PowerAtom, tol: float) -> bool:
    """Whether the generator of X^p Y^-n, from the atoms of X^p and Y^-n,
    lies above -tol at every sample."""
    return cone_holds(x_power.hams_of_product(y_minus_n), -tol)


def _certified(x_atoms: tuple[_PowerAtom, _PowerAtom], y_minus_n: _PowerAtom,
               p: int, tol: float) -> bool:
    """Whether the generator of X^p Y^-n lies above -tol at every sample."""
    return _probe(_signed_powers(x_atoms, (p,))[0], y_minus_n, tol)


def _least_certified_power(x_atoms: tuple[_PowerAtom, _PowerAtom],
                           y_minus_n: _PowerAtom, p_max: int, tol: float,
                           floor: int | None = None) -> int | None:
    """Least p in [-p_max, p_max] that :func:`_certified` accepts, else None.

    One flow for every pair.  The lowest candidate is probed first: the
    winding floor (:func:`_winding_floor`) clipped to [-p_max, p_max], or
    -p_max without a floor.  An in-range floor takes floor - 1 from the same
    squaring pass as a self-check.  If the candidate fails, p_max is probed
    and the search bisects between them, relying on the certified set being
    upward closed: about log2 of their distance more probes.  A certified
    power below the floor raises :class:`ComputationError`, as does a probe
    whose generator overflows.
    """
    def below_floor(p: int) -> ComputationError:
        return ComputationError(
            f"the certificate accepts power {p} below the winding floor {floor}")

    lo = -p_max if floor is None else min(max(floor, -p_max), p_max)
    ks = (lo, lo - 1) if lo == floor and floor > -p_max else (lo,)
    candidate, *check = _signed_powers(x_atoms, ks)
    if _probe(candidate, y_minus_n, tol):
        if floor is not None and lo < floor:
            raise below_floor(lo)
        if check and _probe(check[0], y_minus_n, tol):
            raise below_floor(lo - 1)
        return lo
    del candidate, check
    if lo == p_max or not _certified(x_atoms, y_minus_n, p_max, tol):
        return None
    hi = p_max  # invariant: lo fails, hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _certified(x_atoms, y_minus_n, mid, tol):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GrowthEstimate:
    """Staircase gamma_n over a ladder of n, with its limit and closed form.

    ``limit_estimate`` is [gamma_n/n - 1/n, gamma_n/n] at the last rung.  The
    certificate is conservative, so a certified gamma_n is at least the true
    one: the upper end bounds the limit from above, while the lower end
    holds only where the certificate is tight (certified gamma_n = true
    gamma_n).
    """

    ns: tuple
    gamma_ns: tuple
    limit_estimate: Estimate
    closed_form: float | None


def growth_estimate(x: SampledPath, y: SampledPath, ns=GROWTH_NS,
                    p_max: int | None = None, tol: float = CONE_TOL) -> GrowthEstimate:
    """Brute-force growth staircase next to its closed-form prediction.

    Without ``p_max`` each rung n searches [-P, P] with P = ceil(|gamma| n)
    + 8, gamma the ratio of homogenized windings at k_max = 8.
    ``closed_form`` is maslov(Y) / maslov(X) of the aligned pair when it is
    unitary, else None.
    """
    ns = tuple(ns)
    if not ns:
        raise InputError("growth estimate needs at least one staircase index n")
    hint = gamma_closed_symplectic(x, y, tol=tol).value
    rungs = [(n, p_max if p_max is not None else int(np.ceil(abs(hint) * n)) + 8)
             for n in ns]
    gamma_ns, windings = _staircase(x, y, rungs, tol)
    if gamma_ns[-1] is None:
        raise ComputationError(
            f"no certified power found at n={ns[-1]} within p_max={rungs[-1][1]}; "
            "raise p_max (symporder gamma --pmax)")
    # the staircase pins gamma into [gamma_n/n - 1/n, gamma_n/n] only when the
    # certificate is tight; a conservative certificate gives the upper end alone
    top = gamma_ns[-1] / ns[-1]
    limit = Estimate(top, top - 1.0 / ns[-1], top)
    closed = windings[1] / windings[0] if windings is not None else None
    return GrowthEstimate(ns=ns, gamma_ns=tuple(gamma_ns),
                          limit_estimate=limit, closed_form=closed)
