"""Relative growth, the pseudo-distance K, and the metric line Z.

For dominant elements f, g the relative growth is the limit of
``gamma_n(f, g) / n`` where ``gamma_n`` is the least power p with
``f^p >= g^n``.  On the symplectic path groups treated here the limit equals
the ratio of homogenized windings, which the brute-force staircase checks
independently.  The staircase certifies a power on a unitary pair from the
endpoint and the winding of ``X^p Y^-n`` alone (an element of the universal
cover of U(n) is fixed by those two), and on any other pair from the
generator track of the pointwise product.  ``K(f, g) = max(log gamma(f, g),
log gamma(g, f))`` is a pseudo-distance, and ``log`` of the homogenized
winding realizes the quotient metric space as the real line.

Winding estimates truncated at k_max carry an error up to C/k_max with C the
quasimorphism defect; these half-widths are propagated through every ratio,
log and max as plain interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError, finite
# ``homogenize`` is not called here; the binding stays because the benchmark's
# tracer wraps ``symporder.growth.homogenize`` by name.
from .maslov import homogenize, maslov_index  # noqa: F401
from .paths import (
    CONE_TOL,
    DEFAULT_K_MAX,
    MIN_SAMPLES_ORDER4,
    ConeStatus,
    SampledPath,
    align_grids,
    binary_powers,
    classify_cone,
    cone_holds,
    extract_hamiltonian,
    is_uniform_grid,
)
from .matrices import commutes_with_j, real_to_complex, symplectic_inverse

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
    without the k_max - 1 windings before it.  On a unitary path the winding
    of X^k_max is k_max times X's (:func:`symporder.maslov.maslov_index`),
    so the estimate is maslov(X) up to one rounding per increment, and bit
    for bit when k_max is a power of 2; no power path is formed and a large
    k_max does not alias.  Any other path still winds X^k_max.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    if not (np.isfinite(c_emp) and c_emp >= 0.0):
        raise InputError(f"c_emp must be a finite non-negative number, got {c_emp}")
    value = maslov_index(path, k_max).value / k_max
    half = c_emp / k_max
    return Estimate(value, value - half, value + half)


def _require_dominant(path: SampledPath, tol: float, who: str) -> None:
    """Refuse a path that ``classify_cone`` does not call dominant.

    A Cholesky pass over the generator stack (:func:`paths.cone_holds`)
    accepts the path without eigenvalues; only a path it refuses is
    classified, which gives the error its eigenvalue and keeps
    ``classify_cone``'s verdict inside the rounding band.
    """
    if cone_holds(extract_hamiltonian(path), tol):
        return
    verdict = classify_cone(path, tol)
    if verdict.status is not ConeStatus.DOMINANT:
        raise InputError(f"{who} must be dominant, got {verdict.status.value} "
                         f"(min generator eigenvalue {verdict.min_eigenvalue:.3e})")


def _require_same_dim(x: SampledPath, y: SampledPath) -> None:
    if x.dim != y.dim:
        raise InputError("paths must share a dimension")


def _unitary_windings(x: SampledPath, y: SampledPath) -> tuple[float, float]:
    """(maslov(X), maslov(Y)) of a unitary pair, X's positive."""
    mx = maslov_index(x).value
    if mx <= 0.0:
        raise InputError("maslov index of X must be positive")
    return mx, maslov_index(y).value


def _require_dominant_pair(x: SampledPath, y: SampledPath, tol: float) -> None:
    """Check the dimensions, then X, then Y, for dominance."""
    _require_same_dim(x, y)
    _require_dominant(x, tol, "X")
    _require_dominant(y, tol, "Y")


def _dominant_mus(x: SampledPath, y: SampledPath, k_max: int, c_emp: float,
                  tol: float) -> tuple[Estimate, Estimate]:
    """Check the pair (:func:`_require_dominant_pair`); return (mu_tilde(X),
    mu_tilde(Y)), Y's taken first."""
    _require_dominant_pair(x, y, tol)
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


def _staircase_hams(path: SampledPath) -> np.ndarray:
    """Generator track the staircase certifies with."""
    # fourth-order stencils where the grid allows: staircase decisions sit at
    # the cone boundary, where second-order FD noise would flip verdicts
    order4 = is_uniform_grid(path.times) and path.n_samples >= MIN_SAMPLES_ORDER4
    return extract_hamiltonian(path, 4 if order4 else 2)


def _inverse_atom(path: SampledPath, hams: np.ndarray) -> _PowerAtom:
    mats = path.matrices
    return _PowerAtom(mats, -np.swapaxes(mats, -1, -2) @ hams @ mats)


def _atoms(path: SampledPath) -> tuple[_PowerAtom, _PowerAtom]:
    """Atoms of X and of X^{-1}, read off the samples and the track of X."""
    hams = _staircase_hams(path)
    return _PowerAtom(symplectic_inverse(path.matrices), hams), _inverse_atom(path, hams)


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

    One sufficient certificate decides each pair:

    * the endpoint certificate, for a unitary pair (both aligned paths
      commute with J).  The winding of a pointwise product is additive, so
      Z = X^p Y^-n winds p maslov(X) - n maslov(Y), and an element of the
      universal cover of U(n) is fixed by its endpoint and its winding
      (Eliashberg-Polterovich).  Read Z(1)'s eigenphases in [-fold,
      2 pi - fold), fold = max(CONE_TOL, ENDPOINT_FOLD).  When the winding
      exceeds their sum by a whole number k >= 0 of 2 pi quanta, a Hermitian
      A >= -fold has exp(iA) = Z(1) and tr A equal to the winding, and
      t -> exp(itA) is a path in Z's class with generator above -fold
      (:func:`_endpoint_quanta`).  It reads two windings and n x n complex
      endpoints, no generator track.

      It accepts every power whose generator h lies above -CONE_TOL.  Z
      stays in U(n), and each eigenphase of Z(t), followed continuously, has
      derivative <v, h v> >= -CONE_TOL at its unit eigenvector v
      (Hellmann-Feynman; through a crossing by continuity).  So the lifted
      phases at t = 1 are at least -CONE_TOL >= -fold, their sum is the
      winding, and each exceeds its phase in [-fold, 2 pi - fold) by a whole
      number of quanta that cannot be negative: k >= 0.  The same argument
      on X(t) exp(itA), whose generator lies above CONE_TOL - fold, makes
      the accepted powers upward closed, on commuting pairs or not;
    * the canonical certificate, for a pair off the unitary subgroup: the
      generator of the pointwise product X(t)^p Y(t)^-n, assembled through
      the exact composition formula from the base tracks of X and Y (so
      finite-difference error does not grow with p), lies above -CONE_TOL at
      every sample, one Cholesky factorization of the probe's whole track
      (:func:`paths.cone_holds`) per probe.  It is tight where Y's generator
      is a multiple of X's, and overstates gamma_n where the two speed
      profiles differ.

    X's dominance is one Cholesky factorization of the stack H_X - CONE_TOL I
    (the sample-axis kernel of :func:`symporder.matrices.positive_definite`
    up to dimension 8 on stacks of at least 512 matrices); no eigenvalue of
    a generator is computed.
    :func:`_staircase` runs the search.
    """
    return _staircase(x, y, ((n, p_max),), CONE_TOL)[0][0]


def _staircase(x: SampledPath, y: SampledPath, rungs, tol: float) -> tuple:
    """(gamma_ns, floors, certificates, windings) of one pair, one entry of
    each list per (n, p_max) rung.

    The grids are aligned and X's dominance checked once, on its staircase
    track.  This is the one place that tests the aligned pair for
    unitarity: ``windings`` is (maslov(X), maslov(Y)) of a unitary pair,
    else None.  On a unitary pair each rung has its winding floor L_n
    (:func:`_winding_floor`), and the endpoint certificate alone decides
    it, scanning upward from L_n clipped to [-p_max, p_max]
    (:func:`_least_endpoint_power`); no atom is built.  A pair that is not
    unitary runs the canonical search on [-p_max, p_max]
    (:func:`_least_certified_power`) with the atoms of X and X^-1, built
    from that track, and one squaring pass over Y^-1's atom for the rung
    powers Y^-n.  ``floors`` holds L_n (None off the unitary subgroup),
    ``certificates`` the test that decided each rung, "endpoint" or
    "canonical" (None where no power was certified).
    """
    for n, p_max in rungs:
        if n < 0 or p_max < 0:
            raise InputError("n and p_max must be nonnegative")
    _require_same_dim(x, y)
    x, y = align_grids(x, y)
    unitary = commutes_with_j(x.matrices) and commutes_with_j(y.matrices)
    x_atoms = None if unitary else _atoms(x)
    if not cone_holds(_staircase_hams(x) if unitary else x_atoms[0].hams, tol):
        raise InputError("X must be dominant for the staircase search")
    windings = None
    if unitary:
        windings = mx, my = _unitary_windings(x, y)
        ends = real_to_complex(x.endpoint), real_to_complex(y.endpoint)
        fold = max(tol, ENDPOINT_FOLD)
        floors = [_winding_floor(n, mx, my, x.dim, tol) for n, _ in rungs]
        gamma_ns = [_least_endpoint_power(ends, windings, n, p_max, floor, fold)
                    for (n, p_max), floor in zip(rungs, floors)]
        kind = "endpoint"
    else:
        floors = [None] * len(rungs)
        y_powers = _signed_powers((None, _inverse_atom(y, _staircase_hams(y))),
                                  tuple(-n for n, _ in rungs))
        gamma_ns = [_least_certified_power(x_atoms, y_minus_n, p_max, tol)
                    for (_, p_max), y_minus_n in zip(rungs, y_powers)]
        kind = "canonical"
    certificates = [None if p is None else kind for p in gamma_ns]
    return gamma_ns, floors, certificates, windings


# The endpoint certificate (:func:`_endpoint_quanta`): the least fold (how
# far below 2 pi an eigenphase reads as 0), and how far the residue may miss
# a whole number of 2 pi quanta, relative to the size of the terms it sums
ENDPOINT_FOLD = 1e-9
ENDPOINT_CONGRUENCE_TOL = 1e-9


def _winding_floor(n: int, mx: float, my: float, dim: int, tol: float) -> int:
    """Least power p the endpoint certificate can accept for X^p >= Y^n on
    a unitary pair with windings mx = maslov(X) > 0 and my = maslov(Y).

    On the unitary subgroup the winding is the time integral of tr H / 2
    over [0, 1] (:func:`maslov.maslov_via_trace`), and det(X^p Y^-n) =
    det(X)^p det(Y)^-n, so the winding of X^p Y^-n is p mx - n my.  A power
    the endpoint certificate accepts has winding tr A with A >= -fold,
    fold = max(tol, ENDPOINT_FOLD), so at least -(dim / 2) fold.  Hence
    p > n ratio - (dim / 2) fold / mx with ratio = my / mx.  The last term
    of the slack covers the rounding of n ratio.  The homogenized Maslov
    quasimorphism is monotone (Eliashberg-Polterovich), so the same floor
    holds for the order itself.
    """
    ratio = my / mx
    slack = 0.5 * dim * max(tol, ENDPOINT_FOLD) / mx + 1e-12 * max(1.0, n * abs(ratio))
    return int(np.ceil(finite(n * ratio - slack, f"the winding floor at n={n}")))


def _endpoint_quanta(z_end: np.ndarray, p: int, n: int, windings: tuple, fold: float) -> int:
    """Whole number k of 2 pi quanta by which the winding p maslov(X) -
    n maslov(Y) of Z = X^p Y^-n exceeds the eigenphase sum of its complex
    endpoint ``z_end``; the endpoint certificate holds when k >= 0.

    Each eigenphase is read in [-fold, 2 pi - fold): a phase within ``fold``
    below 2 pi is the small negative phase - 2 pi.  With k >= 0, adding k
    quanta to these phases gives a Hermitian A >= -fold with exp(iA) = Z(1)
    and tr A the winding.  The staircase folds by max(tol, ENDPOINT_FOLD),
    the band of the generator test the certificate stands in for
    (:func:`gamma_n_bruteforce`), which the winding floor's slack covers
    (:func:`_winding_floor`).  ``ENDPOINT_FOLD`` is the least fold, for
    tol = 0: an eigenvalue 1 of Z(1), as on loop pairs, comes out with a
    phase error near (|p| + n) n eps, under 1e-11 for powers up to 10^4;
    read at 2 pi - 1e-15 it would count a whole quantum and refuse the
    power, the spurious +1 of the (0, 2 pi] convention of
    :func:`maslov.redistribute_eigenvalues`.

    ``ENDPOINT_CONGRUENCE_TOL``: in exact arithmetic the residue is a whole
    number of quanta, since det Z(1) = exp(i winding).  It collects the
    rounding of the windings, each a float sum of at most 2^16 per-step
    increments (about 2^16 eps = 1.5e-11 of the increments' magnitudes,
    scaled by |p| and n), and of the eigenphases, near (|p| + n) n eps.  The
    tolerance, 1e-9 of the size 2 pi n + |p maslov(X)| + n |maslov(Y)|,
    sits above both and stays below half a quantum for sizes under 3e9.  A
    residue beyond it is a :class:`ComputationError`.
    """
    mx, my = windings
    two_pi = 2.0 * np.pi
    phases = np.mod(np.angle(np.linalg.eigvals(z_end)), two_pi)
    phases[phases >= two_pi - fold] -= two_pi
    quanta = (p * mx - n * my - phases.sum()) / two_pi
    k = round(quanta)
    miss = abs(quanta - k) * two_pi
    if not miss <= ENDPOINT_CONGRUENCE_TOL * (two_pi * len(z_end) + abs(p * mx) + n * abs(my)):
        raise ComputationError(
            f"the endpoint phases of X^{p} Y^-{n} miss its winding by {miss:.3e} rad "
            "off a whole number of 2 pi quanta")
    return k


def _unitary_power(u: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.matrix_power(u if k >= 0 else u.conj().T, abs(k))


def _least_endpoint_power(ends: tuple, windings: tuple, n: int, p_max: int, floor: int,
                          fold: float) -> int | None:
    """Least p in [start, p_max] the endpoint certificate accepts, else None,
    with start the winding floor clipped to [-p_max, p_max].

    ``ends`` are the complex endpoints (X(1), Y(1)).  The scan runs upward,
    one left product by X(1) per power.  A power with p maslov(X) -
    n maslov(Y) >= pi dim passes, since the folded eigenphase sum stays
    below pi dim, so the scan stops by that power or at start, whichever is
    higher: at most ceil(pi dim / maslov(X)) + 1 probes from the floor.  A
    start at the floor is scanned from floor - 1 as a self-check, and a
    certified power below the floor raises :class:`ComputationError`.
    """
    (x_end, y_end), (mx, my) = ends, windings
    start = min(max(floor, -p_max), p_max)
    top = min(p_max, int(np.ceil(finite((n * my + 2.0 * np.pi * len(x_end)) / mx,
                                        f"the top of the endpoint scan at n={n}"))))
    first = start - 1 if start == floor else start
    z = _unitary_power(x_end, first) @ _unitary_power(y_end, -n)
    for p in range(first, max(top, start) + 1):
        if _endpoint_quanta(z, p, n, windings, fold) >= 0:
            if p < floor:
                raise ComputationError(
                    f"the endpoint certificate accepts power {p} below the winding floor {floor}")
            return p
        z = x_end @ z
    return None


def _certified(x_atoms: tuple[_PowerAtom, _PowerAtom], y_minus_n: _PowerAtom,
               p: int, tol: float) -> bool:
    """Whether the generator of X^p Y^-n, from the atoms of X and X^-1 and
    the atom of Y^-n, lies above -tol at every sample."""
    x_power = _signed_powers(x_atoms, (p,))[0]
    return cone_holds(x_power.hams_of_product(y_minus_n), -tol)


def _least_certified_power(x_atoms: tuple[_PowerAtom, _PowerAtom],
                           y_minus_n: _PowerAtom, p_max: int, tol: float) -> int | None:
    """Least p in [-p_max, p_max] that :func:`_certified` accepts, else None.

    -p_max is probed first.  If it fails, p_max is probed and the search
    bisects between them, relying on the certified set being upward closed:
    about log2(2 p_max) more probes.  A probe whose generator overflows
    raises :class:`ComputationError`.
    """
    lo, hi = -p_max, p_max
    if _certified(x_atoms, y_minus_n, lo, tol):
        return lo
    if lo == hi or not _certified(x_atoms, y_minus_n, hi, tol):
        return None
    while hi - lo > 1:  # invariant: lo fails, hi passes
        mid = (lo + hi) // 2
        if _certified(x_atoms, y_minus_n, mid, tol):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GrowthEstimate:
    """Staircase gamma_n over a ladder of n, with its limit and closed form.

    ``floors`` holds each rung's winding floor L_n (None for a pair that is
    not unitary) and ``certificates`` the test that decided it, "endpoint"
    on a unitary pair and "canonical" off it (None where no power was
    certified); see :func:`gamma_n_bruteforce`.  ``limit_estimate`` is
    [gamma_n/n - 1/n, gamma_n/n] at the last rung.  Each certificate is
    sufficient up to its tolerance band, so a certified gamma_n is at least
    the true one outside a near-tie: the upper end bounds the limit from
    above, while the lower end holds only where the certificate is tight
    (certified gamma_n = true gamma_n).
    """

    ns: tuple
    gamma_ns: tuple
    limit_estimate: Estimate
    closed_form: float | None
    floors: tuple
    certificates: tuple


def growth_estimate(x: SampledPath, y: SampledPath, ns=GROWTH_NS,
                    p_max: int | None = None, tol: float = CONE_TOL) -> GrowthEstimate:
    """Brute-force growth staircase next to its closed-form prediction.

    Without ``p_max`` each rung n searches [-P, P] with P = ceil(|gamma| n)
    + 8, gamma the ratio of homogenized windings at k_max = 8; with it no
    homogenized winding is taken.  Both paths are checked for dominance
    either way, after every index n is checked to be at least 1: the limit
    divides by the last one.
    ``closed_form`` is maslov(Y) / maslov(X) of the aligned pair when it is
    unitary, else None.
    """
    ns = tuple(ns)
    if not ns:
        raise InputError("growth estimate needs at least one staircase index n")
    for n in ns:
        if n < 1:
            raise InputError(f"staircase index n must be at least 1, got n={n}")
    if p_max is None:
        hint = gamma_closed_symplectic(x, y, tol=tol).value
        rungs = [(n, int(np.ceil(finite(abs(hint) * n, f"the search bound at n={n}"))) + 8)
                 for n in ns]
    else:
        _require_dominant_pair(x, y, tol)
        rungs = [(n, p_max) for n in ns]
    gamma_ns, floors, certificates, windings = _staircase(x, y, rungs, tol)
    if gamma_ns[-1] is None:
        raise ComputationError(
            f"no certified power found at n={ns[-1]} within p_max={rungs[-1][1]}; "
            "raise p_max (symporder gamma --pmax)")
    # the staircase pins gamma into [gamma_n/n - 1/n, gamma_n/n] only when the
    # certificate is tight; a conservative certificate gives the upper end alone
    top = gamma_ns[-1] / ns[-1]
    limit = Estimate(top, top - 1.0 / ns[-1], top)
    closed = windings[1] / windings[0] if windings is not None else None
    return GrowthEstimate(ns=ns, gamma_ns=tuple(gamma_ns), limit_estimate=limit,
                          closed_form=closed, floors=tuple(floors),
                          certificates=tuple(certificates))
