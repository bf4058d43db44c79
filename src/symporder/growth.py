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
winding realizes the quotient metric space as the real line.  The closed
forms are points: :func:`mu_tilde` reads the homogenized winding exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError, finite, integer
# ``homogenize`` is not called here; the binding stays because the benchmark's
# tracer wraps ``symporder.growth.homogenize`` by name.
from .maslov import _rho_lift, homogenize, maslov_index  # noqa: F401
from .paths import (
    CONE_TOL,
    MIN_SAMPLES_ORDER4,
    ConeStatus,
    SampledPath,
    align_grids,
    binary_powers,
    classify_cone,
    extract_hamiltonian,
    is_uniform_grid,
)
from .matrices import commutes_with_j, positive_definite, real_to_complex, symplectic_inverse

GROWTH_NS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Estimate:
    """Value with an interval [lower, upper] that holds it: a point for the
    exact closed forms, [gamma_n/n - 1/n, gamma_n/n] for a staircase limit."""

    value: float
    lower: float
    upper: float

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _positive(mu: float) -> float:
    if mu <= 0.0:
        raise ComputationError(f"a homogenized winding of {mu:.6g} is not positive")
    return mu


def mu_tilde(path: SampledPath) -> float:
    """Homogenized winding lim maslov(X^k) / k of a path, read exactly and
    with no power path: maslov(X) where the samples commute with J (the
    endpoint tested first), since the winding is a homomorphism of the
    universal cover of U(n), else the lift of the rotation function rho over
    every stored sample (:func:`symporder.maslov._rho_lift`)."""
    if commutes_with_j(path.matrices[-1]) and commutes_with_j(path.matrices):
        return maslov_index(path).value
    return _rho_lift(path).value


def _require_dominant(path: SampledPath, tol: float, who: str) -> None:
    """Refuse a path that ``classify_cone`` does not call dominant.

    A Cholesky pass over the shifted generator stack
    (:func:`matrices.positive_definite`) accepts the path without
    eigenvalues; only a path it refuses is classified, which gives the error
    its eigenvalue and keeps ``classify_cone``'s verdict inside the rounding
    band.
    """
    if positive_definite(extract_hamiltonian(path), tol):
        return
    verdict = classify_cone(path, tol)
    if verdict.status is not ConeStatus.DOMINANT:
        raise InputError(f"{who} must be dominant, got {verdict.status.value} "
                         f"(min generator eigenvalue {verdict.min_eigenvalue:.3e})")


def _unitary_windings(x: SampledPath, y: SampledPath) -> tuple[float, float]:
    """(maslov(X), maslov(Y)) of a unitary pair, X's positive."""
    mx = maslov_index(x).value
    if mx <= 0.0:
        raise InputError("maslov index of X must be positive")
    return mx, maslov_index(y).value


def _require_dominant_pair(x: SampledPath, y: SampledPath, tol: float) -> None:
    """Check the dimensions, then X, then Y, for dominance."""
    if x.dim != y.dim:
        raise InputError("paths must share a dimension")
    _require_dominant(x, tol, "X")
    _require_dominant(y, tol, "Y")


def gamma_closed_symplectic(x: SampledPath, y: SampledPath,
                            tol: float = CONE_TOL) -> Estimate:
    """Relative growth mu_tilde(Y) / mu_tilde(X) of dominant paths, a point."""
    _require_dominant_pair(x, y, tol)
    gamma = mu_tilde(y) / _positive(mu_tilde(x))
    return Estimate(gamma, gamma, gamma)


def pseudo_distance_k(x: SampledPath, y: SampledPath, tol: float = CONE_TOL) -> Estimate:
    """K(X, Y) = max(log gamma(X, Y), log gamma(Y, X)) for dominants, a point,
    from one cone check and one mu_tilde per path, Y's first."""
    _require_dominant_pair(x, y, tol)
    mu_y, mu_x = _positive(mu_tilde(y)), _positive(mu_tilde(x))
    k = max(float(np.log(mu_y / mu_x)), float(np.log(mu_x / mu_y)))
    return Estimate(k, k, k)


@dataclass(frozen=True)
class ZPoint:
    """Log of the homogenized winding of a dominant path on Z; lower and upper equal it."""

    coordinate: float
    lower: float
    upper: float


def z_coordinate(x: SampledPath, tol: float = CONE_TOL) -> ZPoint:
    """Coordinate of a dominant path on the metric line Z: differences of
    coordinates reproduce K, and certified order is monotone in them."""
    _require_dominant(x, tol, "X")
    z = float(np.log(_positive(mu_tilde(x))))
    return ZPoint(coordinate=z, lower=z, upper=z)


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
      (:func:`matrices.positive_definite`) per probe.  It is tight where Y's
      generator is a multiple of X's, and overstates gamma_n where the two
      speed profiles differ.
    """
    return _staircase(x, y, ((n, integer(p_max, "p_max")),), CONE_TOL)[0][0]


def _staircase(x: SampledPath, y: SampledPath, rungs, tol: float) -> tuple:
    """(gamma_ns, floors, certificates, ratio) of one pair, one entry of each
    list per (n, p_max) rung; ``floors`` and ``certificates`` are those of
    :class:`GrowthEstimate`.

    The grids are aligned and X's dominance checked once, on its staircase
    track by one Cholesky factorization of H_X - tol I, no eigenvalue
    (:func:`matrices.positive_definite`).  This is the one place that tests
    the aligned pair for unitarity.  A unitary pair has the ratio maslov(Y)
    / maslov(X), and each rung its winding floor L_n (:func:`_winding_floor`),
    from which the endpoint certificate scans upward, clipped to [-p_max,
    p_max] (:func:`_least_endpoint_power`).  Any other pair runs the
    canonical search on [-p_max, p_max] (:func:`_least_certified_power`)
    with the atoms of X and X^-1, built from that track, and one squaring
    pass over Y^-1's atom for the powers Y^-n; its ratio, mu_tilde(Y) /
    mu_tilde(X) of the paths as passed, is read only for a default range.  A
    p_max of None is the default range: max(|L_n|, top) on a unitary pair,
    up to the proven top (:func:`_endpoint_top`), else ceil(|ratio| n) + 8;
    a default last rung that certifies no power is an error.
    """
    for n, p_max in rungs:
        if integer(n, "n") < 0 or (p_max is not None and integer(p_max, "p_max") < 0):
            raise InputError("n and p_max must be nonnegative")
    if x.dim != y.dim:
        raise InputError("paths must share a dimension")
    given, default = (x, y), rungs[-1][1] is None
    x, y = align_grids(x, y)
    unitary = commutes_with_j(x.matrices) and commutes_with_j(y.matrices)
    x_atoms = None if unitary else _atoms(x)
    if not positive_definite(_staircase_hams(x) if unitary else x_atoms[0].hams, tol):
        raise InputError("X must be dominant for the staircase search")
    ratio = None
    if unitary:
        windings = mx, my = _unitary_windings(x, y)
        ratio = my / mx
        ends = real_to_complex(x.endpoint), real_to_complex(y.endpoint)
        fold = max(tol, ENDPOINT_FOLD)
        floors = [_winding_floor(n, mx, my, x.dim, tol) for n, _ in rungs]
        rungs = [(n, max(abs(floor), _endpoint_top(n, windings, x.dim // 2))
                  if p_max is None else p_max) for (n, p_max), floor in zip(rungs, floors)]
        gamma_ns = [_least_endpoint_power(ends, windings, n, p_max, floor, fold)
                    for (n, p_max), floor in zip(rungs, floors)]
        kind = "endpoint"
    else:
        floors = [None] * len(rungs)
        if any(p_max is None for _, p_max in rungs):
            ratio = mu_tilde(given[1]) / _positive(mu_tilde(given[0]))
            rungs = [(n, int(np.ceil(finite(abs(ratio) * n, f"the search bound at n={n}"))) + 8
                      if p_max is None else p_max) for n, p_max in rungs]
        y_powers = _signed_powers((None, _inverse_atom(y, _staircase_hams(y))),
                                  tuple(-n for n, _ in rungs))
        gamma_ns = [_least_certified_power(x_atoms, y_minus_n, p_max, tol)
                    for (_, p_max), y_minus_n in zip(rungs, y_powers)]
        kind = "canonical"
    if default and gamma_ns[-1] is None:
        raise _no_power(*rungs[-1])
    certificates = [None if p is None else kind for p in gamma_ns]
    return gamma_ns, floors, certificates, ratio


def _no_power(n: int, p_max: int) -> ComputationError:
    return ComputationError(f"no certified power found at n={n} within p_max={p_max}; "
                            "raise p_max (symporder gamma --pmax)")


# The endpoint certificate (:func:`_endpoint_quanta`): the least fold (how
# far below 2 pi an eigenphase reads as 0), how far the residue may miss a
# whole number of 2 pi quanta, relative to the size of the terms it sums
ENDPOINT_FOLD = 1e-9
ENDPOINT_CONGRUENCE_TOL = 1e-9
ENDPOINT_SIZE_LIMIT = np.pi / ENDPOINT_CONGRUENCE_TOL  # the size where it is half a quantum


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
    sits above both and stays below half a quantum for sizes under
    ``ENDPOINT_SIZE_LIMIT``, about 3.1e9, beyond which k is a guess and the
    rung is refused.  A residue beyond it is a :class:`ComputationError`.
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


def _endpoint_top(n: int, windings: tuple, half_dim: int) -> int:
    """Least p with p maslov(X) - n maslov(Y) >= pi dim, a power the endpoint certificate takes."""
    return int(np.ceil(finite((n * windings[1] + 2.0 * np.pi * half_dim) / windings[0],
                              f"the top of the endpoint scan at n={n}")))


def _least_endpoint_power(ends: tuple, windings: tuple, n: int, p_max: int, floor: int,
                          fold: float) -> int | None:
    """Least p in [start, p_max] the endpoint certificate accepts, else None,
    with start the winding floor clipped to [-p_max, p_max].

    ``ends`` are the complex endpoints (X(1), Y(1)).  The scan runs upward,
    one left product by X(1) per power.  A power with p maslov(X) -
    n maslov(Y) >= pi dim passes (the folded eigenphase sum stays below
    pi dim), so the scan stops by that power, top (:func:`_endpoint_top`), or
    at start: at most ceil(pi dim / maslov(X)) + 1 probes from the floor,
    scanned from floor - 1 as a self-check.  A certified
    power below the floor, and before the scan a congruence size of
    ``ENDPOINT_SIZE_LIMIT`` (:func:`_endpoint_quanta`), raise ComputationError.
    """
    (x_end, y_end), (mx, my) = ends, windings
    top = _endpoint_top(n, windings, len(x_end))
    start = min(max(floor, -p_max), p_max)
    first, last = start - 1 if start == floor else start, max(min(p_max, top), start)
    size = 2.0 * np.pi * len(x_end) + max(abs(first), abs(last)) * mx + n * abs(my)
    if not size < ENDPOINT_SIZE_LIMIT:
        raise ComputationError(f"the endpoint scan at n={n} sums terms of size {size:.3e}, "
                               f"at or beyond the limit {ENDPOINT_SIZE_LIMIT:.3e}")
    z = _unitary_power(x_end, first) @ _unitary_power(y_end, -n)
    for p in range(first, last + 1):
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
    return positive_definite(x_power.hams_of_product(y_minus_n), -tol)


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
    certified); see :func:`gamma_n_bruteforce`.  ``limit_estimate`` is read
    off the last rung, [gamma_n/n - 1/n, gamma_n/n].  Each certificate is
    sufficient up to its tolerance band, so a certified gamma_n is at least
    the true one outside a near-tie: the upper end bounds the limit from
    above, while the lower end holds only where the certificate is tight
    (certified gamma_n = true gamma_n).
    """

    ns: tuple
    gamma_ns: tuple
    closed_form: float
    floors: tuple
    certificates: tuple

    @property
    def limit_estimate(self) -> Estimate:
        top = self.gamma_ns[-1] / self.ns[-1]
        return Estimate(top, top - 1.0 / self.ns[-1], top)


def growth_estimate(x: SampledPath, y: SampledPath, ns=GROWTH_NS,
                    p_max: int | None = None, tol: float = CONE_TOL) -> GrowthEstimate:
    """Brute-force growth staircase next to its closed-form prediction.

    The indices n are checked to be integers of at least 1, then both paths
    for dominance; one staircase runs the ladder, each rung on [-p_max,
    p_max] or the default range of :func:`_staircase`, and a last rung that
    certifies no power is a ComputationError.  ``closed_form`` is
    mu_tilde(Y) / mu_tilde(X), the staircase's own ratio where it has one;
    with p_max off U(n) it is read after the staircase, two rho-lifts, and
    a lift that cannot resolve raises ResolutionError.
    """
    ns = tuple(ns)
    if not ns:
        raise InputError("growth estimate needs at least one staircase index n")
    for n in ns:
        if integer(n, "staircase index n") < 1:
            raise InputError(f"staircase index n must be at least 1, got n={n}")
    _require_dominant_pair(x, y, tol)
    gamma_ns, floors, certificates, ratio = _staircase(x, y, [(n, p_max) for n in ns], tol)
    if gamma_ns[-1] is None:  # with p_max; a default last rung raised in the staircase
        raise _no_power(ns[-1], p_max)
    if ratio is None:
        ratio = mu_tilde(y) / _positive(mu_tilde(x))
    return GrowthEstimate(ns=ns, gamma_ns=tuple(gamma_ns), closed_form=ratio,
                          floors=tuple(floors), certificates=tuple(certificates))
