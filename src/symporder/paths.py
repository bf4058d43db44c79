"""Sampled paths in Sp(2n, R) and their Hamiltonian calculus.

A path is a time-sampled curve ``X : [0, 1] -> Sp(2n, R)`` starting at the
identity.  Its generator is the symmetric matrix track ``H(t)`` defined by
``dX/dt X^{-1} = J H``; membership of ``H(t)`` in the positive cone drives
every order computation in the package.

Generator bookkeeping under the group operations:

* product:     H_{XY} = H_X + (X^{-1})^T H_Y X^{-1}
* inverse:     H_{Y^{-1}} = -Y^T H_Y Y
* block embed: generators embed block-wise and eigenvalue signs survive

Samples are inverted through the form, ``X^{-1} = -J X^T J``, exact on Sp(2n),
so no general (possibly singular) solve is needed.  The inverse and the
symmetrized generator sym(-J dX/dt X^{-1}) are fixed maps on the entries of a
sample: up to real dimension 8 each is one BLAS product with its entry map
(:func:`symporder.matrices._by_entry_map`), with the bits of the block copies and
products by J that larger dimensions run.  The Sp(2n) residual runs on samples
that are handed in, in :class:`SampledPath` (files, caller stacks, the family
builders and positive synthesis); group operations, resampling and both
integrators build through :func:`_derived` from checked inputs, grid checks only.
A path moves to another grid only through :func:`resample`, which keeps
stored samples bit for bit and interpolates the rest; :func:`align_grids`
and :func:`refine` call it, and a restriction to stored times is exact.
Integer powers of samples and of generator-carrying staircase atoms share one
repeated-squaring routine, :func:`binary_powers`, which forms several powers
of one base from a single pass of squarings.

Cone membership is decided two ways.  A yes/no verdict comes from one
Cholesky factorization of the whole shifted generator stack,
:func:`symporder.matrices.positive_definite` (a sample-axis kernel up to
dimension 8 on stacks of at least 512 matrices, LAPACK otherwise); a margin
comes from ``eigvalsh`` (:func:`min_generator_eigenvalue`,
:func:`classify_cone`, :func:`order_leq`).
The two tests agree except inside a rounding band of about n^2 eps ||H||
around the threshold, for either Cholesky route.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError, integer
from .matrices import (DEFAULT_TOL, _by_entry_map, _check_even_dim, is_symplectic,
                       matrix_exp, standard_j, symplectic_defect, symplectic_inverse)

# Classification tolerance: FD-extracted generators carry O(dt^2) noise, so
# the cone test uses a comfortably wider dead band than the structural checks.
CONE_TOL = 1e-6
# Defaults the command line's parser reads, kept here so that building it
# loads no module beyond ``paths``: the sample cap of a refined winding
# (``maslov``) and the factor by which ``maslov.defect_constant`` widens the
# sampled defect.
REFINEMENT_CAP = 2 ** 16
DEFECT_SAFETY = 2.0
DEFAULT_SAMPLES = 256
MIN_SAMPLES_ORDER4 = 7


@dataclass(frozen=True)
class SampledPath:
    """Uniformly or non-uniformly sampled identity-based path in Sp(2n, R).

    Invariants checked at construction: finite entries, strictly increasing
    times covering [0, 1], first sample within ``DEFAULT_TOL`` of the
    identity, and every sample symplectic up to rounding
    (:func:`symporder.matrices.is_symplectic`), which :func:`_derived` skips.
    """

    times: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        _set_grid(self, self.times, self.matrices, InputError("times and samples must be finite"))
        if not is_symplectic(self.matrices):
            raise InputError(f"samples leave Sp({self.dim}) by "
                             f"{symplectic_defect(self.matrices).max():.3e}")

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def endpoint(self) -> np.ndarray:
        return self.matrices[-1]


def _set_grid(path: SampledPath, times, mats, nonfinite: Exception) -> SampledPath:
    """Store float arrays on ``path``, check its grid; a non-finite sample raises ``nonfinite``."""
    times = np.asarray(times, dtype=float)
    mats = np.asarray(mats, dtype=float)
    object.__setattr__(path, "times", times)
    object.__setattr__(path, "matrices", mats)
    if times.ndim != 1 or mats.ndim != 3 or len(times) != len(mats):
        raise InputError("need matching 1-d times and 3-d matrix stack")
    if not np.isfinite(times).all():
        raise InputError("times and samples must be finite")
    if not np.isfinite(mats).all():
        raise nonfinite
    if len(times) < 3:
        raise InputError("need at least 3 samples for derivative stencils")
    if not (times[0] == 0.0 and times[-1] == 1.0):
        raise InputError("times must start at 0 and end at 1")
    if np.any(np.diff(times) <= 0):
        raise InputError("times must be strictly increasing")
    dim = 2 * _check_even_dim(mats)
    if np.abs(mats[0] - np.eye(dim)).max() > DEFAULT_TOL:
        raise InputError("path must start at the identity")
    return path


def _derived(times, mats) -> SampledPath:
    """A path computed by an operation that keeps Sp(2n): no residual check."""
    return _set_grid(object.__new__(SampledPath), times, mats,
                     ComputationError("computed path samples overflow"))


class ConeStatus(enum.Enum):
    DOMINANT = "dominant"
    SEMIPOSITIVE = "semipositive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of testing a path against the nonnegative-generator cone.

    It holds the evidence, ``min_eigenvalue`` (the least eigenvalue of H(t_k)
    over the samples) and the dead band ``tol``; ``status`` reads the verdict
    off them: ``dominant`` needs min >= +tol, ``semipositive`` min >= -tol
    (roundoff keeps the identity path in the cone), and ``negative``
    refutes the canonical representative.
    """

    min_eigenvalue: float
    tol: float

    @property
    def status(self) -> ConeStatus:
        m, tol = self.min_eigenvalue, self.tol
        return (ConeStatus.DOMINANT if m >= tol else ConeStatus.SEMIPOSITIVE if m >= -tol
                else ConeStatus.NEGATIVE)

    @property
    def certifies(self) -> bool:
        return self.status in (ConeStatus.DOMINANT, ConeStatus.SEMIPOSITIVE)


def is_uniform_grid(times: np.ndarray) -> bool:
    steps = np.diff(times)
    h = steps[0]
    return bool(np.all(np.abs(steps - h) <= 1e-12 * h))


def _time_derivative4(times: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Fourth-order 5-point stencils; requires a uniform grid of >= 7 samples.

    The four rows next to the boundary use fifth-order 6-point stencils:
    one-sided differences carry the largest error constants, and exact-tie
    cone certificates are decided right at those rows.
    """
    if len(times) < MIN_SAMPLES_ORDER4:
        raise InputError(f"fourth-order stencils need {MIN_SAMPLES_ORDER4} or more samples")
    if not is_uniform_grid(times):
        raise InputError("fourth-order stencils require a uniform grid")
    h = times[1] - times[0]
    d = np.empty_like(mats)
    # (X_{k-2} - 8 X_{k-1} + 8 X_{k+1} - X_{k+2}) / 12h in place, in that order
    inner = d[2:-2]
    np.multiply(mats[1:-3], 8, out=inner)
    np.subtract(mats[:-4], inner, out=inner)
    inner += 8 * mats[3:-1]
    inner -= mats[4:]
    inner /= 12 * h
    d[0] = (-137 / 60 * mats[0] + 5 * mats[1] - 5 * mats[2]
            + 10 / 3 * mats[3] - 5 / 4 * mats[4] + 1 / 5 * mats[5]) / h
    d[1] = (-1 / 5 * mats[0] - 13 / 12 * mats[1] + 2 * mats[2]
            - mats[3] + 1 / 3 * mats[4] - 1 / 20 * mats[5]) / h
    d[-1] = (137 / 60 * mats[-1] - 5 * mats[-2] + 5 * mats[-3]
             - 10 / 3 * mats[-4] + 5 / 4 * mats[-5] - 1 / 5 * mats[-6]) / h
    d[-2] = (1 / 5 * mats[-1] + 13 / 12 * mats[-2] - 2 * mats[-3]
             + mats[-4] - 1 / 3 * mats[-5] + 1 / 20 * mats[-6]) / h
    return d


def _symmetric_generator(p: np.ndarray) -> np.ndarray:
    """sym(-J P) = (R + R^T) / 2, R = -J P, of each matrix P = dX/dt X^{-1}."""
    raw = -standard_j(p.shape[-1] // 2) @ p
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def extract_hamiltonian(path: SampledPath, order: int = 2) -> np.ndarray:
    """Recover the generator track H(t_k) = sym(-J dX/dt X^{-1}), an
    (N, d, d) stack of symmetric matrices on ``path.times``.

    The default derivatives come from ``numpy.gradient`` with
    ``edge_order=2``: 3-point differences inside the grid (non-uniform grids
    included) and second-order one-sided stencils at the endpoints, so the
    track converges at O(dt^2) on smooth paths.  ``order=4`` switches to
    5-point stencils (uniform grids of at least ``MIN_SAMPLES_ORDER4``
    samples only) for boundary-sensitive consumers such as the order
    staircase.  The inverse samples X^{-1} are a temporary that dies after
    its one product: kept alive to the end, the stack slowed a 2049-sample
    Sp(4) extraction by about 8 %, since the allocator could no longer reuse
    its memory for the later temporaries.  Samples near the float range can
    overflow the differences or the products; that raises
    :class:`ComputationError` without a numpy warning.
    """
    if order not in (2, 4):
        raise InputError(f"unsupported stencil order {order}")
    with np.errstate(over="ignore", invalid="ignore"):
        if order == 4:
            deriv = _time_derivative4(path.times, path.matrices)
        else:
            deriv = np.gradient(path.matrices, path.times, axis=0, edge_order=2)
        hams = _by_entry_map(_symmetric_generator,
                             deriv @ symplectic_inverse(path.matrices))
    if not np.isfinite(hams).all():
        raise ComputationError("generator track holds a non-finite number")
    return hams


def invert(path: SampledPath) -> SampledPath:
    """Pointwise inverse path t -> X(t)^{-1}."""
    return _derived(path.times, symplectic_inverse(path.matrices))


def resample(path: SampledPath, new_times: np.ndarray) -> SampledPath:
    """The path on another grid: stored samples kept bit for bit, the rest
    interpolated.

    A grid of stored times thus restricts the path exactly, for one copy and
    no generator track.  Between stored samples the path is continued with
    its frozen local generator, ``X(t) = exp((t - t_k) J H_seg) X(t_k)``,
    which keeps every interpolated sample symplectic up to roundoff and is
    second-order accurate.  The grid is checked before any track is
    extracted: a bad grid, or a time outside [0, 1], is refused as bad
    input, never extrapolated.
    """
    new_times = np.asarray(new_times, dtype=float)
    pos = np.searchsorted(path.times, new_times)
    exact = (pos < len(path.times)) & (path.times[np.minimum(pos, len(path.times) - 1)] == new_times)
    out = np.zeros((len(new_times), path.dim, path.dim))
    out[exact] = path.matrices[pos[exact]]
    # the grid is checked first; once it holds, every time not stored lies in (0, 1)
    restricted = _derived(new_times, out)
    if exact.all():
        return restricted
    todo = ~exact
    hams = extract_hamiltonian(path)
    j = standard_j(path.half_dim)
    k = np.searchsorted(path.times, new_times[todo], side="right") - 1
    dt = new_times[todo] - path.times[k]
    span = path.times[k + 1] - path.times[k]
    frac = dt / span
    # dt J times the generator averaged over [t_k, t], H linear on the segment
    gens = hams[k + 1] - hams[k]
    gens *= (frac / 2.0)[:, None, None]
    gens += hams[k]
    del hams
    gens = j @ gens
    gens *= dt[:, None, None]
    out[todo] = matrix_exp(gens) @ path.matrices[k]
    return _derived(new_times, out)


def align_grids(x: SampledPath, y: SampledPath) -> tuple[SampledPath, SampledPath]:
    """Put two paths on one grid with one :func:`resample` each, preferring
    exact restriction.

    Differentiating a path whose samples alternate between stored and
    interpolated values turns the interpolation error into a sawtooth that
    finite differences amplify by the sampling rate, which ruins cone
    certification.  When the grids nest (or share a rich intersection) both
    paths are therefore restricted to the common times, which extracts no
    generator track; only genuinely incompatible grids fall back to
    interpolating onto the union.
    """
    if x.times.shape == y.times.shape and np.array_equal(x.times, y.times):
        return x, y
    grid = np.intersect1d(x.times, y.times)
    if len(grid) < max(3, min(x.n_samples, y.n_samples) // 2):
        grid = np.union1d(x.times, y.times)
    return resample(x, grid), resample(y, grid)


def refine(path: SampledPath) -> SampledPath:
    """Insert the midpoint of every interval."""
    t = path.times
    return resample(path, np.unique(np.concatenate([t, t[:-1] + np.diff(t) * 0.5])))


def compose(x: SampledPath, y: SampledPath) -> SampledPath:
    """Pointwise product path t -> X(t) Y(t) on the grid of :func:`align_grids`."""
    if x.dim != y.dim:
        raise InputError(f"dimension mismatch: {x.dim} vs {y.dim}")
    x, y = align_grids(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        return _derived(x.times, x.matrices @ y.matrices)


def pointwise_power(path: SampledPath, k: int) -> SampledPath:
    """Integer power path t -> X(t)^k (negative k through the inverse).

    A power whose samples overflow raises :class:`ComputationError`.
    """
    if integer(k, "power") == 0:
        return _derived(path.times, np.broadcast_to(np.eye(path.dim), path.matrices.shape).copy())
    base = symplectic_inverse(path.matrices) if k < 0 else path.matrices
    (mats,) = binary_powers(base, (abs(k),))
    return _derived(path.times, mats)


def binary_powers(base, ks: tuple) -> tuple:
    """``base^k`` for each k >= 1 of ``ks`` from one pass of repeated squaring.

    Serves both sample stacks and the staircase's generator-carrying atoms,
    for any operand with ``@``.  The squares base^(2^i) are formed once, up
    to the top bit of the largest k, and each power multiplies the squares of
    its set bits from the lowest bit up: the order of squaring for that k
    alone, so a power has the same bits whichever exponents share its pass.
    Products that overflow give inf or NaN without a warning; callers check.
    """
    powers = dict.fromkeys(ks)
    top = max(powers)
    sq = base
    bit = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            for k, power in powers.items():
                if k & bit:
                    powers[k] = sq if power is None else power @ sq
            bit <<= 1
            if bit > top:
                return tuple(powers[k] for k in ks)
            sq = sq @ sq


def embed_block(path: SampledPath, block: int, n: int) -> SampledPath:
    """Embed an Sp(2)-path into Sp(2n) acting on the (block, block + n) plane.

    ``block`` is 1-based.  Distinct blocks commute, the embedding preserves
    polar factors, and winding numbers computed downstream are unchanged.
    """
    if path.dim != 2:
        raise InputError("block embedding expects an Sp(2) path")
    if not (1 <= block <= n):
        raise InputError(f"block index {block} outside 1..{n}")
    return _derived(path.times, _plane_stack(path.n_samples, n, {block - 1: path.matrices}))


def _plane_stack(n_samples: int, n: int, planes: dict) -> np.ndarray:
    """Identity stack in Sp(2n) with each ``planes[i]``, a stack of 2x2
    blocks, written into the (i, i + n) coordinate plane."""
    mats = np.broadcast_to(np.eye(2 * n), (n_samples, 2 * n, 2 * n)).copy()
    for i, block in planes.items():
        mats[:, i::n, i::n] = block
    return mats


def min_generator_eigenvalue(path: SampledPath) -> float:
    """Smallest eigenvalue of H(t_k) over all samples."""
    return float(np.linalg.eigvalsh(extract_hamiltonian(path)).min())


def classify_cone(path: SampledPath, tol: float = CONE_TOL) -> ConeVerdict:
    """Test a path against the cone of nonnegative generators."""
    return ConeVerdict(min_generator_eigenvalue(path), tol)


def order_leq(y: SampledPath, x: SampledPath, tol: float = CONE_TOL) -> ConeVerdict:
    """Conservative certificate for Y <= X in the bi-invariant order.

    Classifies the canonical representative X Y^{-1}; a semipositive or
    dominant verdict certifies the relation, a negative verdict only refutes
    this particular representative, never the order relation itself.
    """
    x, y = align_grids(x, y)
    return classify_cone(compose(x, invert(y)), tol)
