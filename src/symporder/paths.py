"""Sampled paths in Sp(2n, R) and their Hamiltonian calculus.

A path is a time-sampled curve ``X : [0, 1] -> Sp(2n, R)`` starting at the
identity.  Its generator is the symmetric matrix track ``H(t)`` defined by
``dX/dt X^{-1} = J H``; membership of ``H(t)`` in the positive cone drives
every order computation in the package.

Generator bookkeeping under the group operations:

* product:     H_{XY} = H_X + (X^{-1})^T H_Y X^{-1}
* inverse:     H_{Y^{-1}} = -Y^T H_Y Y
* block embed: generators embed block-wise and eigenvalue signs survive

Samples are inverted through the form, ``X^{-1} = -J X^T J``.  That identity
holds exactly on Sp(2n), and :class:`SampledPath` validates every sample as
symplectic, so no general-purpose (and possibly singular) solve is needed.
Integer powers of samples and of generator-carrying staircase atoms share one
repeated-squaring routine, :func:`binary_power`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrices import matrix_exp, standard_j, symplectic_defect, symplectic_inverse

# Structural tolerance for validating stored samples.
SAMPLE_TOL = 1e-9
# Classification tolerance: FD-extracted generators carry O(dt^2) noise, so
# the cone test uses a comfortably wider dead band than the structural checks.
CONE_TOL = 1e-6
DEFAULT_SAMPLES = 256


@dataclass(frozen=True)
class SampledPath:
    """Uniformly or non-uniformly sampled identity-based path in Sp(2n, R).

    Invariants checked at construction: finite entries, strictly increasing
    times covering [0, 1], first sample equal to the identity, and every
    sample symplectic within ``SAMPLE_TOL`` relative to the squared sample
    norm (the defect of A^T J A - J scales with the square of the entries, so
    an absolute gate would reject well-conditioned high powers of a path).
    """

    times: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)
        if times.ndim != 1 or mats.ndim != 3 or len(times) != len(mats):
            raise InputError("need matching 1-d times and 3-d matrix stack")
        if not (np.isfinite(times).all() and np.isfinite(mats).all()):
            raise InputError("times and samples must be finite")
        if len(times) < 3:
            raise InputError("need at least 3 samples for derivative stencils")
        if not (times[0] == 0.0 and times[-1] == 1.0):
            raise InputError("times must start at 0 and end at 1")
        if np.any(np.diff(times) <= 0):
            raise InputError("times must be strictly increasing")
        dim = mats.shape[-1]
        if mats.shape[-2] != dim or dim % 2 != 0:
            raise InputError(f"samples must be square of even dimension, got {mats.shape}")
        if np.abs(mats[0] - np.eye(dim)).max() > SAMPLE_TOL:
            raise InputError("path must start at the identity")
        scale = 1.0 + float(np.abs(mats).max()) ** 2
        worst = float(symplectic_defect(mats).max())
        if worst > SAMPLE_TOL * scale:
            raise InputError(f"samples leave Sp({dim}) by {worst:.3e}")

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


@dataclass(frozen=True)
class HamiltonianTrack:
    """Symmetric generator samples H(t_k) plus a finite-difference quality metric.

    ``max_asymmetry`` records the worst |H - H^T| entry before symmetrization;
    it scales with the square of the sampling step on smooth paths.
    """

    times: np.ndarray
    hams: np.ndarray
    max_asymmetry: float


class ConeStatus(enum.Enum):
    DOMINANT = "dominant"
    SEMIPOSITIVE = "semipositive"
    UNDETERMINED = "undetermined"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of testing a path against the nonnegative-generator cone.

    ``min_eigenvalue`` is the minimum over samples of the smallest eigenvalue
    of H(t_k).  Statuses: ``dominant`` needs min >= +tol, ``semipositive``
    needs min >= -tol, ``negative`` means the canonical representative is
    refuted (min < -tol).  ``undetermined`` is reserved for callers that
    cannot run the test at all; the classifier itself always resolves.
    """

    status: ConeStatus
    min_eigenvalue: float
    tol: float

    @property
    def certifies(self) -> bool:
        return self.status in (ConeStatus.DOMINANT, ConeStatus.SEMIPOSITIVE)


def identity_path(dim: int, n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    """Constant identity path, the unit element in the sampled calculus."""
    times = np.linspace(0.0, 1.0, n_samples)
    mats = np.broadcast_to(np.eye(dim), (n_samples, dim, dim)).copy()
    return SampledPath(times, mats)


def _derivative_weights(times: np.ndarray) -> np.ndarray:
    """Second-order 3-point first-derivative weights on a possibly non-uniform grid.

    Returns shape (N, 3); row k holds weights for samples (k-1, k, k+1) at
    interior points and one-sided stencils shifted accordingly at the ends.
    """
    n = len(times)
    w = np.zeros((n, 3))
    h1 = times[1:-1] - times[:-2]
    h2 = times[2:] - times[1:-1]
    w[1:-1, 0] = -h2 / (h1 * (h1 + h2))
    w[1:-1, 1] = (h2 - h1) / (h1 * h2)
    w[1:-1, 2] = h1 / (h2 * (h1 + h2))
    a, b = times[1] - times[0], times[2] - times[1]
    w[0] = [-(2 * a + b) / (a * (a + b)), (a + b) / (a * b), -a / (b * (a + b))]
    a, b = times[-2] - times[-3], times[-1] - times[-2]
    w[-1] = [b / (a * (a + b)), -(a + b) / (a * b), (2 * b + a) / (b * (a + b))]
    return w


def _time_derivative(times: np.ndarray, mats: np.ndarray) -> np.ndarray:
    w = _derivative_weights(times)
    d = np.empty_like(mats)
    d[1:-1] = (
        w[1:-1, 0, None, None] * mats[:-2]
        + w[1:-1, 1, None, None] * mats[1:-1]
        + w[1:-1, 2, None, None] * mats[2:]
    )
    d[0] = w[0, 0] * mats[0] + w[0, 1] * mats[1] + w[0, 2] * mats[2]
    d[-1] = w[-1, 0] * mats[-3] + w[-1, 1] * mats[-2] + w[-1, 2] * mats[-1]
    return d


def is_uniform_grid(times: np.ndarray, rel_tol: float = 1e-12) -> bool:
    steps = np.diff(times)
    h = steps[0]
    return bool(np.all(np.abs(steps - h) <= rel_tol * h))


def _time_derivative4(times: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Fourth-order 5-point stencils; requires a uniform grid of >= 5 samples.

    The four rows next to the boundary use fifth-order 6-point stencils when
    the grid is long enough: one-sided differences carry the largest error
    constants, and exact-tie cone certificates are decided right at those
    rows.
    """
    if len(times) < 5:
        raise InputError("fourth-order stencils need at least 5 samples")
    if not is_uniform_grid(times):
        raise InputError("fourth-order stencils require a uniform grid")
    h = times[1] - times[0]
    d = np.empty_like(mats)
    d[2:-2] = (mats[:-4] - 8 * mats[1:-3] + 8 * mats[3:-1] - mats[4:]) / (12 * h)
    if len(times) >= 7:
        head = (-137 / 60 * mats[0] + 5 * mats[1] - 5 * mats[2]
                + 10 / 3 * mats[3] - 5 / 4 * mats[4] + 1 / 5 * mats[5]) / h
        second = (-1 / 5 * mats[0] - 13 / 12 * mats[1] + 2 * mats[2]
                  - mats[3] + 1 / 3 * mats[4] - 1 / 20 * mats[5]) / h
        d[0], d[1] = head, second
        tail = (137 / 60 * mats[-1] - 5 * mats[-2] + 5 * mats[-3]
                - 10 / 3 * mats[-4] + 5 / 4 * mats[-5] - 1 / 5 * mats[-6]) / h
        second_last = (1 / 5 * mats[-1] + 13 / 12 * mats[-2] - 2 * mats[-3]
                       + mats[-4] - 1 / 3 * mats[-5] + 1 / 20 * mats[-6]) / h
        d[-1], d[-2] = tail, second_last
    else:
        d[0] = (-25 * mats[0] + 48 * mats[1] - 36 * mats[2] + 16 * mats[3] - 3 * mats[4]) / (12 * h)
        d[1] = (-3 * mats[0] - 10 * mats[1] + 18 * mats[2] - 6 * mats[3] + mats[4]) / (12 * h)
        d[-2] = (3 * mats[-1] + 10 * mats[-2] - 18 * mats[-3] + 6 * mats[-4] - mats[-5]) / (12 * h)
        d[-1] = (25 * mats[-1] - 48 * mats[-2] + 36 * mats[-3] - 16 * mats[-4] + 3 * mats[-5]) / (12 * h)
    return d


def extract_hamiltonian(path: SampledPath, order: int = 2) -> HamiltonianTrack:
    """Recover the generator track H(t_k) = sym(-J dX/dt X^{-1}).

    The default derivatives use centered differences inside the grid and
    second-order one-sided stencils at the endpoints, so the track converges
    at O(dt^2) on smooth paths.  ``order=4`` switches to 5-point stencils
    (uniform grids only) for boundary-sensitive consumers such as the order
    staircase.  The pre-symmetrization asymmetry is reported, not hidden: it
    is the caller's resolution diagnostic.
    """
    if order not in (2, 4):
        raise InputError(f"unsupported stencil order {order}")
    j = standard_j(path.half_dim)
    deriv = (_time_derivative4 if order == 4 else _time_derivative)(path.times, path.matrices)
    raw = -j @ (deriv @ symplectic_inverse(path.matrices))
    asym = float(np.abs(raw - np.swapaxes(raw, -1, -2)).max())
    hams = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    return HamiltonianTrack(times=path.times, hams=hams, max_asymmetry=asym)


def invert(path: SampledPath) -> SampledPath:
    """Pointwise inverse path t -> X(t)^{-1}."""
    return SampledPath(path.times, symplectic_inverse(path.matrices))


def resample(path: SampledPath, new_times: np.ndarray) -> SampledPath:
    """Interpolate a path onto a finer grid containing its own sample times.

    Between stored samples the path is continued with its frozen local
    generator, ``X(t) = exp((t - t_k) J H_seg) X(t_k)``, which keeps every
    interpolated sample exactly symplectic and is second-order accurate.
    Original samples are preserved bit-for-bit.
    """
    new_times = np.asarray(new_times, dtype=float)
    pos = np.searchsorted(path.times, new_times)
    exact = (pos < len(path.times)) & (path.times[np.minimum(pos, len(path.times) - 1)] == new_times)
    if not exact[0] or not exact[-1]:
        raise InputError("refined grid must contain the endpoints 0 and 1")
    track = extract_hamiltonian(path)
    j = standard_j(path.half_dim)
    seg = np.clip(np.searchsorted(path.times, new_times, side="right") - 1, 0, len(path.times) - 2)
    out = np.empty((len(new_times), path.dim, path.dim))
    out[exact] = path.matrices[pos[exact]]
    todo = ~exact
    if np.any(todo):
        k = seg[todo]
        dt = new_times[todo] - path.times[k]
        span = path.times[k + 1] - path.times[k]
        frac = dt / span
        # generator averaged over [t_k, t]: linear model of H on the segment
        h_seg = track.hams[k] + (track.hams[k + 1] - track.hams[k]) * (frac / 2.0)[:, None, None]
        steps = matrix_exp(dt[:, None, None] * (j @ h_seg))
        out[todo] = steps @ path.matrices[k]
    return SampledPath(new_times, out)


def subsample(path: SampledPath, times: np.ndarray) -> SampledPath:
    """Restrict a path to a subset of its own sample times, exactly."""
    idx = np.searchsorted(path.times, times)
    if np.any(idx >= path.n_samples) or np.any(path.times[idx] != times):
        raise InputError("subsample times must be existing sample times")
    return SampledPath(times, path.matrices[idx])


def align_grids(x: SampledPath, y: SampledPath) -> tuple[SampledPath, SampledPath]:
    """Put two paths on one grid, preferring exact downsampling.

    Differentiating a path whose samples alternate between stored and
    interpolated values turns the interpolation error into a sawtooth that
    finite differences amplify by the sampling rate, which ruins cone
    certification.  When the grids nest (or share a rich intersection) both
    paths are therefore restricted to the common times instead; only
    genuinely incompatible grids fall back to interpolating onto the union.
    """
    if x.times.shape == y.times.shape and np.array_equal(x.times, y.times):
        return x, y
    common = np.intersect1d(x.times, y.times)
    if len(common) >= max(3, min(x.n_samples, y.n_samples) // 2):
        return subsample(x, common), subsample(y, common)
    merged = np.union1d(x.times, y.times)
    return resample(x, merged), resample(y, merged)


def refine(path: SampledPath, factor: int = 2) -> SampledPath:
    """Insert ``factor - 1`` equally spaced samples into every interval."""
    if factor < 2:
        return path
    t = path.times
    pieces = [t]
    for i in range(1, factor):
        pieces.append(t[:-1] + np.diff(t) * (i / factor))
    return resample(path, np.unique(np.concatenate(pieces)))


def compose(x: SampledPath, y: SampledPath) -> SampledPath:
    """Pointwise product path t -> X(t) Y(t) on a merged time grid."""
    if x.dim != y.dim:
        raise InputError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.times.shape == y.times.shape and np.array_equal(x.times, y.times):
        return SampledPath(x.times, x.matrices @ y.matrices)
    times = np.union1d(x.times, y.times)
    xr, yr = resample(x, times), resample(y, times)
    return SampledPath(times, xr.matrices @ yr.matrices)


def pointwise_power(path: SampledPath, k: int) -> SampledPath:
    """Integer power path t -> X(t)^k (negative k through the inverse)."""
    if k == 0:
        eye = np.broadcast_to(np.eye(path.dim), path.matrices.shape)
        return SampledPath(path.times, eye.copy())
    base = symplectic_inverse(path.matrices) if k < 0 else path.matrices
    return SampledPath(path.times, binary_power(base, abs(k)))


def binary_power(base, k: int):
    """``base^k`` for k >= 1 by repeated squaring, for any operand with ``@``.

    Serves both sample stacks and the staircase's generator-carrying atoms,
    so every power in the package multiplies in the same order.
    """
    result = None
    sq = base
    while k:
        if k & 1:
            result = sq if result is None else result @ sq
        k >>= 1
        if k:
            sq = sq @ sq
    return result


def embed_block(path: SampledPath, block: int, n: int) -> SampledPath:
    """Embed an Sp(2)-path into Sp(2n) acting on the (block, block + n) plane.

    ``block`` is 1-based.  Distinct blocks commute, the embedding preserves
    polar factors, and winding numbers computed downstream are unchanged.
    """
    if path.dim != 2:
        raise InputError("block embedding expects an Sp(2) path")
    if not (1 <= block <= n):
        raise InputError(f"block index {block} outside 1..{n}")
    i = block - 1
    mats = np.broadcast_to(np.eye(2 * n), (path.n_samples, 2 * n, 2 * n)).copy()
    a = path.matrices
    mats[:, i, i] = a[:, 0, 0]
    mats[:, i, i + n] = a[:, 0, 1]
    mats[:, i + n, i] = a[:, 1, 0]
    mats[:, i + n, i + n] = a[:, 1, 1]
    return SampledPath(path.times, mats)


def min_generator_eigenvalue(path: SampledPath) -> float:
    """Smallest eigenvalue of H(t_k) over all samples."""
    track = extract_hamiltonian(path)
    return float(np.linalg.eigvalsh(track.hams).min())


def classify_verdict(min_eig: float, tol: float) -> ConeVerdict:
    """Map a minimum generator eigenvalue to a cone verdict.

    The dead band [-tol, +tol) classifies as semipositive: a vanishing
    generator (the constant identity path) is a legitimate cone member and
    must not be pushed into the negative bucket by roundoff.
    """
    if min_eig >= tol:
        status = ConeStatus.DOMINANT
    elif min_eig >= -tol:
        status = ConeStatus.SEMIPOSITIVE
    else:
        status = ConeStatus.NEGATIVE
    return ConeVerdict(status=status, min_eigenvalue=min_eig, tol=tol)


def classify_cone(path: SampledPath, tol: float = CONE_TOL) -> ConeVerdict:
    """Test a path against the cone of nonnegative generators."""
    return classify_verdict(min_generator_eigenvalue(path), tol)


def order_leq(y: SampledPath, x: SampledPath, tol: float = CONE_TOL) -> ConeVerdict:
    """Conservative certificate for Y <= X in the bi-invariant order.

    Classifies the canonical representative X Y^{-1}; a semipositive or
    dominant verdict certifies the relation, a negative verdict only refutes
    this particular representative, never the order relation itself.
    """
    x, y = align_grids(x, y)
    return classify_cone(compose(x, invert(y)), tol)
