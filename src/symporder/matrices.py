"""Dense kernels for the real symplectic group Sp(2n, R) and its unitary subgroup.

Conventions used throughout the package:

* The symplectic form is represented by the block matrix
  ``J = [[0, -I], [I, 0]]`` with n-by-n blocks.
* ``A`` is symplectic when ``A.T @ J @ A == J``.
* The unitary group U(n) sits inside Sp(2n, R) through
  ``A + iB -> [[A, -B], [B, A]]``; its image is exactly the set of
  symplectic matrices commuting with J.

All kernels accept stacked inputs with shape ``(..., m, m)`` and operate on
the trailing two axes.
"""

from __future__ import annotations

from functools import cache
from math import factorial

import numpy as np

from .errors import ComputationError, InputError

# The one structural tolerance: identity starts, J-commuting, symplectic, Hermitian.
DEFAULT_TOL = 1e-9


def standard_j(n: int) -> np.ndarray:
    """Return the 2n-by-2n symplectic form matrix [[0, -I], [I, 0]]."""
    if n < 1:
        raise InputError(f"block size must be positive, got {n}")
    j = np.zeros((2 * n, 2 * n))
    eye = np.eye(n)
    j[:n, n:] = -eye
    j[n:, :n] = eye
    return j


def _check_even_dim(a: np.ndarray) -> int:
    if a.shape[-1] != a.shape[-2]:
        raise InputError(f"expected square matrices, got shape {a.shape}")
    dim = a.shape[-1]
    if dim % 2 != 0:
        raise InputError(f"symplectic matrices have even dimension, got {dim}")
    return dim // 2


def _symplectic_residual(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|A.T J A - J| and J, with inf or NaN, not a warning, past the float range."""
    j = standard_j(_check_even_dim(a))
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.swapaxes(a, -1, -2) @ j @ a
        return np.abs(np.subtract(resid, j, out=resid), out=resid), j


def symplectic_defect(a: np.ndarray) -> np.ndarray:
    """Max-norm of A.T J A - J, reduced over the trailing two axes."""
    return _symplectic_residual(a)[0].max(axis=(-1, -2))


def is_symplectic(a: np.ndarray) -> bool:
    """True when each entry (i, j) of A.T J A - J, for every A of the stack, is
    finite and within ``DEFAULT_TOL`` (1 + T_ij), T = |A|.T |J| |A| bounding
    its rounding; only matrices off by more than ``DEFAULT_TOL`` form T."""
    resid, j = _symplectic_residual(a)
    rest = ~(resid.max(axis=(-1, -2)) <= DEFAULT_TOL)  # NaN lands in ``rest``
    resid, b = resid[rest], np.abs(a[rest])
    with np.errstate(over="ignore"):
        terms = np.swapaxes(b, -1, -2) @ np.abs(j) @ b
    return bool(np.isfinite(resid).all() and np.all(resid <= DEFAULT_TOL * (1.0 + terms)))


def is_hermitian(a: np.ndarray) -> bool:
    """True when every matrix in the stack is within ``DEFAULT_TOL`` (1 + its
    largest |entry|) of its conjugate transpose; an overflowing gap fails."""
    a = np.asarray(a)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-1, -2))
    return bool(np.all(gap <= DEFAULT_TOL * (1.0 + np.abs(a).max(axis=(-1, -2)))))


def _commutator_blocks(a: np.ndarray) -> np.ndarray:
    """Blocks Q + R and S - P of each A = [[P, Q], [R, S]], an (..., 2, n, n)
    stack: AJ - JA = [[Q + R, S - P], [S - P, -(Q + R)]]."""
    n = a.shape[-1] // 2
    return np.stack([a[..., :n, n:] + a[..., n:, :n], a[..., n:, n:] - a[..., :n, :n]], axis=-3)


def commutes_with_j(a: np.ndarray) -> bool:
    """True when every matrix in the stack commutes with the form matrix J:
    the blocks of its commutator (:func:`_commutator_blocks`, through
    :func:`_by_entry_map`) are finite and within ``DEFAULT_TOL`` of 0."""
    blocks = _by_entry_map(_commutator_blocks, a)
    np.abs(blocks, out=blocks)
    return bool(blocks.max(initial=0.0) <= DEFAULT_TOL)


def complex_to_real(u: np.ndarray) -> np.ndarray:
    """Embed complex n-by-n matrices as real 2n-by-2n ones.

    ``A + iB`` maps to ``[[A, -B], [B, A]]``.  The map is an injective algebra
    homomorphism; unitary inputs land exactly on the symplectic matrices that
    commute with J.
    """
    u = np.asarray(u)
    rows, cols = u.shape[-2:]
    out = np.empty(u.shape[:-2] + (2 * rows, 2 * cols), dtype=u.real.dtype)
    out[..., :rows, :cols] = out[..., rows:, cols:] = u.real
    out[..., rows:, :cols] = u.imag
    np.negative(u.imag, out=out[..., :rows, cols:])
    return out


def real_to_complex(m: np.ndarray) -> np.ndarray:
    """Invert :func:`complex_to_real`; refuses matrices that do not commute
    with J (:func:`commutes_with_j`)."""
    n = _check_even_dim(m)
    if not commutes_with_j(m):
        raise InputError("matrix does not commute with J within tolerance")
    return m[..., :n, :n] + 1j * m[..., n:, :n]


def unitary_polar_factor(a: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor via SVD, batched over leading axes.

    The winding phase in :mod:`symporder.maslov` reads ``arg det`` of this
    factor in closed form; this SVD route is the reference the tests check
    it against.
    """
    w1, _, w2h = np.linalg.svd(a)
    return w1 @ w2h


# Largest real dimension (2n for complex n-by-n) at which the sample-axis
# kernels below beat one LAPACK call per matrix on 2049-sample stacks, and
# the fewest matrices on which they do: each call costs a fixed 30-90 numpy
# operations, so at 257 samples LAPACK is faster from real dimension 4 up
# and at 65 samples 2-4.5 times faster, while at 513 samples the kernels win
# or tie at every dimension up to 8.  Other stacks go to ``np.linalg``.
# The J-structure maps of ``_by_entry_map`` take the same dimension cap, with
# no sample floor: above it their O(d^4) product is slower than the block
# code.  CHANGES.md and the BENCH_23 and BENCH_26 records hold the timings.
SAMPLE_AXIS_MAX_DIM = 8
SAMPLE_AXIS_MIN_SAMPLES = 512


def _lapack_route(a: np.ndarray, real_dim: int) -> bool:
    """True when the stack ``a`` goes to ``np.linalg``: its matrices have a
    real dimension above ``SAMPLE_AXIS_MAX_DIM``, or it holds fewer than
    ``SAMPLE_AXIS_MIN_SAMPLES`` of them."""
    return (real_dim > SAMPLE_AXIS_MAX_DIM
            or a.size < SAMPLE_AXIS_MIN_SAMPLES * a.shape[-1] ** 2)


@cache
def _entry_map(formula, n: int) -> np.ndarray:
    """``formula`` applied to the 4n^2 unit matrices of size 2n: for a map
    linear in the entries of each matrix, its matrix on that basis, of shape
    (4n^2,) + the shape ``formula`` gives one matrix."""
    d = 2 * n
    m = formula(np.eye(d * d).reshape(d * d, d, d))
    m.flags.writeable = False  # one array serves every caller
    return m


def _by_entry_map(formula, a: np.ndarray) -> np.ndarray:
    """``formula(a)`` for a ``formula`` linear in the entries of each 2n x 2n
    matrix of the stack ``a`` whose matrix (:func:`_entry_map`) holds only
    0, +-1 and +-1/2: the J-structure maps.

    Up to real dimension ``SAMPLE_AXIS_MAX_DIM`` it is one product of the
    (samples, 4n^2) view of ``a`` with that matrix, in place of ``formula``'s
    strided block copies and products by J.  For finite entries each output
    then gets one nonzero term, or two exact halves whose sum rounds as
    0.5 (x + y) does (above the subnormal range), plus exact zeros: the bits
    of ``formula``'s entry, except that a zero may lose its sign, since a
    BLAS product sums from +0.0.  An inf or NaN entry of a matrix turns its
    outputs NaN.  Larger matrices, where the product's O(d^4) work costs
    more than the copies, take ``formula`` itself.  The maps are cached per
    formula and n.
    """
    n = _check_even_dim(a)
    if 2 * n > SAMPLE_AXIS_MAX_DIM:
        return formula(a)
    m = _entry_map(formula, n)
    flat = a.reshape(-1, m.shape[0]) @ m.reshape(m.shape[0], -1)
    return flat.reshape(a.shape[:-2] + m.shape[1:])


def _samples_last(a: np.ndarray) -> np.ndarray:
    """Copy of a stack (..., m, m) laid out as (m, m, samples), so that one
    numpy operation on an entry acts on every sample."""
    return np.moveaxis(a.reshape((-1,) + a.shape[-2:]), 0, -1).copy()


def _pivot_to_top(a: np.ndarray, k: int) -> np.ndarray:
    """Step k of partial pivoting on a C-ordered ``a`` (rows, columns,
    samples): swap into row k of each sample, from column k on, its first row
    at or below k whose entry in column k is largest in |Re| + |Im|, the
    pivot of LAPACK's ``izamax``.  A step where no sample's pivot row moves
    is the identity and copies nothing.  Returns where the rows were swapped."""
    n, _, count = a.shape
    parts = np.abs(a[k:, k].view(float))  # |Re| and |Im| interleaved
    mag = parts[:, 0::2] + parts[:, 1::2]
    best, row = mag[0], np.full(count, k)
    for r in range(1, n - k):
        larger = mag[r] > best
        row[larger] = k + r
        best = np.where(larger, mag[r], best)
    swapped = row != k
    if swapped.any():
        at = row * (n * count) + np.arange(k, n)[:, None] * count + np.arange(count)
        flat = a.reshape(-1)
        pivot_row = flat[at]
        flat[at] = a[k, k:]
        a[k, k:] = pivot_row
    return swapped


def det_phase(c: np.ndarray) -> np.ndarray:
    """det C / |det C| of each nonsingular complex matrix C of a stack
    (..., n, n).

    Gaussian elimination with partial pivoting (:func:`_pivot_to_top`) runs
    with the sample axis last; the phase is the product of the unit pivots
    times the sign of the row permutation.  Rows move only at a step where
    some sample's pivot does, and each sample's phase reads its own entries.  It takes no logarithm and forms
    no product of moduli, so a matrix whose determinant overflows (entries
    far beyond 1e154) still has its phase.  Above ``SAMPLE_AXIS_MAX_DIM``
    (2n > 8), and on stacks of fewer than ``SAMPLE_AXIS_MIN_SAMPLES``
    matrices, the sign of ``np.linalg.slogdet`` is returned instead.
    """
    c = np.asarray(c, dtype=complex)
    n = c.shape[-1]
    if _lapack_route(c, 2 * n):
        return np.linalg.slogdet(c).sign
    with np.errstate(all="ignore"):
        a = _samples_last(c)
        odd = np.zeros(a.shape[-1], bool)
        for k in range(n - 1):
            odd ^= _pivot_to_top(a, k)
            factors = a[k + 1:, k] * (1.0 / a[k, k])
            a[k + 1:, k + 1:] -= factors[:, None] * a[k, None, k + 1:]
        pivots = a[np.arange(n), np.arange(n)]
        units = np.empty(pivots.shape, complex)
        mod = np.abs(pivots)
        np.divide(pivots.real, mod, out=units.real)
        np.divide(pivots.imag, mod, out=units.imag)
        phase = np.prod(units, axis=0)
        np.negative(phase, out=phase, where=odd)
    return phase.reshape(c.shape[:-2])


# Largest complex dimension n at which :func:`step_eigenphases` reads the
# eigenphases of unitary steps in closed form.  ``np.linalg.eigvals`` on a
# 2049-sample U(4) step stack takes about 12 ms, against 0.7-1.2 ms for the
# determinant winding of that path (BENCH_38.json), so unitary paths of
# larger n keep the determinant winding and the finite-difference track.
STEP_PHASE_MAX_N = 2


def step_eigenphases(mats: np.ndarray) -> np.ndarray:
    """Principal eigenphases, in (-pi, pi] and ascending, of each step
    S_k = U_{k+1} U_k^H of a stack (N, 2n, 2n) of real forms of unitary
    matrices U = A + iB, read from the left block column [[A], [B]] as
    :func:`real_to_complex` reads it, for n <= ``STEP_PHASE_MAX_N``; an
    (N - 1, n) array.

    The phases come in closed form, each entry one numpy operation over all
    steps with the sample axis last.  n = 1: theta = arg(u_{k+1} conj(u_k)).
    n = 2: theta = phi / 2 -+ psi with phi = arg det S,
    cos psi = Re(tr S e^(-i phi / 2)) / 2 and
    sin psi = ||S - (tr S / 2) I||_F / sqrt(2), the traceless part read from
    s00 - s11, s01 and s10, so that a step near a multiple of the identity
    keeps the absolute precision of its entries; psi is the arctangent of
    the two, so a step scaled by a positive factor keeps its phases.
    """
    n = _check_even_dim(mats)
    if n > STEP_PHASE_MAX_N:
        raise InputError(f"closed-form step eigenphases need n <= {STEP_PHASE_MAX_N}, got {n}")
    u = np.empty((n, n, len(mats)), complex)
    u.real = np.moveaxis(mats[:, :n, :n], 0, -1)
    u.imag = np.moveaxis(mats[:, n:, :n], 0, -1)
    nxt, cur = u[..., 1:], u[..., :-1].conj()
    if n == 1:
        s = nxt[0, 0] * cur[0, 0]
        return np.arctan2(s.imag, s.real)[:, None]
    s00, s01, s10, s11 = (nxt[i, 0] * cur[j, 0] + nxt[i, 1] * cur[j, 1]
                          for i in (0, 1) for j in (0, 1))
    del u, nxt, cur  # the samples die once the steps are formed
    det = s00 * s11 - s01 * s10
    half = np.arctan2(det.imag, det.real)
    half *= 0.5
    tr, gap = s00 + s11, s00 - s11
    cos = tr.real * np.cos(half) + tr.imag * np.sin(half)
    cos *= 0.5
    sin = np.sqrt(0.25 * (gap.real ** 2 + gap.imag ** 2)
                  + 0.5 * (s01.real ** 2 + s01.imag ** 2 + s10.real ** 2 + s10.imag ** 2))
    psi = np.arctan2(sin, cos)
    lo, hi = half - psi, half + psi  # lo in [-3 pi / 2, pi / 2], hi in (-pi / 2, 3 pi / 2]
    lo[lo <= -np.pi] += 2.0 * np.pi
    hi[hi > np.pi] -= 2.0 * np.pi  # at most one of the two wraps
    out = np.empty((len(half), 2))
    np.minimum(lo, hi, out=out[:, 0])
    np.maximum(lo, hi, out=out[:, 1])
    return out


def positive_definite(h: np.ndarray, shift: float = 0.0) -> bool:
    """True when every H - shift I of a real stack (..., m, m) is positive
    definite, read from its lower triangle.

    A right-looking Cholesky factorization runs with the sample axis last, on
    one samples-last copy with the shift taken off its diagonal, and stops at
    the first step where some sample's pivot is not positive, the rule of
    LAPACK's ``potrf``.  It computes no eigenvalue, so it gives the verdict
    only.  Above ``SAMPLE_AXIS_MAX_DIM`` (m > 8), and on stacks of fewer than
    ``SAMPLE_AXIS_MIN_SAMPLES`` matrices, ``np.linalg.cholesky`` decides on
    H - shift I.  A shifted entry that is inf or NaN raises
    :class:`ComputationError`: the factorization would skip it (upper
    triangle) or read a NaN pivot as not positive.
    """
    h = np.asarray(h, dtype=float)
    m = h.shape[-1]
    lapack = _lapack_route(h, m)
    with np.errstate(all="ignore"):
        if lapack:
            a = h - shift * np.eye(m)
        else:
            a = _samples_last(h)
            a.reshape(m * m, -1)[::m + 1] -= shift  # rows (m + 1) i: the diagonal
    if not np.isfinite(a).all():
        raise ComputationError("generator track holds a non-finite number")
    if lapack:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    with np.errstate(all="ignore"):
        for k in range(m):
            pivot = a[k, k]
            if not (pivot > 0.0).all():
                return False
            column = a[k + 1:, k] / np.sqrt(pivot)
            for i in range(k + 1, m):  # the lower triangle of the trailing block
                a[i, k + 1:i + 1] -= column[i - k - 1] * column[:i - k]
    return True


# Higham (2005), Table 2.3: the largest size at which the [m/m] Pade
# approximant of exp meets double precision without scaling
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))
# numerator coefficients b_k = (2m - k)! / (k! (m - k)!) of each [m/m]
# approximant, integers (the denominator's are (-1)^k b_k)
_PADE_COEFFS = {m: tuple(float(factorial(2 * m - k) // (factorial(k) * factorial(m - k)))
                         for k in range(m + 1)) for m, _ in _PADE_THETA}


def _add_terms(acc: np.ndarray, *terms) -> np.ndarray:
    """acc + c_1 P_1 + c_2 P_2 + ... summed left to right in ``acc``'s buffer."""
    for c, p in terms:
        acc += c * p
    return acc


def _pade_fraction(a: np.ndarray, s: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Denominator V - U and numerator V + U of the [m/m] Pade approximant of
    exp at each 2^-s A of the stack ``a``, A^2 scaled after it is formed.  Sums
    run in place in their written order; a leading b_k I joins the next term."""
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if s.any():
        scale = -s[:, None, None]
        a = np.ldexp(a, scale)
        np.ldexp(a2, 2 * scale, out=a2)
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ _add_terms(a6 @ _add_terms(b[13] * a6, (b[11], a4), (b[9], a2)),
                           (b[7], a6), (b[5], a4), (b[3], a2), (b[1], eye))
        v = _add_terms(a6 @ _add_terms(b[12] * a6, (b[10], a4), (b[8], a2)),
                       (b[6], a6), (b[4], a4), (b[2], a2), (b[0], eye))
    else:
        power = a2
        u, v = _add_terms(b[3] * power, (b[1], eye)), _add_terms(b[2] * power, (b[0], eye))
        for k in range(4, m, 2):
            power = power @ a2
            _add_terms(u, (b[k + 1], power))
            _add_terms(v, (b[k], power))
        del a2, power
        u = a @ u
    plus = v + u
    return np.subtract(v, u, out=v), plus


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Exponential of real square matrices by scaling and squaring, batched
    over leading axes.

    The [m/m] Pade approximant r_m of Higham, "The scaling and squaring
    method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl.
    26 (2005), with its thresholds theta_m.  r_m(A) = exp(A + A g(A^2)), g a
    power series from degree m, and ||A^2||_1 <= || |A|^2 ||_1 <= ||A||_1^2,
    so the 2005 backward error bound holds with z = || |A|^2 ||_1^(1/2) in
    place of ||A||_1.  A shear has z = 0, where its 1-norm would scale it
    and square its unit diagonal away (the overscaling of Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31 (2009)); unlike ||A^2||_1, z does
    not drop where the square of a non-normal A cancels.

    The whole stack takes one degree m in (3, 5, 7, 9, 13), the least with
    theta_m >= its largest z.  A matrix with z > theta_13 is scaled by 2^-s,
    s the least with 2^-s z <= theta_13 (exactly, through ``np.ldexp``).
    One batched solve gives every approximant, and each is squared s times.
    A diagonal Pade approximant of a Hamiltonian matrix is symplectic, so
    exponentials of J H stay in Sp(2n) up to roundoff.  A matrix whose |A|^2
    is not finite, or an exponential that overflows, raises
    :class:`ComputationError`, without a numpy warning.  Temporaries die at
    their last use: beside the input, a call holds about 3 stacks of its size
    at degree 3 and 7 at degree 13.
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape((np.prod(a.shape[:-2], dtype=int),) + a.shape[-2:])
    mag = np.abs(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        # the column sums of |A|^2 are 1^T |A| |A|, two vector products
        size = np.sqrt((np.ones((1, a.shape[-1])) @ mag @ mag).max(axis=(-2, -1), initial=0.0))
        del mag
        if not np.all(np.isfinite(size)):
            raise ComputationError("matrix exponential of a matrix whose |A|^2 is not finite")
        m, theta = next((m, theta) for m, theta in _PADE_THETA
                        if size.max(initial=0.0) <= theta or m == 13)
        s = np.ceil(np.log2(np.maximum(size, theta)) - np.log2(theta)).astype(np.int32)
        out = np.linalg.solve(*_pade_fraction(flat, s, m))
        for i in range(s.max(initial=0)):
            idx = np.flatnonzero(s > i)
            out[idx] = out[idx] @ out[idx]
    if not np.all(np.isfinite(out)):
        raise ComputationError("matrix exponential overflows")
    return out.reshape(a.shape)


def exp_i_hermitian(a: np.ndarray) -> np.ndarray:
    """Exactly-unitary exponential exp(iA) of a Hermitian A via its spectrum."""
    if not is_hermitian(a):
        raise InputError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    phases = np.exp(1j * w)
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _inverse_blocks(a: np.ndarray) -> np.ndarray:
    """-J A^T J of each A = [[P, Q], [R, S]]: [[S^T, -Q^T], [-R^T, P^T]],
    every entry one entry of A up to sign, copied block by block."""
    n = a.shape[-1] // 2
    t = np.swapaxes(a, -1, -2)
    out = np.empty(t.shape, dtype=np.result_type(t, 0.0))
    out[..., :n, :n] = t[..., n:, n:]
    np.negative(t[..., n:, :n], out=out[..., :n, n:])
    np.negative(t[..., :n, n:], out=out[..., n:, :n])
    out[..., n:, n:] = t[..., :n, :n]
    return out


def symplectic_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix through the form: A^{-1} = -J A^T J,
    :func:`_inverse_blocks` through :func:`_by_entry_map`, no solve."""
    out = _by_entry_map(_inverse_blocks, a)
    # adding 0.0 turns -0.0 into 0.0, the zero that -J A^T J computed as a
    # matrix product gives, so inverse samples keep the bytes of that product
    out += 0.0
    return out
