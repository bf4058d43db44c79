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
        return np.abs(np.swapaxes(a, -1, -2) @ j @ a - j), j


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


def commutes_with_j(a: np.ndarray) -> bool:
    """True when every matrix in the stack commutes with the form matrix J.

    For A = [[P, Q], [R, S]] the commutator is AJ - JA = [[Q + R, S - P],
    [S - P, -(Q + R)]], so the blocks are compared without forming it.
    """
    n = _check_even_dim(a)
    p, q = a[..., :n, :n], a[..., :n, n:]
    r, s = a[..., n:, :n], a[..., n:, n:]
    return bool(np.all(np.abs(q + r) <= DEFAULT_TOL) and np.all(np.abs(s - p) <= DEFAULT_TOL))


def complex_to_real(u: np.ndarray) -> np.ndarray:
    """Embed complex n-by-n matrices as real 2n-by-2n ones.

    ``A + iB`` maps to ``[[A, -B], [B, A]]``.  The map is an injective algebra
    homomorphism; unitary inputs land exactly on the symplectic matrices that
    commute with J.
    """
    u = np.asarray(u)
    a, b = u.real, u.imag
    top = np.concatenate([a, -b], axis=-1)
    bot = np.concatenate([b, a], axis=-1)
    return np.concatenate([top, bot], axis=-2)


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


# Higham (2005), Table 2.3: the largest size at which the [m/m] Pade
# approximant of exp meets double precision without scaling
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))
# numerator coefficients b_k = (2m - k)! / (k! (m - k)!) of each [m/m]
# approximant, integers (the denominator's are (-1)^k b_k)
_PADE_COEFFS = {m: tuple(float(factorial(2 * m - k) // (factorial(k) * factorial(m - k)))
                         for k in range(m + 1)) for m, _ in _PADE_THETA}


def _pade_uv(a: np.ndarray, a2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd part U and even part V of the [m/m] Pade numerator of exp at ``a``,
    ``a2`` its square."""
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1])
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
        return u, v
    odd, even = b[1] * eye, b[0] * eye
    power = eye
    for k in range(2, m, 2):
        power = power @ a2
        odd = odd + b[k + 1] * power
        even = even + b[k] * power
    return a @ odd, even


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
    :class:`ComputationError`, without a numpy warning.
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape((np.prod(a.shape[:-2], dtype=int),) + a.shape[-2:])
    mag = np.abs(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = flat @ flat
        # the column sums of |A|^2 are 1^T |A| |A|, two vector products
        colsums = np.ones((1, a.shape[-1])) @ mag @ mag
        size = np.sqrt(colsums.max(axis=(-2, -1), initial=0.0))
    if not np.all(np.isfinite(size)):
        raise ComputationError("matrix exponential of a matrix whose |A|^2 is not finite")
    m, theta = next((m, theta) for m, theta in _PADE_THETA
                    if size.max(initial=0.0) <= theta or m == 13)
    s = np.ceil(np.log2(np.maximum(size, theta)) - np.log2(theta)).astype(np.int32)
    if s.any():
        scale = -s[:, None, None]
        flat, sq = np.ldexp(flat, scale), np.ldexp(sq, 2 * scale)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _pade_uv(flat, sq, m)
        out = np.linalg.solve(v - u, v + u)
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


def symplectic_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix through the form: A^{-1} = -J A^T J.

    For A = [[P, Q], [R, S]] that is [[S^T, -Q^T], [-R^T, P^T]]: every entry
    of -J A^T J is one entry of A up to sign, so the blocks are copied
    instead of multiplied.
    """
    n = _check_even_dim(a)
    t = np.swapaxes(a, -1, -2)
    out = np.empty(t.shape, dtype=np.result_type(t, 0.0))
    out[..., :n, :n] = t[..., n:, n:]
    np.negative(t[..., n:, :n], out=out[..., :n, n:])
    np.negative(t[..., :n, n:], out=out[..., n:, :n])
    out[..., n:, n:] = t[..., :n, :n]
    # adding 0.0 turns -0.0 into 0.0, the zero that -J A^T J computed as a
    # matrix product gives, so inverse samples keep the bytes of that product
    out += 0.0
    return out
