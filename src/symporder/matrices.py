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

import numpy as np
import scipy.linalg

from .errors import InputError

# Tolerance for structural predicates (symplectic / symmetric / Hermitian).
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


def symplectic_defect(a: np.ndarray) -> np.ndarray:
    """Max-norm of A.T J A - J, reduced over the trailing two axes."""
    n = _check_even_dim(a)
    j = standard_j(n)
    resid = np.swapaxes(a, -1, -2) @ j @ a - j
    return np.abs(resid).max(axis=(-1, -2))


def is_symplectic(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when every matrix in the stack preserves the symplectic form."""
    return bool(np.all(symplectic_defect(a) <= tol))


def commutes_with_j(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when every matrix in the stack commutes with the form matrix J."""
    n = _check_even_dim(a)
    j = standard_j(n)
    return bool(np.all(np.abs(a @ j - j @ a) <= tol))


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


def real_to_complex(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Invert :func:`complex_to_real` on matrices commuting with J.

    With ``tol`` set, inputs whose commutator with J exceeds the tolerance are
    rejected; otherwise the upper-left/lower-left blocks are read off as is.
    """
    n = _check_even_dim(m)
    if tol is not None and not commutes_with_j(m, tol):
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


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring), batched over leading axes."""
    return scipy.linalg.expm(np.asarray(a))


def exp_i_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Exactly-unitary exponential exp(iA) of a Hermitian A via its spectrum."""
    a = np.asarray(a)
    if np.abs(a - np.swapaxes(a.conj(), -1, -2)).max() > tol:
        raise InputError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    phases = np.exp(1j * w)
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def symplectic_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix through the form: A^{-1} = -J A^T J."""
    n = _check_even_dim(a)
    j = standard_j(n)
    return -j @ np.swapaxes(a, -1, -2) @ j
