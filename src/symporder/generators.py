"""Deterministic path ensembles for experiments and sampling.

Random draws are keyed by ``numpy.random.default_rng([seed, stream_index])``
so that each generated object is reproducible independently of how many other
objects the caller requested before it.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .matrices import complex_to_real, exp_i_hermitian, matrix_exp, standard_j
from .paths import DEFAULT_SAMPLES, SampledPath


def uniform_times(n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_samples)


def _rotations(th: np.ndarray) -> np.ndarray:
    """Stack of Sp(2) rotations R(th_k) = [[cos, -sin], [sin, cos]]."""
    c, s = np.cos(th), np.sin(th)
    return np.stack([c, -s, s, c], axis=-1).reshape(len(th), 2, 2)


def rotation_path(angle: float, n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    """Sp(2) rotation path t -> R(angle * t)."""
    t = uniform_times(n_samples)
    return SampledPath(t, _rotations(angle * t))


def rotation_loop(k: int = 1, n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    """k-fold rotation loop in Sp(2); its winding is 2*pi*k."""
    return rotation_path(2.0 * np.pi * k, n_samples)


def diagonal_unitary_path(angles: np.ndarray, times: np.ndarray) -> SampledPath:
    """Path diag(exp(i * theta_j(t))) embedded into Sp(2n, R).

    ``angles`` has shape (N, n) with angles[0] == 0 so the path starts at the
    identity.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or len(angles) != len(times):
        raise InputError("angles must have shape (n_samples, n)")
    return SampledPath(np.asarray(times, dtype=float), complex_to_real(_diagonal(angles)))


def _diagonal(angles: np.ndarray) -> np.ndarray:
    """Stack of complex diagonal matrices diag(exp(i * angles[k]))."""
    samples, n = angles.shape
    u = np.zeros((samples, n, n), dtype=complex)
    idx = np.arange(n)
    u[:, idx, idx] = np.exp(1j * angles)
    return u


def unitary_loop(multiplicities, basis: np.ndarray | None = None,
                 n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    """Unitary loop V diag(exp(2*pi*i*m_j*t)) V^H with integer windings m_j."""
    t = uniform_times(n_samples)
    u = _diagonal(2.0 * np.pi * np.outer(t, np.asarray(multiplicities, dtype=int)))
    if basis is not None:
        u = basis @ u @ basis.conj().T
    return SampledPath(t, complex_to_real(u))


def random_unitary_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian, phases fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_mode(rng: np.random.Generator, dim: int, scale: float,
                 hermitian: bool) -> np.ndarray:
    """Random Hermitian (or real symmetric) matrix of spectral norm ``scale``."""
    z = rng.normal(size=(dim, dim))
    if hermitian:
        z = z + 1j * rng.normal(size=(dim, dim))
    m = 0.5 * (z + z.conj().T)
    return scale * m / max(np.linalg.norm(m, 2), 1e-12)


def _mode_closure(rng: np.random.Generator, dim: int, scale: float, hermitian: bool):
    """t -> b0 + sin(2 pi t) b1 + cos(2 pi t) b2 for a scalar or a (N-1, 1, 1) array t."""
    b0, b1, b2 = (_random_mode(rng, dim, scale, hermitian) for _ in range(3))

    def h(t):
        return b0 + np.sin(2 * np.pi * t) * b1 + np.cos(2 * np.pi * t) * b2

    return h


def random_hermitian_generator(n: int, rng: np.random.Generator):
    """Smooth random Hermitian-valued map h(t) built from three fixed modes,
    each of spectral norm 2."""
    return _mode_closure(rng, n, 2.0, True)


def _midpoint_values(h, t: np.ndarray, n: int) -> np.ndarray:
    """``h`` on the step midpoints of ``t``, from one call shaped (N-1, 1, 1)."""
    mids = 0.5 * (t[:-1] + t[1:])
    shape = (len(mids), n, n)
    values = h(mids[:, None, None])
    try:
        return np.broadcast_to(values, shape)
    except ValueError as exc:
        raise InputError(f"generator value of shape {np.shape(values)} does not "
                         f"broadcast to the midpoint shape {shape}") from exc


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """Samples X_0 = I and X_{k+1} = steps[k] X_k."""
    out = np.empty((len(steps) + 1,) + steps.shape[1:], dtype=steps.dtype)
    out[0] = np.eye(steps.shape[-1])
    for k, step in enumerate(steps):
        out[k + 1] = step @ out[k]
    return out


def unitary_path_from_generator(h, n: int, n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    """Midpoint product integration of du/dt = i h(t) u, mapped into Sp(2n, R).

    ``h`` is called once, with the step midpoints shaped (N-1, 1, 1); its
    value must broadcast to (N-1, n, n), else :class:`InputError`.  Each step
    factor is built spectrally, so every sample is unitary to machine
    precision regardless of the step count.
    """
    t = uniform_times(n_samples)
    gens = np.diff(t)[:, None, None] * _midpoint_values(h, t, n)
    return SampledPath(t, complex_to_real(_ordered_product(exp_i_hermitian(gens))))


def random_unitary_path(n: int, rng: np.random.Generator,
                        n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    return unitary_path_from_generator(random_hermitian_generator(n, rng), n, n_samples)


def symplectic_path_from_hamiltonian(ham, dim: int,
                                     n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    """Midpoint product integration of dX/dt = J H(t) X.

    ``ham`` is called once, with the step midpoints shaped (N-1, 1, 1); its
    value must broadcast to (N-1, dim, dim), else :class:`InputError`.  The
    step factors come from one batched :func:`~symporder.matrices.matrix_exp`
    of the Hamiltonian matrices dt J H(t_mid): diagonal Pade approximants,
    symplectic in exact arithmetic, so the samples drift from Sp(2n) only by
    roundoff.
    """
    t = uniform_times(n_samples)
    j = standard_j(dim // 2)
    gens = np.diff(t)[:, None, None] * (j @ _midpoint_values(ham, t, dim))
    return SampledPath(t, _ordered_product(matrix_exp(gens)))


def random_symplectic_path(dim: int, rng: np.random.Generator, scale: float = 1.5,
                           n_samples: int = DEFAULT_SAMPLES) -> SampledPath:
    return symplectic_path_from_hamiltonian(
        _mode_closure(rng, dim, scale, False), dim, n_samples)


def commuting_unitary_pair(n: int, rng: np.random.Generator,
                           n_samples: int = DEFAULT_SAMPLES):
    """Commuting diagonal-unitary dominant pair (X, Y) with Y's angle
    velocities a common multiple of X's.

    Per component, theta_j(t) = w_j t + (d_j / 2 pi) sin(2 pi t) with
    |d_j| < w_j, so theta_j' > 0 and X is dominant.  Y uses ratio * theta_j
    with ratio drawn from [0.5, 2.5).  Returns (X, Y, ratio); the relative
    growth of the pair equals ratio.
    """
    t = uniform_times(n_samples)
    w = rng.uniform(2.0, 8.0, size=n)
    d = rng.uniform(-0.8, 0.8, size=n) * w
    theta = np.outer(t, w) + np.sin(2 * np.pi * t)[:, None] * (d / (2 * np.pi))
    ratio = float(rng.uniform(0.5, 2.5))
    x = diagonal_unitary_path(theta, t)
    y = diagonal_unitary_path(ratio * theta, t)
    return x, y, ratio


def random_positive_diagonal_target(n: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal symplectic positive matrix diag(l_1..l_n, 1/l_1..1/l_n), log l_j
    drawn from [-1, 1)."""
    lams = np.exp(rng.uniform(-1.0, 1.0, size=n))
    return np.diag(np.concatenate([lams, 1.0 / lams]))
