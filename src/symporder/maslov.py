"""Maslov winding quasimorphism and positive-path constructions.

Normalization: all winding values are reported in RADIANS.  The index of a
path is the total continuous change of ``arg det u(t)`` where ``u(t)`` is the
complex form of the orthogonal polar factor of ``X(t)``; a single
counterclockwise rotation loop in Sp(2) scores ``2*pi``.  Divide by ``2*pi``
for turn counts.  Every threshold in this package (``2*pi*n`` for order
certificates, ``4*pi*n`` for synthesis cost) is stated in the same radian
convention.

The phase needs no polar decomposition (McDuff-Salamon, *Introduction to
Symplectic Topology*, section 2.2, the map rho): for ``X = U P`` the
complex-linear part ``(X - J X J) / 2`` equals ``U (P + P^-1) / 2``, whose
second factor is Hermitian with eigenvalues at least 1, so its complex
determinant has the phase of ``det u`` and a modulus of at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError
from .generators import _rotations, random_symplectic_path
from .matrices import (DEFAULT_TOL, commutes_with_j, exp_i_hermitian, is_hermitian,
                       is_symplectic, standard_j, symplectic_defect)

# ``unitary_polar_factor`` is not called here; the binding stays because the
# benchmark's tracer wraps ``symporder.maslov.unitary_polar_factor`` by name.
from .matrices import unitary_polar_factor  # noqa: F401
from .paths import (DEFECT_SAFETY, REFINEMENT_CAP, SampledPath, _plane_stack, compose,
                    extract_hamiltonian, pointwise_power, refine)

# refuse to trust per-step determinant increments this close to the aliasing
# boundary at pi
STEP_GUARD = 1e-2
# ``redistribute_eigenvalues``: how far a target may sit below 2*pi*n, the
# width below which a reduced eigenvalue folds to 2*pi, and how far the trace
# deficit may miss a whole number of 2*pi quanta
TARGET_SLACK = 1e-9
FOLD_CUTOFF = 1e-9
CONGRUENCE_TOL = 1e-7


@dataclass(frozen=True)
class MaslovResult:
    """Winding of the determinant of the unitary polar factor, in radians.

    Each sample's phase is read in closed form as the sign of the complex
    ``slogdet`` of its complex-linear part, with no SVD (see the module
    docstring).
    ``value`` is exactly the float sum of ``per_step_increments`` and
    ``max_step`` is strictly below pi, otherwise the grid was refined before
    this result was produced.
    """

    value: float
    per_step_increments: np.ndarray
    max_step: float

    @property
    def turns(self) -> float:
        return self.value / (2.0 * np.pi)


def _slogdet_of_unitary_factor(mats: np.ndarray):
    # (sign, log |det|) of det_C of 2 C_X: the sign has the phase of det_C U,
    # since 2 C_X = U (P + P^-1) with (P + P^-1) Hermitian positive definite,
    # and the log-modulus is at least n log 2; read in logs, no sample is too
    # large for its determinant
    n = mats.shape[-1] // 2
    a11, a12 = mats[..., :n, :n], mats[..., :n, n:]
    a21, a22 = mats[..., n:, :n], mats[..., n:, n:]
    return np.linalg.slogdet((a11 + a22) + 1j * (a21 - a12))


def maslov_index(path: SampledPath, max_samples: int = REFINEMENT_CAP) -> MaslovResult:
    """Winding of arg det of the unitary polar factor along the path.

    Increments between consecutive samples are taken as principal arguments;
    whenever one comes within ``STEP_GUARD`` of the aliasing boundary pi the
    grid is doubled (interpolating with local generators) and the whole
    computation retried, up to ``max_samples`` samples.
    """
    current = path
    while True:
        phases = _slogdet_of_unitary_factor(current.matrices).sign
        incs = np.angle(phases[1:] * np.conj(phases[:-1]))
        max_step = float(np.abs(incs).max())
        if max_step < np.pi - STEP_GUARD:
            return MaslovResult(value=float(incs.sum()),
                                per_step_increments=incs,
                                max_step=max_step)
        if 2 * (current.n_samples - 1) + 1 > max_samples:
            raise ResolutionError(
                f"winding steps still reach {max_step:.3f} rad at "
                f"{current.n_samples} samples (cap {max_samples})")
        current = refine(current, 2)


def maslov_via_trace(path: SampledPath) -> float:
    """Independent winding route for unitary paths: integrate tr h(t).

    For a path in the unitary subgroup the complex generator satisfies
    ``du/dt u^{-1} = i h`` with h Hermitian, and the winding equals the time
    integral of ``tr h``.  In the real picture ``tr h = tr H / 2``.  Uses
    finite-difference extraction plus trapezoid quadrature, so it converges
    at second order and shares no code path with :func:`maslov_index`.
    """
    if not commutes_with_j(path.matrices):
        raise InputError("trace route requires a unitary path "
                         "(samples must commute with J)")
    track = extract_hamiltonian(path)
    traces = 0.5 * np.trace(track.hams, axis1=-2, axis2=-1)
    return float(np.trapezoid(traces, track.times))


def homogenize(path: SampledPath, k_max: int) -> np.ndarray:
    """Sequence maslov(X^k)/k for k = 1..k_max.

    The sequence converges to the homogeneous quasimorphism at rate C/k,
    with C the quasimorphism defect; on unitary paths it is constant.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    return np.array([maslov_index(pointwise_power(path, k)).value / k
                     for k in range(1, k_max + 1)])


def quasimorphism_defect_sample(num_pairs: int, dim: int, seed: int) -> float:
    """Empirical quasimorphism defect max |mu(XY) - mu(X) - mu(Y)|.

    Pairs are drawn from the smooth random-path ensemble at its default scale
    and sample count, keyed by (seed, pair index) so individual draws are
    reproducible.  Every third pair reuses a power of its first member as the
    second, which probes the defect along the homogenization direction as well.
    """
    if dim < 2 or dim % 2:
        raise InputError(f"dim must be a positive even integer, got {dim}")
    if num_pairs < 1:
        raise InputError(f"the number of pairs must be positive, got {num_pairs}")
    worst = 0.0
    for i in range(num_pairs):
        rng = np.random.default_rng([seed, i])
        x = random_symplectic_path(dim, rng)
        y = pointwise_power(x, 2) if i % 3 == 2 else random_symplectic_path(dim, rng)
        defect = abs(maslov_index(compose(x, y)).value
                     - maslov_index(x).value - maslov_index(y).value)
        worst = max(worst, defect)
    return worst


def defect_constant(dim: int, num_pairs: int = 20, seed: int = 7) -> float:
    """Sampled defect bound times ``DEFECT_SAFETY``, for downstream certificates."""
    return DEFECT_SAFETY * quasimorphism_defect_sample(num_pairs, dim, seed)


@dataclass(frozen=True)
class RedistributedSpectrum:
    """Nonnegative eigenvalue vector with prescribed trace, plus its basis.

    Reassembling ``basis @ diag(eigenvalues) @ basis^H`` gives a Hermitian
    matrix with the requested trace whose imaginary exponential equals that
    of the original input.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def matrix(self) -> np.ndarray:
        return (self.basis * self.eigenvalues[None, :]) @ self.basis.conj().T


def redistribute_eigenvalues(a: np.ndarray, target_mu: float) -> RedistributedSpectrum:
    """Shift a Hermitian spectrum by multiples of 2*pi onto a target trace.

    Each eigenvalue is first reduced modulo 2*pi into (0, 2*pi]; the trace
    deficit ``target_mu - sum`` must then be a whole number k >= 0 of 2*pi
    quanta.  Writing k = l*n + m, every eigenvalue gains l quanta and the m
    smallest (by original eigenvalue) gain one more.  The result keeps
    exp(iA) fixed, stays entrywise positive, and spreads the spectrum over a
    window no wider than 2*pi*n.  Requires ``target_mu >= 2*pi*n``; k = 0 is
    a valid no-op.  ``a`` must pass :func:`symporder.matrices.is_hermitian`;
    the returned trace is ``target_mu`` to within ``CONGRUENCE_TOL``.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if a.shape != (n, n):
        raise InputError(f"expected a square matrix, got {a.shape}")
    if not is_hermitian(a):
        raise InputError("matrix is not Hermitian within tolerance")
    two_pi = 2.0 * np.pi
    if target_mu < two_pi * n - TARGET_SLACK:
        raise InputError(
            f"target {target_mu:.6f} below threshold 2*pi*n = {two_pi * n:.6f}")
    w, v = np.linalg.eigh(a)
    reduced = np.mod(w, two_pi)
    reduced[reduced <= FOLD_CUTOFF] += two_pi  # (0, 2*pi] convention
    k_float = (target_mu - reduced.sum()) / two_pi
    k = int(round(k_float))
    if abs(k_float - k) * two_pi > CONGRUENCE_TOL:
        raise InputError(
            "target trace is not congruent to the input spectrum modulo 2*pi")
    if k < 0:
        raise InputError("target below the reduced spectrum sum")
    quanta, extra = divmod(k, n)
    new = reduced + two_pi * quanta
    new[:extra] += two_pi  # eigh order is ascending, so these are the smallest
    return RedistributedSpectrum(eigenvalues=new, basis=v)


def unitary_endpoint(spectrum: RedistributedSpectrum) -> np.ndarray:
    """exp(i * reassembled matrix); invariant under the redistribution."""
    return exp_i_hermitian(spectrum.matrix())


# ---------------------------------------------------------------------------
# positive path synthesis


def _pair_spd_symplectic(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal-symplectic diagonalization of a positive symplectic matrix.

    Returns (q, lams) with q orthogonal and symplectic and
    ``q.T @ p @ q = diag(lams, 1/lams)``.  Eigenvalues of p pair as
    (l, 1/l) because ``p J p = J``; eigenvectors v with l > 1 pair with
    ``J v``.  The eigenspace at 1 is J-invariant, a complex subspace of C^n
    (J acts as i); its leading left singular vectors in C^n, split into real
    and imaginary parts, are an orthonormal frame v with v, Jv spanning it.
    """
    dim = p.shape[0]
    n = dim // 2
    j = standard_j(n)
    w, v = np.linalg.eigh(p)
    if w[0] <= DEFAULT_TOL:
        raise InputError("matrix is not positive definite")
    log_w = np.log(w)
    cluster_tol = 1e-8
    plus = np.where(log_w > cluster_tol)[0]
    ones = np.where(np.abs(log_w) <= cluster_tol)[0]
    if 2 * len(plus) + len(ones) != dim:
        raise InputError("eigenvalues do not pair as (l, 1/l); input is not "
                         "symplectic within tolerance")
    pairs: list[tuple[float, np.ndarray]] = []
    for idx in plus[::-1]:  # descending eigenvalue
        pairs.append((float(w[idx]), v[:, idx]))
    if len(ones):
        basis = v[:n, ones] + 1j * v[n:, ones]
        frame = np.linalg.svd(basis)[0][:, : len(ones) // 2]
        for b in np.concatenate([frame.real, frame.imag]).T:
            pairs.append((float(b @ p @ b), b))
    pairs.sort(key=lambda item: -item[0])
    lams = np.array([lam for lam, _ in pairs])
    vecs = np.stack([vec for _, vec in pairs], axis=1)
    q = np.concatenate([vecs, j @ vecs], axis=1)
    return q, lams


def _stretch_rotation_block(lam: float, times: np.ndarray) -> np.ndarray:
    """Sp(2) positive path U(t) F(t) U(t) from identity to diag(lam, 1/lam).

    ``U`` is the rotation by 2*pi*t and ``F = diag(f, 1/f)`` with
    ``f(t) = tan(pi/4 + a t)``, ``a = arctan(lam) - pi/4``.  Because
    |a| < pi/4 the slope of f never outruns the rotation and the path's
    generator stays positive definite; its winding is exactly 4*pi.
    """
    a = np.arctan(lam) - np.pi / 4.0
    f = np.tan(np.pi / 4.0 + a * times)
    u = _rotations(2.0 * np.pi * times)
    fmat = np.zeros((len(times), 2, 2))
    fmat[:, 0, 0] = f
    fmat[:, 1, 1] = 1.0 / f
    return u @ fmat @ u


def positive_path_to(p: np.ndarray, n_samples: int = 512) -> SampledPath:
    """Positive path from the identity to a positive symplectic endpoint.

    Diagonalizes ``p`` with an orthogonal-symplectic basis, drives each
    (l, 1/l) eigenvalue plane with the rotating-stretch block path, and
    conjugates back.  The result has a strictly positive generator, endpoint
    ``p`` up to roundoff, and winding 4*pi per plane (so at most
    ``4*pi*n`` overall).  Blocks are laid down in descending eigenvalue
    order, which makes the construction deterministic.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or not is_hermitian(p):
        raise InputError("endpoint must be a symmetric matrix")
    if not is_symplectic(p):
        raise InputError(f"endpoint is not symplectic: |P^T J P - J| = {symplectic_defect(p):.3e}")
    q, lams = _pair_spd_symplectic(p)
    times = np.linspace(0.0, 1.0, n_samples)
    mats = _plane_stack(n_samples, p.shape[0] // 2,
                        {i: _stretch_rotation_block(lam, times) for i, lam in enumerate(lams)})
    return SampledPath(times, q @ mats @ q.T)
