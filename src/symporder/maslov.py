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
determinant has the phase of ``det u`` and a modulus of at least 1.  Its
real and imaginary parts ``P + S`` and ``R - Q`` come from one entry-map
product up to real dimension 8 (:func:`symporder.matrices._by_entry_map`).  That
phase comes from :func:`symporder.matrices.det_phase`, the product of the
unit pivots of a pivoted elimination run over all samples at once (on
stacks of at least 512 samples; shorter ones take LAPACK's ``slogdet``).

A path in U(n), n <= 2, winds by the sum of the eigenphases of its steps
U_{k+1} U_k^H (:func:`symporder.paths.unitary_step_phases`, which refuses a
step within ``STEP_GUARD`` of pi), the determinant step wherever that is below
pi; no refinement resolves such a step, so these paths are never refined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError, ResolutionError, integer
from .generators import _rotations
from .matrices import (DEFAULT_TOL, _by_entry_map, det_phase, exp_i_hermitian,
                       is_hermitian, is_symplectic, standard_j, symplectic_defect)

# ``unitary_polar_factor`` is not called here; the binding stays because the
# benchmark's tracer wraps ``symporder.maslov.unitary_polar_factor`` by name.
from .matrices import unitary_polar_factor  # noqa: F401
from .paths import (REFINEMENT_CAP, STEP_GUARD, SampledPath, _plane_stack, extract_hamiltonian,
                    is_unitary, pointwise_power, refine, unitary_step_phases)

# refuse a refined grid whose largest increment is above this share of the
# coarser grid's: a resolving refinement about halves it
REFINE_SHRINK = 0.75
# ``redistribute_eigenvalues``: how far a target may sit below 2*pi*n, the
# width below which a reduced eigenvalue folds to 2*pi, how far the trace
# deficit may miss a whole number of 2*pi quanta, and the deficit, 2^27
# quanta, from which one ulp of it in radians exceeds that tolerance
TARGET_SLACK = 1e-9
FOLD_CUTOFF = 1e-9
CONGRUENCE_TOL = 1e-7
QUANTA_LIMIT = 2.0 ** (53 + np.floor(np.log2(CONGRUENCE_TOL / (2.0 * np.pi))))
# ``_rho_lift``: an eigenvalue is elliptic within ELLIPTIC_TOL of the unit
# circle, and real where |Im| is at most REAL_TOL of its modulus
ELLIPTIC_TOL = 1e-6
REAL_TOL = 1e-7


@dataclass(frozen=True)
class MaslovResult:
    """Winding of the determinant of the unitary polar factor, or lift of the
    rotation function rho (:func:`_rho_lift`), in radians, with no SVD and no
    logarithm.  ``value`` is exactly the float sum of ``per_step_increments``;
    ``max_step`` is the largest step the guard read, below pi - STEP_GUARD:
    on a path in U(n), n <= 2, the largest |eigenphase| of a sample step,
    each increment being the sum of its step's eigenphases, elsewhere the
    largest |increment|; ``refinements`` counts the doublings of X's grid
    (none in U(n), n <= 2) and ``n_samples`` is the size of the grid read.
    """

    value: float
    per_step_increments: np.ndarray
    max_step: float
    refinements: int
    n_samples: int

    @property
    def turns(self) -> float:
        return self.value / (2.0 * np.pi)


def _two_complex_part(mats: np.ndarray) -> np.ndarray:
    """2 C_X = (P + S) + i (R - Q) of each X = [[P, Q], [R, S]], its real and
    imaginary parts interleaved on a last axis of length 2."""
    n = mats.shape[-1] // 2
    out = np.empty(mats.shape[:-2] + (n, n, 2))
    np.add(mats[..., :n, :n], mats[..., n:, n:], out=out[..., 0])
    np.subtract(mats[..., n:, :n], mats[..., :n, n:], out=out[..., 1])
    return out


def _unitary_factor_phase(mats: np.ndarray) -> np.ndarray:
    # det_C of 2 C_X, C_X the complex-linear part, has the phase of det_C U,
    # since 2 C_X = U (P + P^-1) with (P + P^-1) Hermitian positive definite;
    # ``det_phase`` forms no product of moduli, so no sample is too large
    return det_phase(_by_entry_map(_two_complex_part, mats).view(complex)[..., 0])


def _phase_steps(phases: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal-argument increments of the unit phases of the samples, and
    their largest |value|."""
    incs = np.angle(phases[1:] * np.conj(phases[:-1]))
    return incs, float(np.abs(incs).max())


def _lift(path: SampledPath, steps) -> MaslovResult:
    """Lift of ``steps(path)``, an (increments, largest step) pair.

    A largest step within ``STEP_GUARD`` of pi doubles the grid
    (interpolating with local generators), up to ``REFINEMENT_CAP`` samples.
    A doubled grid whose largest step is above ``REFINE_SHRINK`` times the
    coarser grid's raises :class:`ResolutionError`: across a step near pi
    the finite-difference generator reads about sin(step) / dt, so the step
    creeps instead of halving, and the guard could pass a lift wrong by turns.
    """
    previous = None
    refinements = 0
    incs, max_step = steps(path)
    while True:
        if previous is not None and max_step > REFINE_SHRINK * previous:
            raise ResolutionError(
                f"refining to {path.n_samples} samples left the largest winding step "
                f"at {max_step:.4f} rad (from {previous:.4f}); the samples cannot "
                f"resolve the winding")
        if max_step < np.pi - STEP_GUARD:
            return MaslovResult(value=float(incs.sum()), per_step_increments=incs,
                                max_step=max_step, refinements=refinements,
                                n_samples=path.n_samples)
        if 2 * (path.n_samples - 1) + 1 > REFINEMENT_CAP:
            raise ResolutionError(
                f"winding steps still reach {max_step:.3f} rad at "
                f"{path.n_samples} samples (cap {REFINEMENT_CAP})")
        previous = max_step
        refinements += 1
        path = refine(path)
        incs, max_step = steps(path)


def _winding(path: SampledPath, steps: tuple | None) -> MaslovResult:
    """:func:`maslov_index` of a path whose
    :func:`symporder.paths.unitary_step_phases` are ``steps``: the sum of
    the phases, or for None the lift of arg det of the unitary polar factor."""
    if steps is None:
        return _lift(path, lambda p: _phase_steps(_unitary_factor_phase(p.matrices)))
    incs = steps[0].sum(axis=-1)
    return MaslovResult(float(incs.sum()), incs, steps[1], 0, path.n_samples)


def maslov_index(path: SampledPath) -> MaslovResult:
    """Winding of arg det of the unitary polar factor along X: on a path in
    U(n), n <= 2, the sum of its step eigenphases, unrefined; on any other
    path the steps of arg det of its unitary polar factor, lifted by
    :func:`_lift`."""
    return _winding(path, unitary_step_phases(path))


def _rho_lift(path: SampledPath) -> MaslovResult:
    """Lift of the rotation function rho along X over every stored sample,
    refined by :func:`_lift`.  rho(A) is (-1)^(m0 / 2), m0 the number of
    negative real eigenvalues, times the product of the elliptic eigenvalues
    lambda / |lambda| of positive Krein form -i v^H J v (McDuff-Salamon,
    *Introduction to Symplectic Topology*, Theorem 2.2.12).  Each counts by
    its diagonal entry in the matrix sign of the form's Gram matrix on the
    elliptic eigenvectors: its own sign where it is simple, and a coinciding
    pair of opposite signs, or a loxodromic pair within ELLIPTIC_TOL of the
    circle, counts once.  A symplectic conjugation keeps the signs but can
    shrink the forms, so no bound on a form's size enters.  rho(A^k) =
    rho(A)^k and rho = det u on U(n), and a homogeneous quasimorphism on the
    universal cover of Sp(2n, R) is unique up to scale (Barge-Ghys, Math.
    Ann. 294, 1992), so the lift is lim maslov(X^k) / k.  Both results are
    recalled, not checked against the text.
    """
    def rho(p: SampledPath) -> np.ndarray:
        lams, vecs = np.linalg.eig(p.matrices)  # one batched call
        real = np.abs(lams.imag) <= REAL_TOL * np.abs(lams)
        elliptic = (np.abs(np.abs(lams) - 1.0) <= ELLIPTIC_TOL) & ~real
        a, b = np.split(vecs * elliptic[..., None, :], 2, axis=-2)
        ah, bh = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
        w, u = np.linalg.eigh(-1j * (bh @ a - ah @ b))  # -i v_j^H J v_k, J = [[0, -I], [I, 0]]
        sign = np.einsum("...jk,...k->...j", np.abs(u) ** 2, np.sign(w))
        # conjugate elliptic phases carry opposite signs: half the sum counts each pair once
        phase = np.sum(np.angle(lams) * elliptic * sign, axis=-1) / 2
        half_turns = np.count_nonzero(real & (lams.real < 0.0), axis=-1) // 2
        return np.exp(1j * (phase + np.pi * half_turns))

    return _lift(path, lambda p: _phase_steps(rho(p)))


def maslov_via_trace(path: SampledPath) -> float:
    """Independent winding route for unitary paths: integrate tr h(t).

    For a path in the unitary subgroup the complex generator satisfies
    ``du/dt u^{-1} = i h`` with h Hermitian, and the winding equals the time
    integral of ``tr h``.  In the real picture ``tr h = tr H / 2``.  Uses
    finite-difference extraction plus trapezoid quadrature, so it converges
    at second order and shares no code path with :func:`maslov_index`.
    """
    if not is_unitary(path):
        raise InputError("trace route requires a unitary path "
                         "(samples must commute with J)")
    traces = 0.5 * np.trace(extract_hamiltonian(path), axis1=-2, axis2=-1)
    return float(np.trapezoid(traces, path.times))


def homogenize(path: SampledPath, k_max: int) -> np.ndarray:
    """Sequence maslov(X^k)/k for k = 1..k_max, which tends to the
    homogenized winding that :func:`symporder.growth.mu_tilde` reads exactly.

    On a path in U(n) (:func:`symporder.paths.is_unitary`), det(X^k) =
    det(X)^k, so every entry is maslov(X).  Any other path winds each power
    path X^k, lifted by :func:`_lift` on the grid of X, whose local
    generators resolve where those of X^k may not.  A step of X^k is read
    modulo 2 pi, so such a value misses by whole turns, with no error, where
    X^k turns by more than pi per step while X turns little (ROADMAP item 4).
    """
    if integer(k_max, "k_max") < 1:
        raise InputError("k_max must be at least 1")
    if is_unitary(path):
        return np.full(k_max, maslov_index(path).value)
    return np.array([
        _lift(path, lambda p: _phase_steps(
            _unitary_factor_phase(pointwise_power(p, k).matrices))).value / k
        for k in range(1, k_max + 1)])


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

    A deficit of ``QUANTA_LIMIT`` = 2^27 quanta or more (targets from about
    8.4e8), where no target can be told congruent or not, raises
    :class:`ComputationError`.  Below it exp(iA) drifts by about one ulp of
    the eigenvalues: on a 2 x 2 input 2e-11 at a target of 6e4, 1e-7 at 8e8.
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
    if not k_float < QUANTA_LIMIT:
        raise ComputationError(
            f"target {target_mu:.6g} is {k_float:.6g} quanta of 2*pi above the spectrum, at or "
            f"beyond the limit 2^{np.log2(QUANTA_LIMIT):.0f} of the congruence tolerance")
    k = int(round(k_float))
    if abs(k_float - k) * two_pi > CONGRUENCE_TOL:
        raise InputError(
            "target trace is not congruent to the input spectrum modulo 2*pi")
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
