import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import generators as gen
from symporder import growth, maslov, matrices, paths
from symporder.errors import ComputationError, InputError, ResolutionError

TWO_PI = 2.0 * np.pi


def test_rotation_loops_score_exact_windings():
    for k in range(1, 6):
        result = maslov.maslov_index(gen.rotation_loop(k, 1024))
        assert result.value == pytest.approx(TWO_PI * k, abs=1e-8)
        assert result.turns == pytest.approx(k, abs=1e-9)


def test_index_is_antisymmetric_under_inversion():
    path = gen.rotation_loop(3, 513)
    assert maslov.maslov_index(paths.invert(path)).value == pytest.approx(
        -3 * TWO_PI, abs=1e-8)


def test_multi_block_loop_adds_windings():
    loop = gen.unitary_loop([2, -1], n_samples=1024)
    assert maslov.maslov_index(loop).value == pytest.approx(TWO_PI, abs=1e-8)


def test_index_sees_only_the_polar_factor():
    # a gauge by positive stretches leaves arg det of the unitary factor alone
    loop = gen.rotation_loop(1, 513)
    stretch = np.diag([1.7, 1.0 / 1.7])
    mats = np.einsum("ij,tjk,kl->til", stretch, loop.matrices, np.linalg.inv(stretch))
    conjugated = paths.SampledPath(loop.times, mats)
    assert maslov.maslov_index(conjugated).value == pytest.approx(TWO_PI, abs=1e-8)


def test_conjugation_preserves_loop_index_exactly():
    # loops are rigid under conjugation: the index is a homotopy invariant
    rng = np.random.default_rng(17)
    loop = gen.rotation_loop(2, 513)
    h = rng.normal(size=(2, 2))
    g = matrices.matrix_exp(matrices.standard_j(1) @ (0.4 * (h + h.T)))
    mats = np.einsum("ij,tjk,kl->til", g, loop.matrices, np.linalg.inv(g))
    conj = paths.SampledPath(loop.times, mats)
    assert maslov.maslov_index(conj).value == pytest.approx(2 * TWO_PI, abs=1e-7)


def test_conjugation_moves_open_path_index_boundedly():
    # for open paths only quasi-invariance holds: the shift stays bounded
    rng = np.random.default_rng(17)
    path = gen.random_symplectic_path(2, rng, scale=1.2, n_samples=513)
    base = maslov.maslov_index(path).value
    h = rng.normal(size=(2, 2))
    g = matrices.matrix_exp(matrices.standard_j(1) @ (0.4 * (h + h.T)))
    mats = np.einsum("ij,tjk,kl->til", g, path.matrices, np.linalg.inv(g))
    conj = paths.SampledPath(path.times, mats)
    assert abs(maslov.maslov_index(conj).value - base) < TWO_PI


def _spiky_unitary_path(n_samples=65, modes=1):
    # angle velocity peaks at 64*pi, shared by ``modes`` equal planes, putting
    # coarse steps of the determinant at the aliasing boundary while staying
    # smooth enough for the stencils to resolve
    t = gen.uniform_times(n_samples)
    theta = (32.0 * (1.0 - np.cos(2 * np.pi * t)))[:, None]
    return gen.diagonal_unitary_path(np.repeat(theta / modes, modes, axis=1), t)


def test_refinement_resolves_fast_smooth_segments():
    # split over 4 planes, each plane turns by at most pi/4 per step, which
    # the local generators resolve: one level halves the largest step
    # (3.1365 -> 1.73)
    result = maslov.maslov_index(_spiky_unitary_path(modes=4))
    assert result.value == pytest.approx(0.0, abs=1e-9)
    assert len(result.per_step_increments) == 128
    assert (result.refinements, result.n_samples) == (1, 129)
    # a power of the unitary path refines X's grid by X's own steps
    powered = maslov.maslov_index(_spiky_unitary_path(modes=4), -3)
    assert (powered.refinements, powered.n_samples, powered.max_step) == (
        1, 129, result.max_step)
    assert np.array_equal(powered.per_step_increments, -3 * result.per_step_increments)
    # in one plane each step is near pi, where a central difference reads
    # about sin(step) / dt: refinement creeps (3.1365 -> 3.1321) and is refused
    with pytest.raises(ResolutionError, match=r"129 samples .* 3\.1321 rad \(from 3\.1365\)"):
        maslov.maslov_index(_spiky_unitary_path())


def test_refinement_cap_raises(monkeypatch):
    monkeypatch.setattr(maslov, "REFINEMENT_CAP", 80)
    with pytest.raises(ResolutionError):
        maslov.maslov_index(_spiky_unitary_path())


def test_a_refinement_that_does_not_shrink_the_step_raises():
    # 8 (pi +- 0.005) over 8 steps: the largest step creeps 3.1366 -> 3.1341
    # on refining; unrefused, pi + 0.005 wound -25.09 where the path winds
    # +25.17
    for angle in (8 * (np.pi + 0.005), 8 * (np.pi - 0.005)):
        with pytest.raises(ResolutionError, match=r"17 samples .* 3\.1341 rad \(from 3\.1366\)"):
            maslov.maslov_index(gen.rotation_path(angle, 9))


def test_genuinely_undersampled_loop_raises_instead_of_guessing():
    # 8 turns over 16 steps aliases: each sample step is a half turn, and no
    # interpolation can recover the lost winding; an error is the only honest
    # answer
    with pytest.raises(ResolutionError):
        maslov.maslov_index(gen.rotation_loop(8, 17))


def _unitary_path(family: str, n: int, n_samples: int, rng) -> paths.SampledPath:
    if family == "loop":
        return gen.unitary_loop(rng.integers(-2, 3, size=n), gen.random_unitary_matrix(n, rng),
                                n_samples)
    if family == "pair":
        return gen.commuting_unitary_pair(n, rng, n_samples)[int(rng.integers(2))]
    t = gen.uniform_times(n_samples)
    angles = (np.outer(t, rng.uniform(-6.0, 6.0, size=n))
              + np.outer(np.sin(2 * np.pi * t), rng.uniform(-1.0, 1.0, size=n)))
    return gen.diagonal_unitary_path(angles, t)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["loop", "pair", "diagonal"]),
       st.integers(1, 4), st.sampled_from([129, 257, 1025]),
       st.integers(1, 64), st.booleans())
def test_windings_of_powers_of_unitary_paths_are_multiples(seed, family, n, n_samples, k,
                                                           negative):
    # det is a homomorphism on the universal cover of U(n), so the winding of
    # X^k is k times X's, read from X's own samples
    k = -k if negative else k
    x = _unitary_path(family, n, n_samples, np.random.default_rng(seed))
    base, power = maslov.maslov_index(x), maslov.maslov_index(x, k)
    assert abs(power.value - k * base.value) <= 1e-12 * abs(k)
    assert float(power.per_step_increments.sum()) == power.value
    assert (power.max_step, power.refinements, power.n_samples) == (
        base.max_step, base.refinements, base.n_samples)
    assert growth.mu_tilde(x) == base.value
    zero = maslov.maslov_index(x, 0).value
    assert zero == 0.0 and np.copysign(1.0, zero) == 1.0
    # the power path X^k aliases only where k times X's largest step reaches
    # the guard; below it, the two routes read the same winding
    if abs(k) * base.max_step < np.pi - maslov.STEP_GUARD:
        formed = maslov.maslov_index(paths.pointwise_power(x, k))
        assert formed.refinements == 0
        assert abs(formed.value - power.value) <= 1e-9


def test_a_power_of_a_unitary_path_beyond_2_to_the_53_raises():
    loop = gen.rotation_loop(1, 65)
    assert maslov.maslov_index(loop, -maslov.EXACT_POWER).value == pytest.approx(
        -maslov.EXACT_POWER * TWO_PI, rel=1e-12)
    for k in (maslov.EXACT_POWER + 1, -10**400):
        with pytest.raises(ComputationError, match=r"beyond 2\^53"):
            maslov.maslov_index(loop, k)


def test_powers_of_a_non_unitary_path_wind_the_power_path():
    x = gen.random_symplectic_path(4, np.random.default_rng(5), n_samples=257)
    for k in (-2, 3):
        direct, formed = maslov.maslov_index(x, k), maslov.maslov_index(paths.pointwise_power(x, k))
        assert direct.value == formed.value and direct.max_step == formed.max_step
        assert np.array_equal(direct.per_step_increments, formed.per_step_increments)


def test_trace_route_matches_index_route():
    rng = np.random.default_rng(23)
    for n in (1, 2):
        path = gen.random_unitary_path(n, rng, n_samples=1024)
        diff = abs(maslov.maslov_index(path).value - maslov.maslov_via_trace(path))
        assert diff < 1e-5


def test_trace_route_rejects_non_unitary_paths():
    rng = np.random.default_rng(31)
    path = gen.random_symplectic_path(2, rng, scale=1.0, n_samples=65)
    with pytest.raises(InputError):
        maslov.maslov_via_trace(path)


def test_homogenize_is_exact_on_loops():
    seq = maslov.homogenize(gen.rotation_loop(1, 513), 4)
    assert np.abs(seq - TWO_PI).max() < 1e-7


# Krein collisions of exp(t J H) in Sp(4): the symmetric C of norm 1 couples
# the two planes of H0 = diag(a, -b, a, -b)
KREIN_COUPLING = np.random.default_rng(17).normal(size=(4, 4))
KREIN_COUPLING = (KREIN_COUPLING + KREIN_COUPLING.T) / np.linalg.norm(
    KREIN_COUPLING + KREIN_COUPLING.T, 2)
J4 = matrices.standard_j(2)


def _hamiltonian_flow(t: np.ndarray, hams: np.ndarray) -> paths.SampledPath:
    """Samples exp(t_k J H_k) of a stack of symmetric H_k."""
    return paths.SampledPath(t, matrices.matrix_exp(t[:, None, None] * (J4 @ hams)))


def _random_conjugation(path: paths.SampledPath) -> paths.SampledPath:
    s = np.random.default_rng(5).normal(size=(4, 4))
    p = matrices.matrix_exp(0.3 * J4 @ (s + s.T))
    return paths.SampledPath(path.times, p @ path.matrices @ np.linalg.inv(p))


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, 2.0])
def test_rho_lift_through_an_opposite_sign_krein_crossing_is_the_signed_frequency_sum(eps):
    # the frequencies 40 and -30 pass each other on the circle at t = pi / 5;
    # rho follows the Krein-positive eigenvalues exp(i omega t) of J H, so the
    # lift is the sum of their omega, 10 at eps = 0
    h = np.diag([40.0, -30.0, 40.0, -30.0]) + eps * KREIN_COUPLING
    lams, vecs = np.linalg.eig(J4 @ h)
    assert np.abs(lams.real).max() < 1e-9  # J H stays elliptic
    positive = np.einsum("ij,ij->j", vecs.conj(), J4 @ vecs).imag > 0.0
    want = float(lams.imag[positive].sum())
    assert eps > 0.0 or want == pytest.approx(10.0, abs=1e-12)
    path = _hamiltonian_flow(np.linspace(0.0, 1.0, 257), np.broadcast_to(h, (257, 4, 4)))
    for sampled in (path, _random_conjugation(path)):
        assert maslov._rho_lift(sampled).value == pytest.approx(want, rel=1e-9)


def _loxodromic_onset(h0: np.ndarray) -> float:
    """Least coupling r at which J (h0 + r C) leaves the elliptic matrices."""
    def elliptic(r):
        return np.abs(np.linalg.eigvals(J4 @ (h0 + r * KREIN_COUPLING)).real).max() < 1e-9

    lo, hi = 0.0, 1.0
    while elliptic(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if elliptic((lo + hi) / 2) else (lo, (lo + hi) / 2)
    return hi


@pytest.mark.parametrize("omega, delta", [(20.0, 0.5), (3.0, 0.2), (1.0, 0.05)])
@pytest.mark.parametrize("n_samples", [257, 2049])
def test_rho_lift_of_an_excursion_off_the_circle_is_2_delta(omega, delta, n_samples):
    # X(t) = exp(t J (H0 + r(t) C)), r(t) = 3 r_c sin(pi t): the samples of
    # the middle of the path are loxodromic, where no eigenvalue counts, and
    # X(1) = exp(J H0) has the Krein-positive eigenvalues exp(i (omega +
    # delta)) and exp(-i (omega - delta)); the power path X^32 aliases here
    h0 = np.diag([omega + delta, delta - omega, omega + delta, delta - omega])
    t = np.linspace(0.0, 1.0, n_samples)
    r = 3.0 * _loxodromic_onset(h0) * np.sin(np.pi * t)
    path = _hamiltonian_flow(t, h0 + r[:, None, None] * KREIN_COUPLING)
    moduli = np.abs(np.linalg.eigvals(path.matrices))
    assert np.count_nonzero(np.abs(moduli - 1.0).max(axis=-1) > 1e-6) > n_samples // 2
    for sampled in (path, _random_conjugation(path)):
        assert maslov._rho_lift(sampled).value == pytest.approx(2.0 * delta, rel=1e-10)


@pytest.mark.parametrize("frequencies", [[20.0], [20.0, 3.0]])
def test_mu_tilde_of_a_rotation_conjugated_by_a_large_diagonal_stretch_is_its_winding(
        frequencies):
    # P = diag(c, 1, .., 1 / c, 1, ..) with c^2 = 1e7 shrinks the Krein form
    # of the first plane's eigenvectors to about 2 / c^2 while the path stays
    # dominant; rho keeps both planes, so mu_tilde is the sum of frequencies
    t = gen.uniform_times(513)
    x = gen.diagonal_unitary_path(np.outer(t, frequencies), t)
    stretch = np.ones(x.dim)
    stretch[0], stretch[x.half_dim] = np.sqrt(1e7), 1.0 / np.sqrt(1e7)
    conjugated = paths.SampledPath(t, stretch[:, None] * x.matrices / stretch)
    assert paths.min_generator_eigenvalue(conjugated) > paths.CONE_TOL
    assert growth.mu_tilde(conjugated) == pytest.approx(sum(frequencies), rel=1e-10)
    assert growth.mu_tilde(x) == pytest.approx(sum(frequencies), rel=1e-12)


def test_rho_lift_through_a_negative_real_collision_is_2_pi():
    # X turns by pi in both planes to -I at t = 1/2, where rho = exp(2 i pi t)
    # has lifted 2 pi, then X(t) = -exp(s diag(A, -A^T)), s = 2t - 1 and A =
    # [[3, -phi], [phi, 3]]: two negative hyperbolic pairs meet at phi = 0 and
    # leave the real axis as the quadruple -exp(s (+-3 +- i phi)), so rho
    # stays 1; lambda and 1 / lambda of that quadruple are real or not together
    # although their |Im| differ by e^(6s)
    t = gen.uniform_times(257)
    first = t <= 0.5
    turn = gen.diagonal_unitary_path(np.outer(np.minimum(2.0 * np.pi * t, np.pi), [1.0, 1.0]), t)
    s, phi = 2.0 * t - 1.0, 1e-5 * (t - 0.75)
    gens = np.zeros((len(t), 4, 4))
    gens[:, 0, 0] = gens[:, 1, 1] = 3.0 * s
    gens[:, 1, 0], gens[:, 0, 1] = s * phi, -s * phi
    gens[:, 2:, 2:] = -gens[:, :2, :2].swapaxes(1, 2)
    mats = np.where(first[:, None, None], turn.matrices, -matrices.matrix_exp(gens))
    assert maslov._rho_lift(paths.SampledPath(t, mats)).value == pytest.approx(TWO_PI, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_rho_lift_of_a_conjugated_opposite_sign_double_eigenvalue_is_zero(seed):
    # the frequencies 7 and -7 share exp(7 i t) at every sample, with Krein
    # forms of both signs on its eigenspace; after a conjugation the
    # eigenvectors eig returns are arbitrary in that plane, and the sign of
    # each one's own form (at these seeds) would lift -17.4, -6.28, 1.43 or 18.8
    t = gen.uniform_times(257)
    x = gen.diagonal_unitary_path(np.outer(t, [7.0, -7.0]), t)
    s = np.random.default_rng(seed).normal(size=(4, 4))
    p = matrices.matrix_exp(0.3 * J4 @ (s + s.T))
    conjugated = paths.SampledPath(t, p @ x.matrices @ np.linalg.inv(p))
    assert abs(maslov._rho_lift(conjugated).value) <= 1e-12


def test_quasimorphism_defect_reproducible():
    a = maslov.quasimorphism_defect_sample(6, 2, seed=42)
    b = maslov.quasimorphism_defect_sample(6, 2, seed=42)
    assert a == b
    assert maslov.defect_constant(2, num_pairs=6, seed=42) == 2.0 * a


# ---------------------------------------------------------------- spectra


def test_redistribute_known_two_level_case():
    out = maslov.redistribute_eigenvalues(np.diag([5 * np.pi, -np.pi]), 4 * np.pi)
    assert sorted(out.eigenvalues) == pytest.approx([np.pi, 3 * np.pi], abs=1e-12)


def test_redistribute_zero_matrix():
    out = maslov.redistribute_eigenvalues(np.zeros((2, 2)), 8 * np.pi)
    assert out.eigenvalues == pytest.approx([4 * np.pi, 4 * np.pi], abs=1e-12)


def test_redistribute_preserves_endpoint():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = z + z.conj().T
    w = np.linalg.eigvalsh(a)
    reduced = np.mod(w, TWO_PI)
    reduced[reduced <= 1e-12] += TWO_PI
    target = float(reduced.sum()) + 3 * TWO_PI
    out = maslov.redistribute_eigenvalues(a, target)
    assert float(out.eigenvalues.sum()) == pytest.approx(target, abs=1e-9)
    assert out.eigenvalues.min() > 0.0
    assert out.eigenvalues.max() - out.eigenvalues.min() <= TWO_PI * 3 + 1e-9
    err = np.abs(maslov.unitary_endpoint(out) - matrices.exp_i_hermitian(a)).max()
    assert err < 1e-8


def test_redistribute_to_a_far_target_keeps_the_endpoint():
    # the reassembled matrix has entries near 3e8 and is Hermitian only up to
    # rounding of that size, above an absolute gate of 1e-9
    a = np.array([[5.0, 0.3 + 0.2j], [0.3 - 0.2j, -1.0]])
    target = float(np.mod(np.linalg.eigvalsh(a), TWO_PI).sum()) + 10 ** 8 * TWO_PI
    out = maslov.redistribute_eigenvalues(a, target)
    err = np.abs(maslov.unitary_endpoint(out) - matrices.exp_i_hermitian(a)).max()
    assert err < 1e-6


def test_redistribute_refuses_a_deficit_of_2_to_the_27_quanta_or_more():
    # one ulp of a deficit of 2^27 quanta, read in radians, is 1.9e-7, above
    # CONGRUENCE_TOL; at 1e17 the answer would miss exp(iA) by 1.7
    a = np.array([[5.0, 0.3 + 0.2j], [0.3 - 0.2j, -1.0]])
    base = float(np.mod(np.linalg.eigvalsh(a), TWO_PI).sum())
    below = maslov.redistribute_eigenvalues(a, base + (2 ** 27 - 1) * TWO_PI)
    assert below.eigenvalues.min() > 0.0
    for target in (base + 2 ** 27 * TWO_PI, 1e16, 1e17, np.inf):
        with pytest.raises(ComputationError, match=r"limit 2\^27"):
            maslov.redistribute_eigenvalues(a, target)


def test_redistribute_rejects_low_target():
    with pytest.raises(InputError):
        maslov.redistribute_eigenvalues(np.zeros((2, 2)), np.pi)


def test_redistribute_rejects_incompatible_target():
    # target must differ from the reduced trace by a multiple of 2*pi
    with pytest.raises(InputError):
        maslov.redistribute_eigenvalues(np.diag([1.0, 2.0]), 20.0)


# ---------------------------------------------------------------- synthesis


def test_positive_path_reaches_diagonal_target():
    target = np.diag([3.0, 0.25, 1.0 / 3.0, 4.0])
    path = maslov.positive_path_to(target, n_samples=257)
    assert np.abs(path.endpoint - target).max() < 1e-8
    assert np.linalg.eigvalsh(paths.extract_hamiltonian(path)).min() > 1.0
    assert maslov.maslov_index(path).value <= 4 * TWO_PI + 1e-6


def test_positive_path_to_identity():
    path = maslov.positive_path_to(np.eye(2), n_samples=257)
    assert np.abs(path.endpoint - np.eye(2)).max() < 1e-10
    assert maslov.maslov_index(path).value == pytest.approx(2 * TWO_PI, abs=1e-8)


def test_positive_path_handles_clustered_eigenvalues():
    target = np.diag([1.0 + 3e-9, 1.0, 1.0 / (1.0 + 3e-9), 1.0])
    path = maslov.positive_path_to(target, n_samples=257)
    assert np.abs(path.endpoint - target).max() < 1e-7


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), data=st.data(),
       spread=st.sampled_from([0.0, 5e-9]))
def test_positive_path_to_unitarily_conjugated_eigenvalue_one_clusters(seed, n, data, spread):
    # q diag(lams, 1/lams) q^T with q = complex_to_real(unitary) and some lams
    # within the 1e-8 cluster threshold of 1: the J-invariant eigenvalue-1
    # space carries no preferred real basis, and a greedy plane-by-plane
    # split of it lost orthogonality
    rng = np.random.default_rng(seed)
    ones = data.draw(st.integers(1, n))
    lams = np.concatenate([rng.uniform(1.2, 3.0, n - ones),
                           1.0 + spread * rng.uniform(0.0, 1.0, ones)])
    q = matrices.complex_to_real(gen.random_unitary_matrix(n, rng))
    target = q @ np.diag(np.concatenate([lams, 1.0 / lams])) @ q.T
    target = 0.5 * (target + target.T)
    path = maslov.positive_path_to(target, n_samples=129)
    assert np.abs(path.endpoint - target).max() <= 2 * spread + 1e-13
    assert np.linalg.eigvalsh(paths.extract_hamiltonian(path)).min() > 1.0


def test_positive_path_general_spd_symplectic():
    # conjugate a diagonal target by a rotation to leave the diagonal case
    c, s = np.cos(0.7), np.sin(0.7)
    r = np.array([[c, -s], [s, c]])
    p = r @ np.diag([2.0, 0.5]) @ r.T
    path = maslov.positive_path_to(p, n_samples=257)
    assert np.abs(path.endpoint - p).max() < 1e-8
    assert np.linalg.eigvalsh(paths.extract_hamiltonian(path)).min() > 1.0


def test_positive_path_rejects_non_spd():
    with pytest.raises(InputError):
        maslov.positive_path_to(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_positive_path_rejects_non_symplectic_endpoint():
    # the eigenvalues pair as (l, 1/l), but across the wrong coordinate planes
    with pytest.raises(InputError, match="not symplectic"):
        maslov.positive_path_to(np.diag([2.0, 0.5, 3.0, 1 / 3]))
