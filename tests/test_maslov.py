import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import generators as gen
from symporder import maslov, matrices, paths
from symporder.errors import InputError, ResolutionError

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


def _spiky_unitary_path(n_samples=65):
    # angle velocity peaks at 64*pi, putting coarse steps at the aliasing
    # boundary while staying smooth enough for the stencils to resolve
    t = gen.uniform_times(n_samples)
    theta = (32.0 * (1.0 - np.cos(2 * np.pi * t)))[:, None]
    return gen.diagonal_unitary_path(theta, t)


def test_refinement_resolves_fast_smooth_segments():
    result = maslov.maslov_index(_spiky_unitary_path())
    assert result.value == pytest.approx(0.0, abs=1e-9)
    assert len(result.per_step_increments) > 64


def test_refinement_cap_raises():
    with pytest.raises(ResolutionError):
        maslov.maslov_index(_spiky_unitary_path(), max_samples=80)


def test_genuinely_undersampled_loop_raises_instead_of_guessing():
    # 8 turns over 16 steps aliases: each sample step is a half turn, and no
    # interpolation can recover the lost winding; an error is the only honest
    # answer
    with pytest.raises(ResolutionError):
        maslov.maslov_index(gen.rotation_loop(8, 17))


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
    track = paths.extract_hamiltonian(path)
    assert np.linalg.eigvalsh(track.hams).min() > 1.0
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
    assert np.linalg.eigvalsh(paths.extract_hamiltonian(path).hams).min() > 1.0


def test_positive_path_general_spd_symplectic():
    # conjugate a diagonal target by a rotation to leave the diagonal case
    c, s = np.cos(0.7), np.sin(0.7)
    r = np.array([[c, -s], [s, c]])
    p = r @ np.diag([2.0, 0.5]) @ r.T
    path = maslov.positive_path_to(p, n_samples=257)
    assert np.abs(path.endpoint - p).max() < 1e-8
    assert np.linalg.eigvalsh(paths.extract_hamiltonian(path).hams).min() > 1.0


def test_positive_path_rejects_non_spd():
    with pytest.raises(InputError):
        maslov.positive_path_to(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_positive_path_rejects_non_symplectic_endpoint():
    # the eigenvalues pair as (l, 1/l), but across the wrong coordinate planes
    with pytest.raises(InputError, match="not symplectic"):
        maslov.positive_path_to(np.diag([2.0, 0.5, 3.0, 1 / 3]))
