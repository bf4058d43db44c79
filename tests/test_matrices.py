import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import matrices
from symporder.errors import ComputationError, InputError


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def test_standard_j_squares_to_minus_identity():
    for n in (1, 2, 3):
        j = matrices.standard_j(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))


def test_standard_j_is_symplectic():
    assert float(matrices.symplectic_defect(matrices.standard_j(3))) == 0.0


def test_symplectic_defect_flags_non_symplectic():
    assert float(matrices.symplectic_defect(2.0 * np.eye(2))) > 1.0
    assert float(matrices.symplectic_defect(np.eye(4))) == 0.0
    assert float(matrices.symplectic_defect(np.eye(4) + 1e-6)) > matrices.DEFAULT_TOL


def test_symplectic_defect_batched():
    stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
    defects = matrices.symplectic_defect(stack)
    assert defects.shape == (2,)
    assert defects[0] == 0.0 and defects[1] == 3.0


@settings(deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 3))
def test_complex_real_bridge_is_a_homomorphism(seed_a, seed_b, n):
    u = random_unitary(n, seed_a)
    v = random_unitary(n, seed_b)
    lhs = matrices.complex_to_real(u @ v)
    rhs = matrices.complex_to_real(u) @ matrices.complex_to_real(v)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_complex_to_real_lands_in_unitary_subgroup():
    u = random_unitary(3, 5)
    m = matrices.complex_to_real(u)
    assert float(matrices.symplectic_defect(m)) <= matrices.DEFAULT_TOL
    assert matrices.commutes_with_j(m)
    assert np.abs(m @ m.T - np.eye(6)).max() < 1e-12


def test_real_to_complex_round_trip():
    u = random_unitary(2, 11)
    assert np.abs(matrices.real_to_complex(matrices.complex_to_real(u)) - u).max() < 1e-14


def test_real_to_complex_rejects_non_commuting():
    with pytest.raises(InputError):
        matrices.real_to_complex(np.diag([2.0, 1.0, 0.5, 1.0]))


def test_unitary_polar_factor_of_positive_stretch():
    m = np.diag([3.0, 1.0 / 3.0])
    u = matrices.unitary_polar_factor(m)
    assert np.abs(u - np.eye(2)).max() < 1e-14


def test_exp_i_hermitian_matches_scipy_route():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = z + z.conj().T
    direct = matrices.exp_i_hermitian(a)
    w, v = np.linalg.eigh(a)
    spectral = (v * np.exp(1j * w)) @ v.conj().T
    assert np.abs(direct - spectral).max() < 1e-12
    assert np.abs(direct @ direct.conj().T - np.eye(3)).max() < 1e-12
    with pytest.raises(InputError, match="not Hermitian"):
        matrices.exp_i_hermitian(a + 1j * np.eye(3))


def test_symplectic_inverse_agrees_with_inverse():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(4, 4))
    h = 0.4 * (h + h.T)
    m = matrices.matrix_exp(matrices.standard_j(2) @ h)
    assert np.abs(matrices.symplectic_inverse(m) - np.linalg.inv(m)).max() < 1e-10


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, 1.0]), st.booleans())
def test_block_formulas_equal_the_products_by_j(seed, n, size, noise, zeros):
    # the inverse and the commutator test read blocks; the products by J are
    # their reference, on any stack (symplectic or not) of dim 2n
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))
    a = matrices.complex_to_real(z) + noise * rng.normal(size=(size, 2 * n, 2 * n))
    if zeros:
        hit = rng.random(a.shape) < 0.4
        a[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    j = matrices.standard_j(n)
    inverse = matrices.symplectic_inverse(a)
    assert np.array_equal(inverse, -j @ np.swapaxes(a, -1, -2) @ j)
    assert inverse.tobytes() == (-j @ np.swapaxes(a, -1, -2) @ j).tobytes()
    assert matrices.commutes_with_j(a) == bool(np.all(np.abs(a @ j - j @ a) <= 1e-9))


def test_membership_tests_scale_with_the_terms_and_refuse_overflow():
    for p in (1e5, 1e9, 1e12, 1e200):
        assert not matrices.is_symplectic(np.diag([p, 1.0]))
    shears = np.array([[[1.0, s], [0.0, 1.0]] for s in (1e200, 1e300)])
    assert matrices.is_symplectic(shears) and matrices.is_symplectic(np.diag([1e200, 1e-200]))
    assert not matrices.is_symplectic(np.diag([1e200, 1e200]))  # A^T J A - J is inf
    # a gap of 0.5 is rounding beside an entry of 1e9, and none beside 1.0
    assert matrices.is_hermitian(np.array([[1e9, 1.5], [1.0, 0.0]]))
    assert not matrices.is_hermitian(np.array([[1.0, 1.5], [1.0, 0.0]]))
    assert not matrices.is_hermitian(np.array([[0.0, 1.7e308j], [1.7e308j, 0.0]]))


def _one_norms(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _hamiltonian_stack(rng, n, norms):
    """Matrices J H, H symmetric, with the given 1-norms."""
    h = rng.normal(size=(len(norms), 2 * n, 2 * n))
    a = matrices.standard_j(n) @ (h + np.swapaxes(h, -1, -2))
    return a * (np.asarray(norms) / _one_norms(a))[:, None, None]


# relative tolerance of the exponential's identities and closed forms, on
# stacks of 1-norm up to 30; the kernel was measured within 2e-14 on the
# closed forms and 4e-15 on the identities
EXP_RTOL = 1e-13
norm_scales = st.lists(st.sampled_from([0.0, 1e-4, 0.1, 0.5, 1.0, 5.0, 30.0]),
                       min_size=1, max_size=5)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), norm_scales)
def test_matrix_exp_of_planar_blocks_is_the_closed_form(seed, n, scales):
    # a traceless 2x2 block A squares to d I, d = -det A, so exp A = c I + s A
    # with (c, s) = (cosh r, sinh r / r) for d = r^2 >= 0, (cos r, sin r / r)
    # for d = -r^2; blocks in the (q_i, p_i) planes of Sp(2n) do not interact
    rng = np.random.default_rng(seed)
    bound = np.asarray(scales)[:, None] / 3.0
    a, b, c = rng.uniform(-1.0, 1.0, size=(3, len(scales), n)) * bound
    d = a * a + b * c
    r = np.sqrt(np.abs(d))
    co = np.where(d >= 0, np.cosh(r), np.cos(r))
    si = np.where(d >= 0, np.divide(np.sinh(r), r, out=np.ones_like(r), where=r > 0),
                  np.sinc(r / np.pi))
    q, p = np.arange(n), n + np.arange(n)
    gen, want = np.zeros((2, len(scales), 2 * n, 2 * n))
    gen[:, q, q], gen[:, q, p], gen[:, p, q], gen[:, p, p] = a, b, c, -a
    want[:, q, q], want[:, q, p] = co + si * a, si * b
    want[:, p, q], want[:, p, p] = si * c, co - si * a
    got = matrices.matrix_exp(gen)
    assert np.all(_one_norms(got - want) <= EXP_RTOL * _one_norms(want))


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), norm_scales)
def test_matrix_exp_of_hamiltonian_stacks_is_symplectic_and_inverts(seed, n, scales):
    a = _hamiltonian_stack(np.random.default_rng(seed), n, scales)
    e, f = matrices.matrix_exp(a), matrices.matrix_exp(-a)
    j = matrices.standard_j(n)
    size = _one_norms(e)
    assert np.all(_one_norms(e @ f - np.eye(2 * n)) <= EXP_RTOL * size * _one_norms(f))
    assert np.all(_one_norms(np.swapaxes(e, -1, -2) @ j @ e - j) <= EXP_RTOL * size ** 2)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), norm_scales)
def test_matrix_exp_agrees_with_scipy(seed, n, scales):
    linalg = pytest.importorskip("scipy.linalg")
    a = _hamiltonian_stack(np.random.default_rng(seed), n, scales)
    want = linalg.expm(a)
    rtol = np.where(_one_norms(a) <= 1.0, 1e-14, 1e-11)
    assert np.all(_one_norms(matrices.matrix_exp(a) - want) <= rtol * _one_norms(want))


def test_matrix_exp_keeps_the_shape_of_its_input():
    a = _hamiltonian_stack(np.random.default_rng(3), 2, [0.5] * 6)
    stacked = matrices.matrix_exp(a.reshape(2, 3, 4, 4))
    assert stacked.shape == (2, 3, 4, 4)
    assert np.array_equal(stacked.reshape(6, 4, 4), matrices.matrix_exp(a))
    assert np.array_equal(matrices.matrix_exp(a[0]), matrices.matrix_exp(a[:1])[0])
    assert matrices.matrix_exp(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    assert np.array_equal(matrices.matrix_exp(np.zeros((4, 4))), np.eye(4))


def test_matrix_exp_refuses_overflow_without_a_warning():
    finite = np.diag([1.0, -1.0])
    cases = (([[800.0, 0.0], [0.0, -800.0]], "matrix exponential overflows"),
             ([[0.0, 1e300], [1e300, 0.0]], r"\|A\|\^2 is not finite"),
             ([[np.inf, 0.0], [0.0, 0.0]], r"\|A\|\^2 is not finite"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big, match in cases:
            with pytest.raises(ComputationError, match=match):
                matrices.matrix_exp(np.stack([finite, np.array(big)]))
        # a shear of any size has |A|^2 = 0, so it is not scaled: exp A = I + A
        shear = np.array([[0.0, 1e300], [0.0, 0.0]])
        assert np.array_equal(matrices.matrix_exp(shear), np.eye(2) + shear)
