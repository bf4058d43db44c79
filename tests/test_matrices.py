import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import matrices
from symporder.errors import InputError


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
        matrices.real_to_complex(np.diag([2.0, 1.0, 0.5, 1.0]), tol=1e-9)


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
