"""Hypothesis properties of the group law on sampled Sp(2n) paths.

Random paths come from the smooth random-Hamiltonian ensemble, keyed by a
drawn seed.  ``np.linalg.inv`` serves as the independent reference for the
inverse samples that the package forms as -J X^T J, and the SVD polar factor
``unitary_polar_factor`` for the closed-form winding phase.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import generators as gen
from symporder import growth, maslov, matrices, paths

SAMPLES = 257
# relative error of finite-difference generators at 257 samples: order-2
# stencils carry O(dt^2) error (measured <= 1.4e-4), order-4 ones O(dt^4)
# (measured <= 3.3e-7 on the power chains below)
FD_TOL = {2: 1e-3, 4: 1e-5}

seeds = st.integers(0, 2 ** 32 - 1)
dims = st.sampled_from([2, 4])
orders = st.sampled_from([2, 4])


def _random_path(seed: int, dim: int, stream: int) -> paths.SampledPath:
    rng = np.random.default_rng([seed, stream])
    return gen.random_symplectic_path(dim, rng, scale=1.0, n_samples=SAMPLES)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))


@settings(deadline=None, max_examples=15)
@given(seeds, dims, orders)
def test_product_generator_formula_matches_finite_differences(seed, dim, order):
    x, y = _random_path(seed, dim, 0), _random_path(seed, dim, 1)
    hx = paths.extract_hamiltonian(x, order).hams
    hy = paths.extract_hamiltonian(y, order).hams
    xinv = np.linalg.inv(x.matrices)
    predicted = hx + np.swapaxes(xinv, -1, -2) @ hy @ xinv
    measured = paths.extract_hamiltonian(paths.compose(x, y), order).hams
    assert _rel_err(predicted, measured) < FD_TOL[order]


@settings(deadline=None, max_examples=15)
@given(seeds, dims, orders)
def test_inverse_generator_formula_matches_finite_differences(seed, dim, order):
    y = _random_path(seed, dim, 0)
    hy = paths.extract_hamiltonian(y, order).hams
    predicted = -np.swapaxes(y.matrices, -1, -2) @ hy @ y.matrices
    inverse = paths.invert(y)
    assert _rel_err(inverse.matrices, np.linalg.inv(y.matrices)) < 1e-12
    measured = paths.extract_hamiltonian(inverse, order).hams
    assert _rel_err(predicted, measured) < FD_TOL[order]


@settings(deadline=None, max_examples=10)
@given(seeds, dims, st.integers(1, 8))
def test_mu_tilde_is_the_last_homogenized_winding_bitwise(seed, dim, k):
    x = _random_path(seed, dim, 0)
    assert growth.mu_tilde(x, k).value == maslov.homogenize(x, k)[-1]


@settings(deadline=None, max_examples=20)
@given(seeds, dims, st.integers(-3, 3), st.integers(0, 3))
def test_atom_chain_gives_the_generator_of_the_formed_path(seed, dim, p, n):
    x, y = _random_path(seed, dim, 0), _random_path(seed, dim, 1)
    chain = (growth._signed_power(growth._atoms(x), p)
             @ growth._signed_power(growth._atoms(y), -n))
    formed = paths.compose(paths.pointwise_power(x, p), paths.pointwise_power(y, -n))
    assert _rel_err(chain.inv, np.linalg.inv(formed.matrices)) < 1e-9
    measured = paths.extract_hamiltonian(formed, order=4).hams
    assert _rel_err(chain.hams, measured) < FD_TOL[4]


@settings(deadline=None, max_examples=20)
@given(seeds, st.sampled_from([1, 2, 4]), st.integers(1, 8))
def test_closed_form_phase_matches_the_polar_factor(seed, n, k):
    x = paths.pointwise_power(_random_path(seed, 2 * n, 0), k).matrices
    closed = maslov._det_of_unitary_factor(x)
    polar = np.linalg.det(matrices.real_to_complex(matrices.unitary_polar_factor(x)))
    assert np.abs(np.angle(closed * np.conj(polar))).max() <= 1e-12
    # |det_C| of 2 C_X is at least 2^n, so the phase is never ill-defined
    assert np.abs(closed).min() >= 2.0 ** n * (1.0 - 1e-12)
