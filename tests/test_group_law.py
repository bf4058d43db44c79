"""Hypothesis properties of the group law on sampled Sp(2n) paths.

Random paths come from the smooth random-Hamiltonian ensemble, keyed by a
drawn seed.  ``np.linalg.inv`` serves as the independent reference for the
inverse samples that the package forms as -J X^T J, and the SVD polar factor
``unitary_polar_factor`` for the closed-form winding phase.  The growth entry
points, which compute each path's invariants once per call, are compared bit
for bit with the separate closed forms and staircase rungs they stand for,
and the path integrators, which call their closure once on the whole time
grid, with the per-step integration they replaced.  Cone verdicts, which the
package takes from one batched Cholesky factorization, are checked against
``eigvalsh``, and the staircase against the least power of two references:
an ``eigvalsh`` bisection of the canonical certificate and a full scan of
the endpoint certificate from ``eigvals`` of complex endpoint powers.
Certified order verdicts are reflexive and transitive on commuting diagonal
unitary paths whose angle speeds are ordered pointwise.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symporder import generators as gen
from symporder import growth, maslov, matrices, paths
from symporder.errors import ComputationError, InputError

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
    hx = paths.extract_hamiltonian(x, order)
    hy = paths.extract_hamiltonian(y, order)
    xinv = np.linalg.inv(x.matrices)
    predicted = hx + np.swapaxes(xinv, -1, -2) @ hy @ xinv
    measured = paths.extract_hamiltonian(paths.compose(x, y), order)
    assert _rel_err(predicted, measured) < FD_TOL[order]


@settings(deadline=None, max_examples=15)
@given(seeds, dims, orders)
def test_inverse_generator_formula_matches_finite_differences(seed, dim, order):
    y = _random_path(seed, dim, 0)
    hy = paths.extract_hamiltonian(y, order)
    predicted = -np.swapaxes(y.matrices, -1, -2) @ hy @ y.matrices
    inverse = paths.invert(y)
    assert _rel_err(inverse.matrices, np.linalg.inv(y.matrices)) < 1e-12
    measured = paths.extract_hamiltonian(inverse, order)
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
    chain = (growth._signed_powers(growth._atoms(x), (p,))[0]
             @ growth._signed_powers(growth._atoms(y), (-n,))[0])
    formed = paths.compose(paths.pointwise_power(x, p), paths.pointwise_power(y, -n))
    assert _rel_err(chain.inv, np.linalg.inv(formed.matrices)) < 1e-9
    measured = paths.extract_hamiltonian(formed, order=4)
    assert _rel_err(chain.hams, measured) < FD_TOL[4]


def _power_by_squaring(base, k: int):
    """base^k for one k >= 1: the repeated squaring each power of a shared
    pass of ``paths.binary_powers`` must reproduce bit for bit."""
    result = None
    sq = base
    while k:
        if k & 1:
            result = sq if result is None else result @ sq
        k >>= 1
        if k:
            sq = sq @ sq
    return result


def _bytes(value) -> bytes:
    if isinstance(value, growth._PowerAtom):
        return value.inv.tobytes() + value.hams.tobytes()
    return value.tobytes()


@settings(deadline=None, max_examples=25)
@given(seeds, dims, st.lists(st.integers(1, 70), min_size=1, max_size=4),
       st.integers(-3, 3), st.integers(0, 3))
def test_one_squaring_pass_gives_every_power_bitwise(seed, dim, ks, p, n):
    ks = (1, *ks, ks[0])  # k = 1 and a duplicate in every draw
    x, y = _random_path(seed, dim, 0), _random_path(seed, dim, 1)
    for base in (x.matrices, growth._atoms(x)[1]):
        powers = paths.binary_powers(base, ks)
        assert len(powers) == len(ks)
        for k, power in zip(ks, powers):
            assert _bytes(power) == _bytes(_power_by_squaring(base, k))
    # the probe's track-only conjugation is the track of the full product
    (x_p,) = growth._signed_powers(growth._atoms(x), (p,))
    (y_minus_n,) = growth._signed_powers(growth._atoms(y), (-n,))
    assert (x_p.hams_of_product(y_minus_n).tobytes()
            == (x_p @ y_minus_n).hams.tobytes())


@settings(deadline=None, max_examples=20)
@given(seeds, st.sampled_from([1, 2, 4]), st.integers(1, 8))
def test_closed_form_phase_matches_the_polar_factor(seed, n, k):
    x = paths.pointwise_power(_random_path(seed, 2 * n, 0), k).matrices
    closed = maslov._unitary_factor_phase(x)
    polar = np.linalg.det(matrices.real_to_complex(matrices.unitary_polar_factor(x)))
    assert np.abs(np.angle(closed * np.conj(polar))).max() <= 1e-12
    # |det_C| of 2 C_X = X - J X J is at least 2^n, so the phase is never ill-defined
    j = matrices.standard_j(n)
    two_c = matrices.real_to_complex(x - j @ x @ j)
    assert np.linalg.slogdet(two_c).logabsdet.min() >= n * np.log(2.0) - 1e-12


def _dominant_path(seed: int, dim: int, stream: int, kind: str) -> paths.SampledPath:
    """A dominant unitary path (offset above the mode norms) or a positive path
    to a random positive symplectic endpoint."""
    rng = np.random.default_rng([seed, stream])
    n = dim // 2
    if kind == "unitary":
        offset, modes = rng.uniform(3.5, 5.0), gen._mode_closure(rng, n, 1.0, True)
        return gen.unitary_path_from_generator(
            lambda t: offset * np.eye(n) + modes(t), n, SAMPLES)
    v = matrices.complex_to_real(gen.random_unitary_matrix(n, rng))
    target = v @ gen.random_positive_diagonal_target(n, rng) @ v.T
    return maslov.positive_path_to(0.5 * (target + target.T), SAMPLES)


kinds = st.sampled_from(["unitary", "positive"])
c_emps = st.sampled_from([0.0, 0.25])


@settings(deadline=None, max_examples=15)
@given(seeds, dims, kinds, kinds, c_emps)
def test_pseudo_distance_is_the_max_of_the_two_closed_forms_bitwise(seed, dim, kx, ky, c_emp):
    x, y = _dominant_path(seed, dim, 0, kx), _dominant_path(seed, dim, 1, ky)
    want = growth.max_estimate(
        growth.log_estimate(growth.gamma_closed_symplectic(x, y, c_emp=c_emp)),
        growth.log_estimate(growth.gamma_closed_symplectic(y, x, c_emp=c_emp)))
    assert growth.pseudo_distance_k(x, y, c_emp=c_emp) == want


@settings(deadline=None, max_examples=10)
@given(seeds, dims, kinds, kinds, st.sampled_from([None, 4, 12]))
# at seed 18 the winding of Y^8 refines: the grid of Y is doubled, not the
# under-resolved grid of Y^8
@example(seed=18, dim=4, kx="positive", ky="positive", p_max=None)
def test_growth_estimate_rungs_are_separate_staircase_calls_bitwise(seed, dim, kx, ky, p_max):
    x, y = _dominant_path(seed, dim, 0, kx), _dominant_path(seed, dim, 1, ky)
    ns = (1, 2, 4)
    hint = growth.gamma_closed_symplectic(x, y).value
    bounds = [p_max if p_max is not None else int(np.ceil(abs(hint) * n)) + 8 for n in ns]
    want = tuple(growth.gamma_n_bruteforce(x, y, n, b) for n, b in zip(ns, bounds))
    if want[-1] is None:
        with pytest.raises(ComputationError, match=f"within p_max={bounds[-1]}"):
            growth.growth_estimate(x, y, ns=ns, p_max=p_max)
        return
    est = growth.growth_estimate(x, y, ns=ns, p_max=p_max)
    assert est.gamma_ns == want
    closed = growth.gamma_closed_symplectic(x, y).value if kx == ky == "unitary" else None
    assert est.closed_form == closed


def _message(call) -> str:
    with pytest.raises(InputError) as info:
        call()
    return str(info.value)


@settings(deadline=None, max_examples=10)
@given(seeds, dims, kinds, st.booleans())
def test_non_dominant_paths_raise_the_closed_form_message(seed, dim, kind, swap):
    good = _dominant_path(seed, dim, 0, kind)
    bad = paths.invert(good)
    x, y = (good, bad) if swap else (bad, good)
    want = _message(lambda: growth.gamma_closed_symplectic(x, y))
    assert want.startswith("Y must be dominant" if swap else "X must be dominant")
    assert _message(lambda: growth.pseudo_distance_k(x, y)) == want
    assert _message(lambda: growth.growth_estimate(x, y)) == want


@settings(deadline=None, max_examples=20)
@given(seeds, st.sampled_from([1, 2, 3]), st.data())
def test_winding_is_additive_on_commuting_unitary_loops(seed, n, data):
    basis = gen.random_unitary_matrix(n, np.random.default_rng(seed))
    mults = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    x = gen.unitary_loop(data.draw(mults), basis, SAMPLES)
    y = gen.unitary_loop(data.draw(mults), basis, SAMPLES)
    total = maslov.maslov_index(x).value + maslov.maslov_index(y).value
    assert abs(maslov.maslov_index(paths.compose(x, y)).value - total) <= 1e-9


def _speeds_above(rng: np.random.Generator, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Angles whose speeds exceed those of ``theta`` by e (1 + c cos 2 pi t),
    |c| <= 0.8: by at least 0.02 where e > 0, and not at all where e = 0."""
    n = theta.shape[1]
    e = rng.uniform(0.1, 3.0, size=n) * (rng.random(n) < 0.7)
    c = rng.uniform(-0.8, 0.8, size=n)
    return theta + np.outer(t, e) + np.sin(2 * np.pi * t)[:, None] * (c * e / (2 * np.pi))


@settings(deadline=None, max_examples=25)
@given(seeds, st.sampled_from([1, 2, 3]))
def test_certified_order_is_reflexive_and_transitive(seed, n):
    rng = np.random.default_rng([seed, 3])
    t = gen.uniform_times(SAMPLES)
    w = rng.uniform(2.0, 8.0, size=n)
    d = rng.uniform(-0.8, 0.8, size=n) * w
    low = np.outer(t, w) + np.sin(2 * np.pi * t)[:, None] * (d / (2 * np.pi))
    mid = _speeds_above(rng, t, low)
    a, b, c = (gen.diagonal_unitary_path(theta, t)
               for theta in (low, mid, _speeds_above(rng, t, mid)))
    assert all(paths.order_leq(p, p).certifies for p in (a, b, c))
    assert paths.order_leq(a, b).certifies and paths.order_leq(b, c).certifies
    assert paths.order_leq(a, c).certifies


# The integrators as they were before they evaluated their closure once on the
# whole time grid: one closure call per step, then the product, here one
# single-matrix ``@`` at a time in the order of the doubling levels.  Together
# with the old mode draws they are the reference for bitwise samples.

def _old_hermitian(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (z + z.conj().T)
    return scale * h / max(np.linalg.norm(h, 2), 1e-12)


def _old_symmetric(dim: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    s = 0.5 * (a + a.T)
    return scale * s / max(np.linalg.norm(s, 2), 1e-12)


def _old_modes(draw, dim: int, rng: np.random.Generator, scale: float):
    b0, b1, b2 = (draw(dim, rng, scale) for _ in range(3))
    return lambda t: b0 + np.sin(2 * np.pi * t) * b1 + np.cos(2 * np.pi * t) * b2


def _per_step_unitary(h, n: int, n_samples: int) -> np.ndarray:
    t = gen.uniform_times(n_samples)
    mids = 0.5 * (t[:-1] + t[1:])
    dts = np.diff(t)
    gens = np.stack([dt * h(tm) for dt, tm in zip(dts, mids)])
    steps = matrices.complex_to_real(matrices.exp_i_hermitian(gens))
    return _from_left_blocks(_doubling_reference(steps), n)


def _per_step_symplectic(ham, dim: int, n_samples: int) -> np.ndarray:
    t = gen.uniform_times(n_samples)
    j = matrices.standard_j(dim // 2)
    mids = 0.5 * (t[:-1] + t[1:])
    dts = np.diff(t)
    gens = np.stack([dt * (j @ ham(tm)) for dt, tm in zip(dts, mids)])
    return _doubling_reference(matrices.matrix_exp(gens))


def _doubling_reference(steps: np.ndarray) -> np.ndarray:
    """I, then the partial products of the doubling levels d = 1, 2, 4, ...
    (P_k -> P_k P_{k-d} for k >= d), one single-matrix product at a time."""
    acc = list(steps)
    d = 1
    while d < len(acc):
        acc = acc[:d] + [acc[k] @ acc[k - d] for k in range(d, len(acc))]
        d *= 2
    return np.stack([np.eye(steps.shape[-1])] + acc)


def _sequential_product(steps: np.ndarray) -> np.ndarray:
    """I, then steps[k] X_k, one step at a time."""
    out = [np.eye(steps.shape[-1])]
    for step in steps:
        out.append(step @ out[-1])
    return np.stack(out)


def _from_left_blocks(mats: np.ndarray, n: int) -> np.ndarray:
    """[[A, -B], [B, A]] from the left block column [A; B] of each matrix."""
    u = np.empty(mats.shape[:-2] + (n, n), dtype=complex)
    u.real, u.imag = mats[..., :n, :n], mats[..., n:, :n]
    return matrices.complex_to_real(u)


def _offset_modes(offset: float, modes: list, scale: float):
    """The benchmark's mode closure: offset I + scale (B0 + sin B1 + cos B2)."""
    eye = np.eye(len(modes[0]))
    b0, b1, b2 = modes
    return lambda t: offset * eye + scale * (b0 + np.sin(2.0 * np.pi * t) * b1
                                             + np.cos(2.0 * np.pi * t) * b2)


def _commuting(v: np.ndarray, w: np.ndarray, d: np.ndarray, scale: float):
    """The benchmark's commuting closure: scale V diag(w + d cos(2 pi t)) V^H."""
    vh = v.conj().T
    return lambda t: scale * ((v * (w + d * np.cos(2.0 * np.pi * t))) @ vh)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=10)
@given(seeds, st.sampled_from([1, 2, 3, 4]), st.sampled_from([3, 4, 65, 256, 513]))
def test_integrators_equal_the_per_step_reference_bitwise(seed, n, n_samples):
    dim = 2 * n
    rng, old = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
    assert _same_bits(gen.random_unitary_path(n, rng, n_samples).matrices,
                      _per_step_unitary(_old_modes(_old_hermitian, n, old, 2.0),
                                        n, n_samples))
    assert _same_bits(gen.random_symplectic_path(dim, rng, 1.5, n_samples).matrices,
                      _per_step_symplectic(_old_modes(_old_symmetric, dim, old, 1.5),
                                           dim, n_samples))
    offset, modes = rng.uniform(3.5, 5.0), gen._mode_closure(rng, n, 1.0, True)
    unitary_closures = [
        lambda t: offset * np.eye(n) + modes(t),
        _offset_modes(offset, [_old_hermitian(n, rng, 1.0) for _ in range(3)], 1.0),
        _commuting(gen.random_unitary_matrix(n, rng), rng.uniform(2.0, 4.0, size=n),
                   rng.uniform(-0.6, 0.6, size=n), rng.uniform(0.5, 2.0)),
    ]
    for h in unitary_closures:
        assert _same_bits(gen.unitary_path_from_generator(h, n, n_samples).matrices,
                          _per_step_unitary(h, n, n_samples))
    ham = _offset_modes(0.0, [_old_symmetric(dim, rng, 1.0) for _ in range(3)], 1.5)
    assert _same_bits(gen.symplectic_path_from_hamiltonian(ham, dim, n_samples).matrices,
                      _per_step_symplectic(ham, dim, n_samples))


def _step_factors(seed: int, dim: int, n_samples: int, unitary: bool) -> np.ndarray:
    """The integrators' midpoint step factors of a random mode closure; unitary
    ones as their real embeddings, the stack the unitary integrator scans."""
    rng = np.random.default_rng([seed, 2])
    t = gen.uniform_times(n_samples)
    mids, dts = 0.5 * (t[:-1] + t[1:])[:, None, None], np.diff(t)[:, None, None]
    if unitary:
        h = gen.random_hermitian_generator(dim // 2, rng)
        return matrices.complex_to_real(matrices.exp_i_hermitian(dts * h(mids)))
    ham = gen._mode_closure(rng, dim, 1.5, False)
    return matrices.matrix_exp(dts * (matrices.standard_j(dim // 2) @ ham(mids)))


integration_sizes = st.sampled_from([3, 65, 256, 2049])


@settings(deadline=None, max_examples=20)
@given(seeds, st.sampled_from([2, 4, 6, 8]), integration_sizes, st.booleans())
def test_doubling_product_is_the_sequential_product_within_rounding(
        seed, dim, n_samples, unitary):
    # any association of a product of N - 1 matrices of order m has an error
    # of at most gamma |S_{N-2}| ... |S_0| entrywise, gamma = k u / (1 - k u)
    # with k = (N - 1) m (Higham, Accuracy and Stability, section 3.5), so
    # the two orders differ by at most twice that
    steps = _step_factors(seed, dim, n_samples, unitary)
    k = (n_samples - 1) * dim * np.finfo(float).eps / 2
    bound = 2 * k / (1 - k) * _sequential_product(np.abs(steps))
    gap = np.abs(gen._ordered_product(steps.copy()) - _sequential_product(steps))
    assert np.all(gap <= bound)


@settings(deadline=None, max_examples=20)
@given(seeds, st.sampled_from([2, 4, 6, 8]), integration_sizes, st.booleans(), st.data())
def test_doubling_product_of_a_prefix_is_a_prefix_bitwise(seed, dim, n_samples,
                                                          unitary, data):
    steps = _step_factors(seed, dim, n_samples, unitary)
    k = data.draw(st.integers(0, n_samples - 1))
    assert _same_bits(gen._ordered_product(steps[:k].copy()),
                      gen._ordered_product(steps)[:k + 1])


@settings(deadline=None, max_examples=10)
@given(seeds, st.sampled_from([1, 2, 3, 4]), integration_sizes)
def test_unitary_samples_have_exact_complex_blocks(seed, n, n_samples):
    mats = gen.random_unitary_path(n, np.random.default_rng([seed, 0]), n_samples).matrices
    assert _same_bits(mats[:, n:, n:], mats[:, :n, :n])
    assert _same_bits(mats[:, :n, n:], -mats[:, n:, :n])


def test_integrators_raise_on_overflow_and_on_non_finite_closures():
    # J H = diag(-800, 800): the product overflows near t = 0.89, a numerical
    # failure, raised without a numpy warning (a warning fails this suite)
    with pytest.raises(ComputationError, match="overflows"):
        gen.symplectic_path_from_hamiltonian(lambda t: [[0.0, 800.0], [800.0, 0.0]], 2, 65)
    # spectral steps are exactly unitary, so no generator makes that product
    # overflow: a huge one still integrates to a path in U(2)
    huge = gen.unitary_path_from_generator(lambda t: np.diag([1e300, -1e300]), 2, 65)
    assert matrices.commutes_with_j(huge.matrices)
    for value in (np.inf, np.nan):
        with pytest.raises(InputError, match="generator values must be finite"):
            gen.unitary_path_from_generator(lambda t: np.full((2, 2), value), 2, 9)
        with pytest.raises(InputError, match="generator values must be finite"):
            gen.symplectic_path_from_hamiltonian(lambda t: np.full((2, 2), value), 2, 9)


def test_integrators_refuse_a_closure_that_does_not_broadcast():
    with pytest.raises(InputError, match=r"\(8, 3, 3\).*\(8, 2, 2\)"):
        gen.unitary_path_from_generator(lambda t: np.eye(3) * t, 2, 9)
    with pytest.raises(InputError, match=r"\(5, 4, 4\).*\(8, 4, 4\)"):
        gen.symplectic_path_from_hamiltonian(lambda t: np.ones((5, 4, 4)), 4, 9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mode_closures_take_a_scalar_or_the_midpoint_array(n):
    rng = np.random.default_rng(n)
    mids = 0.5 * (gen.uniform_times(17)[:-1] + gen.uniform_times(17)[1:])
    for h, size in ((gen.random_hermitian_generator(n, rng), n),
                    (gen._mode_closure(rng, 2 * n, 1.5, False), 2 * n)):
        assert h(0.25).shape == (size, size)
        stacked = h(mids[:, None, None])
        assert all(_same_bits(stacked[k], h(tm)) for k, tm in enumerate(mids))


# Cone verdicts come from one Cholesky factorization of the stack, the
# sample-axis kernel up to matrices.SAMPLE_AXIS_MAX_DIM (8) on stacks of at
# least matrices.SAMPLE_AXIS_MIN_SAMPLES matrices, LAPACK otherwise; each
# stack is decided short and repeated up to that floor, so both routes run.
# ``eigvalsh`` and ``np.linalg.cholesky`` are their references here.  They may
# disagree only within rounding of the threshold, so the comparison skips
# stacks whose smallest eigenvalue lies within 1e-9 max(1, ||H||) of it.

def _at_the_floor(stack: np.ndarray) -> np.ndarray:
    """``stack`` repeated until it holds SAMPLE_AXIS_MIN_SAMPLES matrices, the
    fewest that the sample-axis kernels take."""
    return np.concatenate([stack] * max(1, -(-matrices.SAMPLE_AXIS_MIN_SAMPLES // len(stack))))


def _symmetric_stack(rng: np.random.Generator, dim: int, size: int, kind: str) -> np.ndarray:
    a = rng.normal(size=(size, dim, dim))
    if kind == "indefinite":
        return 0.5 * (a + np.swapaxes(a, -1, -2))
    if kind == "semidefinite":  # rank dim - 1, smallest eigenvalue 0
        a = a[..., : dim - 1]
    return a @ np.swapaxes(a, -1, -2)


shifts = st.one_of(st.sampled_from([0.0, 1e-6, -1e-6, paths.CONE_TOL]),
                   st.floats(-3.0, 3.0, allow_nan=False))


@settings(deadline=None, max_examples=200)
@given(seeds, st.integers(2, 16), st.integers(1, 5),
       st.sampled_from(["indefinite", "semidefinite", "definite"]), shifts, st.booleans())
def test_cholesky_cone_verdict_matches_the_eigenvalue_route(seed, dim, size, kind, shift,
                                                            offset):
    h = _symmetric_stack(np.random.default_rng(seed), dim, size, kind)
    if offset:  # a semidefinite stack then sits exactly on the threshold
        h = h + shift * np.eye(dim)
    eigs = np.linalg.eigvalsh(h)
    verdicts = [paths.cone_holds(stack, shift) for stack in (h, _at_the_floor(h))]
    assert all(isinstance(verdict, bool) for verdict in verdicts)
    lam = float(eigs.min())
    if abs(lam - shift) > 1e-9 * max(1.0, float(np.abs(eigs).max())):
        assert verdicts == [lam > shift] * 2
        try:
            np.linalg.cholesky(h - shift * np.eye(dim))
        except np.linalg.LinAlgError:
            assert verdicts == [False] * 2
        else:
            assert verdicts == [True] * 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (2, 0), (0, 2)])
def test_cone_holds_refuses_a_non_finite_track(bad, entry):
    # (0, 2) lies in the upper triangle, which the factorization never reads
    h = np.broadcast_to(np.eye(4), (5, 4, 4)).copy()
    h[(3, *entry)] = bad
    with pytest.raises(ComputationError, match="non-finite"):
        paths.cone_holds(h, 0.0)
    with pytest.raises(ComputationError, match="non-finite"):
        paths.cone_holds(np.eye(4)[None], bad)


def _commuting_unitary_pair(seed: int, n: int, proportional: bool):
    """A dominant pair in U(n) inside Sp(2n) with one eigenbasis: Y's speeds are
    a multiple of X's, or drawn on their own."""
    rng = np.random.default_rng([seed, 2])
    v = gen.random_unitary_matrix(n, rng)
    w = rng.uniform(2.0, 4.0, size=n)
    d = rng.uniform(-0.6, 0.6, size=n) * w
    x = gen.unitary_path_from_generator(_commuting(v, w, d, 1.0), n, SAMPLES)
    if proportional:
        h = _commuting(v, w, d, rng.uniform(0.3, 3.0))
    else:
        wy = rng.uniform(2.0, 4.0, size=n)
        h = _commuting(v, wy, rng.uniform(-0.6, 0.6, size=n) * wy, 1.0)
    return x, gen.unitary_path_from_generator(h, n, SAMPLES)


def _canonical_staircase(x, y, n: int, p_max: int, tol: float = paths.CONE_TOL):
    """The canonical staircase bisection with every verdict read off
    ``eigvalsh``."""
    x_atoms = growth._atoms(x)
    assert np.linalg.eigvalsh(x_atoms[0].hams).min() >= tol
    (y_minus_n,) = growth._signed_powers(growth._atoms(y), (-n,))

    def certified(p):
        chain = growth._signed_powers(x_atoms, (p,))[0] @ y_minus_n
        return np.linalg.eigvalsh(chain.hams).min() >= -tol

    if not certified(p_max):
        return None
    if certified(-p_max):
        return -p_max
    lo, hi = -p_max, p_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if certified(mid) else (mid, hi)
    return hi


def _endpoint_certified(x, y, n: int, powers, tol: float = paths.CONE_TOL) -> list:
    """The endpoint certificate at each power p, from ``eigvals`` of the
    complex endpoint X(1)^p Y(1)^-n (inverses by ``np.linalg.inv``): it
    holds when the winding p maslov(X) - n maslov(Y) reaches the sum of the
    eigenphases in [0, 2 pi), a phase within the fold max(tol,
    ENDPOINT_FOLD) below 2 pi read as 0; the two differ by whole quanta up
    to rounding far below pi."""
    fold = max(tol, growth.ENDPOINT_FOLD)
    mx, my = (maslov.maslov_index(path).value for path in (x, y))
    x1, y1 = (matrices.real_to_complex(path.endpoint) for path in (x, y))
    y_minus_n = np.linalg.matrix_power(np.linalg.inv(y1), n)
    verdicts = []
    for p in powers:
        phases = np.mod(np.angle(np.linalg.eigvals(np.linalg.matrix_power(x1, p) @ y_minus_n)),
                        2 * np.pi)
        phases[phases >= 2 * np.pi - fold] = 0.0
        verdicts.append(p * mx - n * my - phases.sum() > -np.pi)
    return verdicts


def _endpoint_staircase(x, y, n: int, p_max: int, tol: float = paths.CONE_TOL):
    """The least power in [-p_max, p_max] that :func:`_endpoint_certified`
    accepts, else None."""
    powers = range(-p_max, p_max + 1)
    return next((p for p, ok in zip(powers, _endpoint_certified(x, y, n, powers, tol)) if ok),
                None)


def _eigvalsh_staircase(x, y, n: int, p_max: int, tol: float = paths.CONE_TOL):
    """The least power either certificate accepts: the canonical bisection
    with ``eigvalsh`` verdicts and, on a unitary pair, a full scan of the
    endpoint certificate over [-p_max, p_max] (:func:`_endpoint_staircase`).
    On a unitary pair the staircase runs only the endpoint scan, so this
    also checks that the canonical certificate accepts no lower power."""
    answers = [_canonical_staircase(x, y, n, p_max, tol)]
    if matrices.commutes_with_j(x.matrices) and matrices.commutes_with_j(y.matrices):
        answers.append(_endpoint_staircase(x, y, n, p_max, tol))
    return min((p for p in answers if p is not None), default=None)


@settings(deadline=None, max_examples=30)
@given(seeds, st.sampled_from([1, 2]),
       st.sampled_from(["proportional", "independent", "positive"]), st.data())
def test_staircase_equals_an_eigenvalue_bisection(seed, n, kind, data):
    if kind == "positive":
        # X off the unitary subgroup has no winding floor, so the search
        # starts at -p_max; at rungs 1 and 2 with p_max <= 12 the certificate
        # accepts some power on about a third of the draws, while higher
        # powers of X amplify the finite-difference error of H_Y past tol
        x = _dominant_path(seed, 2 * n, 0, "positive")
        y = _dominant_path(seed, 2 * n, 1, data.draw(kinds))
        rung, p_max = data.draw(st.sampled_from([1, 2])), data.draw(st.integers(0, 12))
    else:
        x, y = _commuting_unitary_pair(seed, n, kind == "proportional")
        rung = data.draw(st.sampled_from([1, 2, 4, 8]))
        p_max = data.draw(st.integers(0, 40))
    assert (growth.gamma_n_bruteforce(x, y, rung, p_max)
            == _eigvalsh_staircase(x, y, rung, p_max))


@settings(deadline=None, max_examples=20)
@given(seeds, st.sampled_from([1, 2]), st.booleans(), st.sampled_from([1, 2, 3, 4]))
def test_certified_powers_are_upward_closed(seed, n, proportional, rung):
    # speeds lie in [0.8, 6.4] (times 3 for a multiple), so the scan sees the
    # step; on a commuting pair the endpoint test passes where the whole
    # quanta of sum_j (p a_j - rung b_j) reach 0, monotone in p since a_j > 0
    x, y = _commuting_unitary_pair(seed, n, proportional)
    p_max = 24 * rung + 2
    x_atoms = growth._atoms(x)
    (y_minus_n,) = growth._signed_powers(growth._atoms(y), (-rung,))
    powers = range(-p_max, p_max + 1)
    firsts = []
    for scan in ([growth._certified(x_atoms, y_minus_n, p, paths.CONE_TOL) for p in powers],
                 _endpoint_certified(x, y, rung, powers)):
        assert scan[-1]
        firsts.append(scan.index(True))
        assert all(scan[firsts[-1]:])
    assert growth.gamma_n_bruteforce(x, y, rung, p_max) == min(firsts) - p_max


@settings(deadline=None, max_examples=25)
@given(seeds, st.sampled_from([1, 2]),
       st.sampled_from(["proportional", "independent", "non-commuting"]),
       st.sampled_from([1, 2, 4, 8]))
def test_unitary_rungs_lie_between_the_floor_and_the_canonical_answer(seed, n, kind, rung):
    if kind == "non-commuting":
        x, y = (_dominant_path(seed, 2 * n, stream, "unitary") for stream in (0, 1))
    else:
        x, y = _commuting_unitary_pair(seed, n, kind == "proportional")
    p_max = 40
    (gamma_n,), (floor,), (certificate,), windings = growth._staircase(
        x, y, ((rung, p_max),), paths.CONE_TOL)
    assert windings is not None and floor is not None
    canonical = _canonical_staircase(x, y, rung, p_max)
    if gamma_n is None:
        assert certificate is None and canonical is None
        return
    # the endpoint certificate decides every unitary rung, and accepts every
    # power the canonical certificate does
    assert floor <= gamma_n and certificate == "endpoint"
    if canonical is not None:
        assert gamma_n <= canonical
    assert _endpoint_certified(x, y, rung, [gamma_n]) == [True]


def test_growth_decides_dominance_without_eigenvalues(monkeypatch):
    # the staircase workload's pair (Sp(4), Y = X^r) and a winding-style pair
    x, y = _commuting_unitary_pair(7, 2, True)
    u, w = _dominant_path(7, 4, 0, "unitary"), _dominant_path(7, 4, 1, "unitary")
    want = (growth.gamma_n_bruteforce(x, y, 8, 40), growth.pseudo_distance_k(u, w),
            growth.z_coordinate(u))
    assert want[0] is not None
    bad = paths.invert(u)
    low = paths.classify_cone(bad).min_eigenvalue
    message = f"X must be dominant, got negative (min generator eigenvalue {low:.3e})"

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a dominant path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert (growth.gamma_n_bruteforce(x, y, 8, 40), growth.pseudo_distance_k(u, w),
            growth.z_coordinate(u)) == want
    assert _message(lambda: growth.gamma_n_bruteforce(bad, y, 8, 40)) == (
        "X must be dominant for the staircase search")
    monkeypatch.undo()
    # a refused path is classified, so the error still carries its eigenvalue
    assert _message(lambda: growth.z_coordinate(bad)) == message
    assert _message(lambda: growth.pseudo_distance_k(bad, w)) == message


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(0, 300), st.integers(0, 300), st.floats(1e5, 1e200))
def test_symplectic_test_is_blind_to_conjugation_and_sees_a_stretch(seed, k1, k2, p):
    # conjugating by the symplectic diag(2^k1, 2^k2, 2^-k1, 2^-k2) is exact
    # in binary and scales each entry of A^T J A - J as it scales the terms
    # that entry sums; a right factor diag(p, 1, 1, 1) makes the determinant p
    path = gen.random_symplectic_path(4, np.random.default_rng(seed), scale=1.0, n_samples=17)
    d = 2.0 ** np.array([k1, k2, -k1, -k2])
    conjugated = d[:, None] * path.matrices / d
    assert paths.SampledPath(path.times, conjugated).n_samples == 17
    stretched = conjugated.copy()
    stretched[1:, :, 0] *= p
    with pytest.raises(InputError, match="leave Sp"):
        paths.SampledPath(path.times, stretched)
