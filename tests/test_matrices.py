import warnings

import numpy as np
import pytest
from allocation import peak_stacks
from hypothesis import given, settings
from hypothesis import strategies as st
from test_group_law import _at_the_floor, _symmetric_stack

from symporder import generators, maslov, matrices, paths
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


def _near_unitary_stack(seed, n, size, noise, zeros):
    """Stack of complex_to_real(Z) plus noise, 40 % of its entries +-0 if ``zeros``."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))
    a = matrices.complex_to_real(z) + noise * rng.normal(size=(size, 2 * n, 2 * n))
    if zeros:
        hit = rng.random(a.shape) < 0.4
        a[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return a


_STACKS = (st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 5),
           st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, 1.0]), st.booleans())


@settings(deadline=None, max_examples=200)
@given(*_STACKS)
def test_block_formulas_equal_the_products_by_j(seed, n, size, noise, zeros):
    # the inverse and the commutator test are entry maps up to dim 8 and
    # block code above; the products by J are their reference, on any stack
    # (symplectic or not) of dim 2n
    a = _near_unitary_stack(seed, n, size, noise, zeros)
    j = matrices.standard_j(n)
    inverse = matrices.symplectic_inverse(a)
    assert np.array_equal(inverse, -j @ np.swapaxes(a, -1, -2) @ j)
    assert inverse.tobytes() == (-j @ np.swapaxes(a, -1, -2) @ j).tobytes()
    assert matrices.commutes_with_j(a) == bool(np.all(np.abs(a @ j - j @ a) <= 1e-9))


@settings(deadline=None, max_examples=200)
@given(*_STACKS)
def test_complex_part_map_equals_the_block_sums(seed, n, size, noise, zeros):
    # 2 C_X = (P + S) + i (R - Q), read by the winding; above dim 8 it is the
    # block code itself, bit for bit; up to dim 8 the entry map's BLAS product
    # sums from +0.0, so a zero whose two terms give -0.0 there (-0 + -0, or
    # -0 - +0) comes out +0.0, and every other bit is the block sum's
    a = _near_unitary_stack(seed, n, size, noise, zeros)
    part = matrices._by_entry_map(maslov._two_complex_part, a).view(complex)[..., 0]
    p, q, r, s = a[..., :n, :n], a[..., :n, n:], a[..., n:, :n], a[..., n:, n:]
    reference = np.empty(part.shape, complex)
    reference.real, reference.imag = p + s, r - q
    if 2 * n <= matrices.SAMPLE_AXIS_MAX_DIM:
        reference.real += 0.0
        reference.imag += 0.0
    assert part.tobytes() == reference.tobytes()


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


def _out_of_place_exp(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``matrix_exp`` of a finite stack as it was written with its sums out of
    place: each b_k P_k term added to a new sum, solve(V - U, V + U), and
    each squaring on the matrices gathered by index.  Returns the
    exponential and the Pade degree."""
    flat = a.reshape((-1,) + a.shape[-2:])
    mag = np.abs(flat)
    sq = flat @ flat
    size = np.sqrt((np.ones((1, a.shape[-1])) @ mag @ mag).max(axis=(-2, -1), initial=0.0))
    m, theta = next((m, theta) for m, theta in matrices._PADE_THETA
                    if size.max(initial=0.0) <= theta or m == 13)
    s = np.ceil(np.log2(np.maximum(size, theta)) - np.log2(theta)).astype(np.int32)
    if s.any():
        scale = -s[:, None, None]
        flat, sq = np.ldexp(flat, scale), np.ldexp(sq, 2 * scale)
    b, eye = matrices._PADE_COEFFS[m], np.eye(a.shape[-1])
    if m == 13:
        a4 = sq @ sq
        a6 = a4 @ sq
        u = flat @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * sq)
                    + b[7] * a6 + b[5] * a4 + b[3] * sq + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * sq)
             + b[6] * a6 + b[4] * a4 + b[2] * sq + b[0] * eye)
    else:
        odd, even, power = b[1] * eye, b[0] * eye, eye
        for k in range(2, m, 2):
            power = power @ sq
            odd = odd + b[k + 1] * power
            even = even + b[k] * power
        u, v = flat @ odd, even
    out = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):
        idx = np.flatnonzero(s > i)
        out[idx] = out[idx] @ out[idx]
    return out.reshape(a.shape), m


def _lie_algebra_stack(rng, n: int, kinds, sizes) -> np.ndarray:
    """One matrix of sp(2n) per kind, scaled to its size z = || |A|^2 ||_1^(1/2):
    "dense", J (H + H^T) for a Gaussian H; "planar", blocks [[a, b], [c, -a]]
    in the (q_i, p_i) planes, some of a, b and c zero, exact zeros elsewhere;
    "shear", [[0, S], [0, 0]] with S symmetric, whose z is 0, so its largest
    entry takes the size.  Every exact zero gets a random sign."""
    d, q, p = 2 * n, np.arange(n), n + np.arange(n)
    out = np.zeros((len(kinds), d, d))
    for a, kind, size in zip(out, kinds, sizes):
        if kind == "dense":
            h = rng.normal(size=(d, d))
            a[:] = matrices.standard_j(n) @ (h + h.T)
        elif kind == "planar":
            abc = rng.normal(size=(3, n)) * (rng.random((3, n)) < 0.7)
            a[q, q], a[q, p], a[p, q], a[p, p] = abc[0], abc[1], abc[2], -abc[0]
        else:
            h = rng.normal(size=(n, n))
            a[:n, n:] = h + h.T
        z = np.sqrt((np.ones(d) @ np.abs(a) @ np.abs(a)).max())
        norm = z if z > 0 else np.abs(a).max()
        if norm > 0:
            a *= size / norm
    zero = out == 0.0
    out[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return out


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 4), st.integers(0, 5),
       st.lists(st.tuples(st.sampled_from(["dense", "planar", "shear"]), st.floats(0.0, 1.0)),
                max_size=6))
def test_matrix_exp_keeps_the_bits_of_the_out_of_place_sums(seed, n, degree, doublings,
                                                            members):
    # the sums run in place, the first term takes a leading b_k I, which
    # IEEE addition's commutativity allows, and the first power is A^2, not
    # I A^2, whose zero signs the b_1 I and b_0 I terms erase; V - U is
    # formed in V's buffer.  Every entry keeps its
    # bits, the sign of each zero included, at all five degrees, on stacks
    # whose matrices take different s, and with planar blocks and shears,
    # whose exact zeros could change sign
    m, theta = matrices._PADE_THETA[degree]
    top = 0.9 * theta * 2.0 ** (doublings if m == 13 else 0)
    kinds = ["dense"] + [kind for kind, _ in members]
    sizes = [top] + [top * share for _, share in members]
    a = _lie_algebra_stack(np.random.default_rng(seed), n, kinds, sizes)
    want, want_degree = _out_of_place_exp(a)
    got = matrices.matrix_exp(a)
    assert want_degree == m
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# The sample-axis kernels against LAPACK on both sides of their size cutoffs:
# real dimension 2n <= SAMPLE_AXIS_MAX_DIM (8) on stacks of at least
# SAMPLE_AXIS_MIN_SAMPLES matrices runs the kernels, other stacks np.linalg.
# Short stacks are also repeated up to that floor, so both routes run.

@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 6),
       st.sampled_from([1.0, 1e-300, 1e300]))
def test_det_phase_is_the_sign_of_slogdet(seed, n, size, scale):
    rng = np.random.default_rng(seed)
    gauss = scale * (rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n)))
    # a zero leading entry forces a row exchange at the first step: a cyclic
    # permutation unitary (for n > 1), and a matrix whose first column is 0
    # down to its last row
    perm = np.roll(np.eye(n), 1, axis=0) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    low = gauss.copy()
    low[:, :-1, 0] = 0.0
    stack = np.concatenate([gauss, perm[None], low])
    for each in (stack, _at_the_floor(stack)):
        phase = matrices.det_phase(each)
        assert phase.shape == (len(each),)
        assert np.abs(phase - np.linalg.slogdet(each).sign).max() <= 1e-12
    # the winding reads the complex-linear part of complex_to_real(U), U itself
    assert abs(maslov._unitary_factor_phase(matrices.complex_to_real(perm)[None])[0]
               - np.linalg.det(perm)) <= 1e-12


def _pivot_free_stack(seed: int, n: int) -> np.ndarray:
    """SAMPLE_AXIS_MIN_SAMPLES complex matrices 10 I + noise of size 0.1: at
    every elimination step the diagonal entry stays the largest of its column
    at and below it, so no pivot row moves."""
    rng = np.random.default_rng([seed, n])
    shape = (matrices.SAMPLE_AXIS_MIN_SAMPLES, n, n)
    return 10.0 * np.eye(n) + 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _phases_and_moves(monkeypatch, stack):
    """det_phase of the stack and, per elimination step, the samples whose
    pivot row moved there."""
    moves, pivot = [], matrices._pivot_to_top

    def recorded(a, k):
        swapped = pivot(a, k)
        moves.append(np.flatnonzero(swapped).tolist())
        return swapped

    monkeypatch.setattr(matrices, "_pivot_to_top", recorded)
    phases = matrices.det_phase(stack)
    monkeypatch.undo()
    return phases, moves


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_phase_of_a_sample_does_not_depend_on_its_stack_mates(monkeypatch, n):
    # a stack in which no pivot moves, then the same stack with rows k and
    # k + 1 of one sample exchanged, whose pivot then moves at step k only
    base = _pivot_free_stack(7, n)
    phases, moves = _phases_and_moves(monkeypatch, base)
    assert moves == [[]] * (n - 1)
    for k in range(n - 1):
        for s in (0, len(base) // 2, len(base) - 1):
            mixed = base.copy()
            mixed[s, [k, k + 1]] = mixed[s, [k + 1, k]]
            got, moves = _phases_and_moves(monkeypatch, mixed)
            assert moves == [[s] if step == k else [] for step in range(n - 1)]
            others = np.arange(len(base)) != s
            assert got[others].tobytes() == phases[others].tobytes()
            alone = matrices.det_phase(np.broadcast_to(mixed[s], base.shape).copy())
            assert alone.tobytes() == np.full(len(base), got[s]).tobytes()
            assert np.abs(got - np.linalg.slogdet(mixed).sign).max() <= 1e-12


def test_kernels_call_lapack_only_above_the_cutoff(monkeypatch):
    # above the dimension cutoff, or below the sample floor, and nowhere else
    rng = np.random.default_rng(3)
    cut, floor = matrices.SAMPLE_AXIS_MAX_DIM, matrices.SAMPLE_AXIS_MIN_SAMPLES
    cases = []
    for dim in range(2, cut + 5, 2):
        for n_samples in (floor - 1, floor):
            path = generators.random_symplectic_path(dim, rng, n_samples=n_samples)
            cases.append((dim, n_samples, path, paths.extract_hamiltonian(path)))
    calls = []

    def recorded(name):
        lapack = getattr(np.linalg, name)

        def call(a):
            calls.append((name, a.shape[-1]))
            return lapack(a)
        return call

    for name in ("cholesky", "slogdet"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    for dim, _, path, hams in cases:
        maslov.maslov_index(path)
        assert matrices.positive_definite(hams, -1e3) and not matrices.positive_definite(hams, 1e3)
    lapack = [dim for dim, n_samples, _, _ in cases if dim > cut or n_samples < floor]
    assert lapack == [2, 4, 6, 8, 10, 10, 12, 12]
    assert calls == [call for dim in lapack for call in
                     (("slogdet", dim // 2), ("cholesky", dim), ("cholesky", dim))]


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 9, 16])
def test_one_indefinite_sample_refuses_the_stack(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(6, dim, dim))
    stack = _at_the_floor(a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(dim))
    assert matrices.positive_definite(stack) and matrices.positive_definite(stack[:6])
    for sample in range(6):
        for entry in range(dim):  # a non-positive pivot at each step of the factorization
            bad = stack.copy()
            bad[sample, entry, entry] -= np.linalg.eigvalsh(bad[sample]).max() * dim
            assert not matrices.positive_definite(bad)
            assert not matrices.positive_definite(bad[:6])
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(bad[:6])


shifts = st.one_of(st.sampled_from([0.0, -0.0, 1e-6, -1e-6, 1e-3]),
                   st.floats(-3.0, 3.0, allow_nan=False))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.integers(1, 5),
       st.sampled_from(["indefinite", "semidefinite", "definite"]), shifts, st.booleans())
def test_shifted_cone_verdict_is_the_verdict_of_the_shifted_stack(seed, dim, size, kind,
                                                                  shift, offset):
    # both routes: dim 10 goes to LAPACK, and each stack is decided short and
    # repeated up to the sample floor; with ``offset`` a semidefinite stack
    # sits exactly on the threshold
    h = _symmetric_stack(np.random.default_rng(seed), dim, size, kind)
    if offset:
        h = h + shift * np.eye(dim)
    for stack in (h, _at_the_floor(h)):
        verdict = matrices.positive_definite(stack, shift)
        assert verdict is matrices.positive_definite(stack - shift * np.eye(dim))


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.booleans(),
       st.sampled_from(["entry", "shift", "overflow"]), st.data())
def test_shifted_cone_refuses_what_is_not_finite(seed, dim, floor, case, data):
    # an inf or NaN entry, in either triangle, a non-finite shift, or a shift
    # whose subtraction overflows a diagonal entry
    rng = np.random.default_rng(seed)
    h = _symmetric_stack(rng, dim, 3, "definite")
    h = _at_the_floor(h) if floor else h
    sample = data.draw(st.integers(0, len(h) - 1))
    i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    bad = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    shift = 0.5
    if case == "entry":
        h[sample, i, j] = bad
    elif case == "shift":
        shift = bad
    else:
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        h[sample, i, i], shift = sign * 1.5e308, -sign * 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match="non-finite"):
            matrices.positive_definite(h, shift)


def test_the_cone_check_copies_its_track_once():
    # one samples-last copy, shifted in place, and its finiteness mask: about
    # 1.63 track sizes; a second, shifted copy of the track would pass 2
    track = paths.extract_hamiltonian(
        generators.random_symplectic_path(4, np.random.default_rng(3), n_samples=2049))
    assert matrices.positive_definite(track, -1e3)  # every step of the factorization runs
    assert peak_stacks(lambda: matrices.positive_definite(track, -1e3), track) < 2.0


def test_det_phase_gathers_no_row_where_no_pivot_moves():
    # a U(2)-sized stack whose pivots never move: about 2.8 input sizes; a
    # gather and scatter of the pivot rows at its one step would pass 3.3
    c = 10.0 * np.eye(2) + 0.1 * np.random.default_rng(5).normal(size=(2049, 2, 2))
    c = c.astype(complex)
    assert peak_stacks(lambda: matrices.det_phase(c), c) < 3.3


def _integrator_generators(n_samples: int = 2049) -> np.ndarray:
    """dt J H(t_mid) of a random Sp(8) mode closure: the stack that
    ``symplectic_path_from_hamiltonian`` exponentiates, at degree 3."""
    t = generators.uniform_times(n_samples)
    ham = generators._mode_closure(np.random.default_rng(7), 8, 1.5, False)
    return np.diff(t)[:, None, None] * (matrices.standard_j(4) @ ham(0.5 * (t[:-1] + t[1:])[:, None, None]))


def test_matrix_exp_holds_three_stacks_at_degree_3():
    # A^2, which is its one Pade power, and the two Pade sums: about 3.1
    # input sizes; the out-of-place sums, with |A| and A^2 alive to the end,
    # held 7.2
    gens = _integrator_generators()
    assert _out_of_place_exp(gens)[1] == 3
    assert peak_stacks(lambda: matrices.matrix_exp(gens), gens) < 3.6


def test_matrix_exp_holds_seven_stacks_at_degree_13():
    # z from 1.2 to 7 theta_13, so s is 1 to 3: 2^-s A, A^2, A^4, A^6, U
    # and a sum with its term, about 7.0 input sizes, set in the Pade
    # sums; the out-of-place sums held 9.2
    rng = np.random.default_rng(11)
    theta = matrices._PADE_THETA[-1][1]
    a = _lie_algebra_stack(rng, 4, ["dense"] * 2048, theta * rng.uniform(1.2, 7.0, 2048))
    assert _out_of_place_exp(a)[1] == 13
    assert peak_stacks(lambda: matrices.matrix_exp(a), a) < 7.5


STEP_KINDS = ("generic", "degenerate", "near_pi")


def _step_chain(seed: int, n: int, kinds: list, off: float) -> np.ndarray:
    """Complex samples U_0 = I, U_{k+1} = exp(i h_k) U_k, one step h_k per
    entry of ``kinds``: "generic" (eigenvalues in [-3, 3]), "degenerate"
    (c I + 1e-14 B) or "near_pi" (eigenvalues within 0.02 of +-pi), in a
    random eigenbasis; ``off`` adds complex noise of that size to every
    sample after the first, taking it off U(n)."""
    rng = np.random.default_rng(seed)
    samples = [np.eye(n, dtype=complex)]
    for kind in kinds:
        v = generators.random_unitary_matrix(n, rng)
        if kind == "generic":
            w = rng.uniform(-3.0, 3.0, n)
        elif kind == "degenerate":
            w = rng.uniform(-3.0, 3.0) + 1e-14 * rng.normal(size=n)
        else:
            w = rng.choice([-1.0, 1.0], n) * (np.pi - rng.uniform(1e-6, 0.02, n))
        samples.append(((v * np.exp(1j * w)) @ v.conj().T) @ samples[-1])
    u = np.array(samples)
    u[1:] += off * (rng.normal(size=u[1:].shape) + 1j * rng.normal(size=u[1:].shape))
    return u


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
       st.lists(st.sampled_from(STEP_KINDS), min_size=1, max_size=400),
       st.sampled_from([0.0, 1e-10]))
def test_step_eigenphases_are_the_sorted_eigenvalue_angles(seed, n, kinds, off):
    # a step S_k = U_{k+1} U_k^H read in closed form against LAPACK's
    # eigenvalues of S_k.  Off U(n) the two are different readings of a
    # non-normal step: they agree to second order in the defect where the
    # eigenvalues are apart (to 2e-15 at a gap of 1e-4 and a defect of
    # 1e-10), and within the defect where they nearly coincide (5e-10)
    u = _step_chain(seed, n, kinds, off)
    phases = matrices.step_eigenphases(matrices.complex_to_real(u))
    steps = u[1:] @ np.swapaxes(u[:-1].conj(), -1, -2)
    want = np.sort(np.angle(np.linalg.eigvals(steps)), axis=1)
    assert phases.shape == (len(kinds), n)
    assert np.all((phases > -np.pi) & (phases <= np.pi))
    miss = np.abs(phases - want).max(axis=1)
    close = np.zeros(len(kinds), bool)
    if off and n == 2:
        close = np.abs(np.exp(1j * want[:, 1]) - np.exp(1j * want[:, 0])) < 1e-4
    assert miss[~close].max(initial=0.0) <= 1e-13
    assert miss[close].max(initial=0.0) <= 10 * off


def _offset_generator(seed: int, n: int):
    """t -> offset I + the modes of ``random_hermitian_generator``, each of
    spectral norm 2; an offset in (3, 5) keeps the winding above n."""
    rng = np.random.default_rng(seed)
    offset, h = rng.uniform(3.0, 5.0), generators.random_hermitian_generator(n, rng)
    return lambda t: offset * np.eye(n) + h(t)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]), st.integers(65, 2049))
def test_step_margin_and_winding_of_integrated_unitary_paths(seed, n, n_samples):
    # each step of the midpoint integrator is exp(i dt h(t_mid)): the margin
    # read from the steps is the least eigenvalue of h at the midpoints, and
    # the eigenphase winding is the determinant winding
    h = _offset_generator(seed, n)
    path = generators.unitary_path_from_generator(h, n, n_samples)
    mids = 0.5 * (path.times[1:] + path.times[:-1])
    truth = np.linalg.eigvalsh(np.broadcast_to(h(mids[:, None, None]), (len(mids), n, n))).min()
    assert abs(paths.min_generator_eigenvalue(path) - truth) <= 1e-10
    value = maslov.maslov_index(path).value
    assert abs(value - maslov._winding(path, None).value) <= 1e-12 * abs(value)


def test_step_eigenphases_hold_under_two_stacks():
    # the complex samples and their conjugates until the steps are formed,
    # then the four step entries and their scalar temporaries: about 1.8
    # path sizes on a U(2) path of 2049 samples
    path = generators.unitary_path_from_generator(_offset_generator(3, 2), 2, 2049)
    assert peak_stacks(lambda: matrices.step_eigenphases(path.matrices), path.matrices) < 2.3


def test_step_eigenphases_refuse_n_above_2():
    with pytest.raises(InputError, match="n <= 2"):
        matrices.step_eigenphases(np.broadcast_to(np.eye(6), (3, 6, 6)))
