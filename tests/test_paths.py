import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import generators as gen
from symporder import maslov, matrices, paths
from symporder.errors import ComputationError, InputError


def test_validation_requires_identity_start():
    t = gen.uniform_times(5)
    mats = np.broadcast_to(2.0 * np.eye(2), (5, 2, 2)).copy()
    with pytest.raises(InputError):
        paths.SampledPath(t, mats)


def test_validation_requires_increasing_times():
    path = gen.rotation_path(1.0, 9)
    with pytest.raises(InputError):
        paths.SampledPath(path.times[::-1], path.matrices)


def test_validation_requires_symplectic_samples():
    t = gen.uniform_times(5)
    mats = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    mats[3] = np.diag([2.0, 1.0])
    with pytest.raises(InputError):
        paths.SampledPath(t, mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_requires_finite_times_and_samples(bad):
    path = gen.rotation_path(1.0, 9)
    mats = path.matrices.copy()
    mats[4, 0, 1] = bad
    with pytest.raises(InputError, match="finite"):
        paths.SampledPath(path.times, mats)
    times = path.times.copy()
    times[4] = bad
    with pytest.raises(InputError, match="finite"):
        paths.SampledPath(times, path.matrices)


def test_validation_scales_with_sample_norm():
    # a power of a clean path has defect ~ eps * norm^2; must still validate
    base = gen.rotation_path(2.0, 65)
    big = paths.pointwise_power(paths.compose(base, base), 12)
    assert big.n_samples == 65


def test_rotation_generator_is_constant_identity_multiple():
    path = gen.rotation_path(1.5, 257)
    hams = paths.extract_hamiltonian(path)
    assert np.abs(hams - 1.5 * np.eye(2)).max() < 1e-3


def test_fourth_order_stencil_beats_second_order():
    path = gen.rotation_path(2.0, 129)
    err2 = np.abs(paths.extract_hamiltonian(path, order=2) - 2.0 * np.eye(2)).max()
    err4 = np.abs(paths.extract_hamiltonian(path, order=4) - 2.0 * np.eye(2)).max()
    assert err4 < err2 / 100.0


def _reference_track(path, order):
    """0.5 (R + R^T), R = -J (dX/dt X^-1), with X^-1 = -J X^T J and the
    order-4 interior stencil written as whole-array expressions."""
    j = matrices.standard_j(path.half_dim)
    m, t = path.matrices, path.times
    if order == 4:
        deriv = paths._time_derivative4(t, m)
        deriv[2:-2] = (m[:-4] - 8 * m[1:-3] + 8 * m[3:-1] - m[4:]) / (12 * (t[1] - t[0]))
    else:
        deriv = np.gradient(m, t, axis=0, edge_order=2)
    raw = -j @ (deriv @ (-j @ np.swapaxes(m, -1, -2) @ j))
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.sampled_from([7, 9, 33]),
       st.sampled_from(["dense", "planes"]), st.booleans())
def test_generator_tracks_equal_the_products_by_j(seed, n, n_samples, kind, signed_zeros):
    # the entry map up to dim 8 and the block code above give the bytes of
    # the reference, both stencil orders, on dense paths and on direct sums of
    # Sp(2) planes, whose many zero entries may carry either sign
    rng = np.random.default_rng(seed)
    if kind == "dense":
        mats = gen.random_symplectic_path(2 * n, rng, n_samples=n_samples).matrices
    else:
        planes = {i: gen.random_symplectic_path(2, rng, n_samples=n_samples).matrices
                  for i in range(n) if rng.random() < 0.6}
        mats = paths._plane_stack(n_samples, n, planes)
    if signed_zeros:
        zero = mats == 0.0
        mats[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    path = paths.SampledPath(gen.uniform_times(n_samples), mats)
    for order in (2, 4):
        assert paths.extract_hamiltonian(path, order).tobytes() == \
            _reference_track(path, order).tobytes()


def test_extract_hamiltonian_convergence_order():
    errs = []
    for n in (65, 129, 257):
        path = gen.rotation_path(3.0, n)
        errs.append(np.abs(paths.extract_hamiltonian(path) - 3.0 * np.eye(2)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.8


def test_compose_concatenates_windings():
    a = gen.rotation_path(1.0, 65)
    b = gen.rotation_path(0.5, 65)
    ab = paths.compose(a, b)
    assert np.abs(ab.endpoint - a.endpoint @ b.endpoint).max() < 1e-9


def test_compose_generator_formula():
    # H_{XY}(t) = H_X(t) + (X^-1)^T H_Y(t) X^-1(t) for pointwise products
    rng = np.random.default_rng(4)
    x = gen.random_symplectic_path(2, rng, scale=0.8, n_samples=257)
    y = gen.random_symplectic_path(2, rng, scale=0.8, n_samples=257)
    xy = paths.SampledPath(x.times, np.einsum("tij,tjk->tik", x.matrices, y.matrices))
    hx = paths.extract_hamiltonian(x)
    hy = paths.extract_hamiltonian(y)
    hxy = paths.extract_hamiltonian(xy)
    xinv = np.linalg.inv(x.matrices)
    predicted = hx + np.einsum("tji,tjk,tkl->til", xinv, hy, xinv)
    assert np.abs(hxy - predicted).max() < 1e-2


def test_invert_flips_the_generator_sign_at_identity():
    path = gen.rotation_path(1.0, 129)
    inv = paths.invert(path)
    assert np.abs(inv.endpoint - path.endpoint.T).max() < 1e-12
    hinv = paths.extract_hamiltonian(inv)
    assert np.abs(hinv + np.eye(2)).max() < 1e-3


def test_resample_preserves_existing_samples():
    path = gen.rotation_path(2.0, 65)
    new_times = np.sort(np.union1d(path.times, [0.171, 0.433, 0.86]))
    fine = paths.resample(path, new_times)
    keep = np.searchsorted(new_times, path.times)
    assert np.abs(fine.matrices[keep] - path.matrices).max() == 0.0


def test_resample_interpolates_on_the_group():
    # interpolation reuses finite-difference generators, so accuracy is
    # second order in the coarse step, not machine precision
    path = gen.rotation_path(2.0, 65)
    exact = gen.rotation_path(2.0, 4 * 64 + 1)
    fine = paths.resample(path, exact.times)
    assert np.abs(fine.matrices - exact.matrices).max() < 1e-5


@pytest.mark.parametrize("size", [1e6, 1e10, 1e14])
def test_resample_keeps_the_unit_diagonal_of_large_shears(size):
    # each step exponential is of a shear, A^2 = 0; scaled by its 1-norm and
    # squared back, the unit diagonal would drift, by 9e-7 at size 1e10
    t = gen.uniform_times(129)
    mats = np.broadcast_to(np.eye(2), (129, 2, 2)).copy()
    mats[:, 0, 1] = size * t ** 2
    fine = paths.resample(paths.SampledPath(t, mats), np.union1d(t, gen.uniform_times(100)))
    diagonal = np.diagonal(fine.matrices, axis1=-2, axis2=-1)
    assert np.abs(diagonal - 1.0).max() <= 4 * np.finfo(float).eps


def _count_tracks(monkeypatch) -> list:
    """Record each generator track that ``paths`` extracts."""
    calls = []
    extract = paths.extract_hamiltonian

    def counted(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    monkeypatch.setattr(paths, "extract_hamiltonian", counted)
    return calls


def test_resample_onto_stored_times_restricts_without_a_track(monkeypatch):
    tracks = _count_tracks(monkeypatch)
    path = gen.rotation_path(2.0, 65)
    coarse = paths.resample(path, path.times[::4])
    assert coarse.times.tobytes() == path.times[::4].tobytes()
    assert coarse.matrices.tobytes() == path.matrices[::4].tobytes()
    a, b = paths.align_grids(gen.rotation_path(1.0, 129), path)
    assert a.n_samples == b.n_samples == 65 and tracks == []
    # a time between samples takes the one track of the path it interpolates
    assert paths.refine(path).n_samples == 129 and len(tracks) == 1


def test_align_grids_downsamples_nested_grids():
    fine = gen.rotation_path(2.0, 129)
    coarse = gen.rotation_path(1.0, 65)
    a, b = paths.align_grids(fine, coarse)
    assert a.n_samples == b.n_samples == 65
    assert np.abs(a.matrices - fine.matrices[::2]).max() == 0.0
    product = paths.compose(fine, coarse)
    assert np.array_equal(product.times, coarse.times)
    assert np.array_equal(product.matrices, fine.matrices[::2] @ coarse.matrices)


def test_order_and_compose_interpolate_onto_the_union_of_unrelated_grids():
    # 100 and 151 samples share only t = 0, 1/3, 2/3, 1, too few to restrict to
    x = gen.rotation_path(1.0, 100)
    y = gen.rotation_path(0.5, 151)
    aligned, _ = paths.align_grids(x, y)
    assert aligned.n_samples == 247
    verdict = paths.order_leq(y, x)  # X Y^-1 = R(t/2), generator 1/2
    assert verdict.status is paths.ConeStatus.DOMINANT
    assert abs(verdict.min_eigenvalue - 0.5) < 1e-3
    product = paths.compose(x, y)
    assert product.n_samples == 247
    assert np.abs(product.endpoint - x.endpoint @ y.endpoint).max() < 1e-15


def test_pointwise_power_matches_repeated_compose():
    rng = np.random.default_rng(9)
    x = gen.random_symplectic_path(2, rng, scale=0.7, n_samples=65)
    cubed = paths.pointwise_power(x, 3)
    manual = np.einsum("tij,tjk,tkl->til", x.matrices, x.matrices, x.matrices)
    assert np.abs(cubed.matrices - manual).max() < 1e-11


def test_pointwise_power_zero_gives_identity():
    x = gen.rotation_path(1.0, 65)
    assert np.abs(paths.pointwise_power(x, 0).matrices - np.eye(2)).max() == 0.0


def test_pointwise_negative_power_inverts():
    x = gen.rotation_path(1.0, 65)
    lhs = paths.pointwise_power(x, -2).matrices
    rhs = np.linalg.inv(paths.pointwise_power(x, 2).matrices)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_embed_block_commutes_and_keeps_winding():
    inner = gen.rotation_path(1.2, 129)
    a = paths.embed_block(inner, 1, 2)
    b = paths.embed_block(inner, 2, 2)
    prod_ab = np.einsum("tij,tjk->tik", a.matrices, b.matrices)
    prod_ba = np.einsum("tij,tjk->tik", b.matrices, a.matrices)
    assert np.abs(prod_ab - prod_ba).max() < 1e-14
    assert a.dim == 4


def test_classify_cone_dominant_rotation():
    verdict = paths.classify_cone(gen.rotation_path(1.0, 257))
    assert verdict.status is paths.ConeStatus.DOMINANT
    assert verdict.certifies
    assert abs(verdict.min_eigenvalue - 1.0) < 1e-3


def test_classify_cone_identity_is_semipositive():
    verdict = paths.classify_cone(paths.pointwise_power(gen.rotation_path(1.0, 65), 0))
    assert verdict.status is paths.ConeStatus.SEMIPOSITIVE
    assert verdict.certifies


def test_classify_cone_negative_rotation():
    verdict = paths.classify_cone(gen.rotation_path(-1.0, 257))
    assert verdict.status is paths.ConeStatus.NEGATIVE
    assert not verdict.certifies


def test_classify_verdict_dead_band():
    tol = 1e-6
    assert paths.classify_verdict(2 * tol, tol).status is paths.ConeStatus.DOMINANT
    assert paths.classify_verdict(0.0, tol).status is paths.ConeStatus.SEMIPOSITIVE
    assert paths.classify_verdict(-2 * tol, tol).status is paths.ConeStatus.NEGATIVE


def test_order_leq_on_rotations():
    slow = gen.rotation_path(1.0, 257)
    fast = gen.rotation_path(2.0, 257)
    up = paths.order_leq(slow, fast)
    assert up.certifies and up.status is paths.ConeStatus.DOMINANT
    down = paths.order_leq(fast, slow)
    assert not down.certifies and down.status is paths.ConeStatus.NEGATIVE


def test_order_leq_is_reflexive_up_to_tolerance():
    path = gen.rotation_path(1.3, 257)
    verdict = paths.order_leq(path, path)
    assert verdict.certifies


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.integers(-8, 8),
       st.sampled_from([17, 20, 50, 65]))
def test_derived_paths_stay_symplectic(seed, dim, k, samples):
    # the group operations build their results without the residual check of
    # the public constructor; products, symplectic inverses and exponentials
    # of Hamiltonian matrices keep Sp(2n) by algebra, up to rounding
    rng = np.random.default_rng(seed)
    x = gen.random_symplectic_path(dim, rng, scale=1.0, n_samples=65)
    y = gen.random_symplectic_path(dim, rng, scale=1.0, n_samples=samples)
    derived = [paths.invert(x), paths.compose(x, y), paths.compose(x, paths.invert(y)),
               paths.pointwise_power(x, k), paths.pointwise_power(y, k),
               paths.resample(x, np.union1d(x.times, rng.uniform(0.0, 1.0, 20))),
               paths.refine(y), paths.resample(x, x.times[::2]), *paths.align_grids(x, y)]
    if dim == 2:
        derived.append(paths.embed_block(y, 2, 3))
    for path in derived:
        assert matrices.is_symplectic(path.matrices)


def test_product_of_powers_of_a_hyperbolic_pair_builds():
    # X^16 Y^-8 with Y = X^2 is the identity path; its rounding, about
    # eps |X^16| |Y^-8|, is above what the public constructor accepts
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 2049)
    y = paths.pointwise_power(x, 2)
    with pytest.raises(InputError, match="leave Sp"):
        paths.SampledPath(x.times, paths.pointwise_power(x, 16).matrices
                          @ paths.pointwise_power(y, -8).matrices)
    z = paths.compose(paths.pointwise_power(x, 16), paths.pointwise_power(y, -8))
    assert z.n_samples == 2049
    assert np.abs(z.matrices - np.eye(2)).max() < 1e-6


def test_overflowing_power_is_a_computation_error():
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 65)
    for k in (2000, -2000):
        with pytest.raises(ComputationError):
            paths.pointwise_power(x, k)
    # 2^600 is finite, though its residual overflows the constructor's check;
    # the product of two such powers overflows, without a numpy warning
    big = paths.pointwise_power(x, 600)
    with pytest.raises(ComputationError):
        paths.compose(big, big)


def test_resample_refuses_bad_grids_before_any_track(monkeypatch):
    tracks = _count_tracks(monkeypatch)
    path = gen.rotation_path(2.0, 65)
    shuffled = path.times.copy()
    shuffled[[10, 20]] = shuffled[[20, 10]]
    for bad, match in ((shuffled, "increasing"), (path.times[1:], "start at 0"),
                       (path.times[:-1], "end at 1")):
        # with and without a time that is not stored, which would need a track
        for grid in (bad, np.insert(bad, 1, 0.001)):
            with pytest.raises(InputError, match=match):
                paths.resample(path, grid)
    # a time far outside [0, 1] is refused, not extrapolated until it overflows
    hyperbolic = maslov.positive_path_to(np.diag([2.0, 0.5]), 65)
    with pytest.raises(InputError, match="end at 1"):
        paths.resample(hyperbolic, np.array([0.0, 0.5, 1e5]))
    with pytest.raises(InputError, match="finite"):
        paths.resample(hyperbolic, np.array([0.0, np.nan, 1.0]))
    assert tracks == []
