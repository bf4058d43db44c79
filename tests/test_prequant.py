import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import prequant
from symporder.errors import ComputationError, InputError


def cosine_leaf(n=256):
    (p,) = prequant.torus_grid((n,))
    return prequant.normalize_leaf(np.cos(2 * np.pi * p))


def test_torus_grid_shapes_and_range():
    x, y = prequant.torus_grid((4, 8))
    assert x.shape == (4, 8) and y.shape == (4, 8)
    assert x.min() == 0.0 and x.max() == 0.75
    assert y[0, 1] == 0.125


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_leaf_function_and_shift_must_be_finite(bad):
    values = np.zeros(8)
    values[3] = bad
    with pytest.raises(InputError, match="finite"):
        prequant.LeafFunction(values)
    with pytest.raises(InputError, match="finite"):
        prequant.fiber_rotation(bad, (8,))


def test_normalize_leaf_subtracts_mean():
    leaf = prequant.normalize_leaf(np.array([1.0, 2.0, 3.0, 6.0]))
    assert leaf.normalized
    assert leaf.values.mean() == 0.0


def test_normalize_leaf_with_a_large_common_offset():
    # one subtraction of the mean leaves a residual near ulp(1e6) ~ 4e-11,
    # far above the tolerance for centered values of size 1
    leaf = prequant.normalize_leaf(np.array([1e6 + 2.0, 1e6, 1e6]))
    assert prequant.is_normalized(leaf.values)
    assert leaf.values == pytest.approx([4 / 3, -2 / 3, -2 / 3], abs=1e-9)


def test_mean_fold_hands_the_subtracted_mean_to_the_shift():
    # a grid the first pass normalizes keeps the one-subtraction mean and values
    values = np.random.default_rng(2).normal(size=(8, 4)) + 3.0
    mean, leaf = prequant._fold_mean(values)
    assert mean == float(values.mean())
    assert np.array_equal(leaf.values, values - values.mean())
    # with a large offset the second pass's residual goes into the mean too
    offset = np.array([1e6 + 2.0, 1e6, 1e6])
    mean, leaf = prequant._fold_mean(offset)
    assert np.array_equal(leaf.values, prequant.normalize_leaf(offset).values)
    assert mean + leaf.values == pytest.approx(offset, rel=1e-15)
    element = prequant.embed_into_z(prequant.LeafFunction(np.log(offset)))
    assert element.generator == pytest.approx(offset, rel=1e-15)


def test_quant_element_requires_normalized_leaf():
    with pytest.raises(InputError):
        prequant.QuantElement(1.0, prequant.LeafFunction(np.ones(8)))


def test_fiber_rotation_and_dominance():
    rot = prequant.fiber_rotation(0.5, (16,))
    assert rot.is_dominant
    assert np.abs(rot.generator - 0.5).max() == 0.0
    assert not prequant.fiber_rotation(-0.1, (16,)).is_dominant


def test_hofer_norms_of_cosine():
    norms = prequant.hofer_norms(cosine_leaf())
    assert norms.plus == pytest.approx(1.0, abs=1e-12)
    assert norms.minus == pytest.approx(1.0, abs=1e-12)


def test_order_bridge_matches_shift_threshold():
    leaf = cosine_leaf()
    assert prequant.order_bridge(1.5, leaf) == (True, False)
    assert prequant.order_bridge(-1.5, leaf) == (False, True)
    assert prequant.order_bridge(1.0, leaf) == (True, False)


def test_gamma_quant_shift_only():
    a = prequant.fiber_rotation(1.0, (8,))
    b = prequant.fiber_rotation(3.0, (8,))
    assert prequant.gamma_quant(a, b) == pytest.approx(3.0)
    assert prequant.gamma_quant(b, a) == pytest.approx(1.0 / 3.0)


def test_gamma_quant_shared_leaf():
    # (3+F)/(2+F) is maximized where F is smallest
    leaf = cosine_leaf()
    a = prequant.QuantElement(2.0, leaf)
    b = prequant.QuantElement(3.0, leaf)
    assert prequant.gamma_quant(a, b) == pytest.approx(2.0, abs=1e-12)


def test_gamma_quant_requires_dominant_base():
    leaf = cosine_leaf()
    with pytest.raises(InputError):
        prequant.gamma_quant(prequant.QuantElement(0.5, leaf),
                             prequant.QuantElement(2.0, leaf))


def test_gamma_n_staircase_values():
    a = prequant.fiber_rotation(1.0, (8,))
    b = prequant.fiber_rotation(1.5, (8,))
    assert prequant.gamma_n_quant_bruteforce(a, b, 1) == 2
    assert prequant.gamma_n_quant_bruteforce(a, b, 2) == 3
    assert prequant.gamma_n_quant_bruteforce(a, b, 4) == 6


def test_gamma_n_refuses_an_n_or_a_product_beyond_the_float_range():
    a = prequant.fiber_rotation(1e-300, (4,))
    b = prequant.fiber_rotation(1.0, (4,))
    with pytest.raises(InputError, match="n must be positive and at most 1.79769e"):
        prequant.gamma_n_quant_bruteforce(b, b, 10 ** 400)
    assert prequant.gamma_quant(a, b) == 1.0 / 1e-300
    with pytest.raises(ComputationError, match="n \\* gamma_quant\\(a, b\\) at n = 1e\\+10"):
        prequant.gamma_n_quant_bruteforce(a, b, 10 ** 10)
    with pytest.raises(ComputationError, match="gamma_quant\\(a, b\\) is not a finite number"):
        prequant.gamma_quant(prequant.fiber_rotation(1e-310, (4,)), b)


@settings(deadline=None)
@given(st.integers(0, 500), st.integers(1, 1000))
def test_gamma_n_sandwich(seed, n):
    rng = np.random.default_rng(seed)
    (p,) = prequant.torus_grid((64,))
    def element():
        values = rng.normal() * np.cos(2 * np.pi * p) + rng.normal() * np.sin(2 * np.pi * p)
        leaf = prequant.normalize_leaf(values)
        return prequant.QuantElement(prequant.hofer_norms(leaf).minus
                                     + float(rng.uniform(0.1, 2.0)), leaf)
    a, b = element(), element()
    gamma = prequant.gamma_quant(a, b)
    m = prequant.gamma_n_quant_bruteforce(a, b, n)
    assert gamma - 1e-9 <= m / n <= gamma + 1.0 / n + 1e-9


def test_k_quant_symmetry_and_identity():
    leaf = cosine_leaf()
    a = prequant.QuantElement(2.0, leaf)
    b = prequant.QuantElement(3.0, leaf)
    assert prequant.k_quant(a, b) == prequant.k_quant(b, a)
    assert prequant.k_quant(a, a) == 0.0
    assert prequant.k_quant(a, b) == pytest.approx(np.log(2.0), abs=1e-12)


def test_rotation_curve_distance_cosine_closed_form():
    result = prequant.rotation_curve_distance(2.0, cosine_leaf())
    assert result.value == pytest.approx(0.5 * np.log(3.0), abs=1e-12)
    assert result.t_star == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_rotation_curve_distance_zero_leaf():
    zero = prequant.LeafFunction(np.zeros(32))
    for s in (0.3, 1.0, 4.0):
        result = prequant.rotation_curve_distance(s, zero)
        assert result.value == 0.0
        assert result.t_star == pytest.approx(s)


def test_rotation_curve_distance_requires_dominance():
    with pytest.raises(InputError):
        prequant.rotation_curve_distance(0.5, cosine_leaf())


@settings(deadline=None)
@given(st.integers(0, 500))
def test_embedding_is_an_isometry(seed):
    rng = np.random.default_rng(seed)
    f = prequant.normalize_leaf(rng.normal(size=128))
    g = prequant.normalize_leaf(rng.normal(size=128))
    lhs = prequant.k_quant(prequant.embed_into_z(f), prequant.embed_into_z(g))
    rhs = float(np.abs(f.values - g.values).max())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_embed_preserves_the_leaf_exponential():
    f = cosine_leaf(64)
    element = prequant.embed_into_z(f)
    assert np.abs(element.generator - np.exp(f.values)).max() < 1e-12
    assert element.is_dominant


def test_calabi_weinstein_vanishes_on_normalized_families():
    rng = np.random.default_rng(12)
    family = [prequant.normalize_leaf(rng.normal(size=64)) for _ in range(7)]
    assert abs(prequant.calabi_weinstein(family)) < 1e-12


def test_calabi_weinstein_constant_family():
    # a family of constant functions integrates to the shared constant
    family = [prequant.LeafFunction(np.full(32, 2.5)) for _ in range(4)]
    assert prequant.calabi_weinstein(family) == pytest.approx(2.5)


def test_calabi_weinstein_weighted_mean():
    values = np.array([1.0, 3.0])
    weights = np.array([3.0, 1.0])
    family = [prequant.LeafFunction(values)] * 3
    assert prequant.calabi_weinstein(family, weights=weights) == pytest.approx(1.5)


def test_calabi_weinstein_time_grid():
    # linear-in-time means integrate exactly under the trapezoid rule
    family = [prequant.LeafFunction(np.full(16, c)) for c in (0.0, 1.0, 2.0)]
    times = np.array([0.0, 0.5, 1.0])
    assert prequant.calabi_weinstein(family, times=times) == pytest.approx(1.0)


def test_calabi_weinstein_rejects_mismatched_shapes():
    family = [prequant.LeafFunction(np.zeros(8)),
              prequant.LeafFunction(np.zeros(16))]
    with pytest.raises(InputError):
        prequant.calabi_weinstein(family)


def test_calabi_weinstein_checks_times_of_a_single_slice():
    family = [prequant.LeafFunction(np.full(8, 2.0))]
    assert prequant.calabi_weinstein(family, times=np.array([0.5])) == 2.0
    with pytest.raises(InputError, match="times"):
        prequant.calabi_weinstein(family, times=np.array([0.0, 0.5]))


def test_leaf_function_reads_normalized_off_its_values():
    assert prequant.LeafFunction(np.zeros(8)).normalized
    assert not prequant.LeafFunction(np.ones(8)).normalized
    assert prequant.normalize_leaf(np.ones(8) + np.arange(8.0)).normalized
    # a grid whose sum overflows has the mean 1e308: not normalized, and no numpy warning
    assert not prequant.LeafFunction(np.full(2, 1e308)).normalized
    # the flag is no constructor argument, so no caller can claim it
    assert [f.name for f in dataclasses.fields(prequant.LeafFunction) if f.init] == ["values"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_order_bridge_and_rotation_distance_refuse_a_non_finite_shift(bad):
    for call in (prequant.order_bridge, prequant.rotation_curve_distance):
        with pytest.raises(InputError, match="fiber shift must be finite"):
            call(bad, cosine_leaf(16))


def test_quant_staircase_index_must_be_an_integer():
    a = prequant.fiber_rotation(1.0, (8,))
    b = prequant.fiber_rotation(2.0, (8,))
    with pytest.raises(InputError, match="n must be an integer, got 2.5"):
        prequant.gamma_n_quant_bruteforce(a, b, 2.5)
    assert prequant.gamma_n_quant_bruteforce(a, b, np.int64(3)) == 6


def test_calabi_weinstein_refuses_non_finite_times_and_weights():
    family = [cosine_leaf(8)] * 2
    with pytest.raises(InputError, match="times and weights must be finite"):
        prequant.calabi_weinstein(family, times=[0.0, np.nan])
    with pytest.raises(InputError, match="times and weights must be finite"):
        prequant.calabi_weinstein(family, weights=np.r_[np.nan, np.ones(7)])


def test_calabi_weinstein_mean_does_not_overflow_and_keeps_finite_bits():
    assert prequant.calabi_weinstein([prequant.LeafFunction(np.full(2, 1e308))]) == 1e308
    rng = np.random.default_rng(5)
    values, weights = rng.normal(size=(3, 16)) * 1e3, rng.uniform(0.1, 2.0, size=16)
    family = [prequant.LeafFunction(v) for v in values]
    means = [float((weights * v).sum() / weights.sum()) for v in values]
    assert prequant.calabi_weinstein(family, weights=weights) == float(
        np.trapezoid(means, np.linspace(0.0, 1.0, 3)))


def test_calabi_weinstein_weights_whose_total_overflows():
    # the total 2e308 overflows; the plain means read NaN or a finite 0.25
    weights = np.full(2, 1e308)
    for values, mean in (([1.0, 3.0], 2.0), ([0.5, 0.5], 0.5), ([1.0, 1.0], 1.0)):
        leaf = prequant.LeafFunction(np.array(values))
        assert prequant.calabi_weinstein([leaf], weights=weights) == mean


_MAX = float(np.finfo(float).max)
# any finite float, the edges of the float range among them
_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e308, -1e308, _MAX, -_MAX]),
                    st.floats(allow_nan=False, allow_infinity=False))
_near_max = st.floats(1e307, _MAX).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def grids(draw) -> np.ndarray:
    """Finite grids of 1 to 12 values: any floats, values near the float
    maximum, or cancelling pairs v, -v."""
    how = draw(st.sampled_from(["any", "near max", "cancelling"]))
    if how == "cancelling":
        halves = draw(st.lists(_floats, min_size=1, max_size=6))
        return np.array([x for v in halves for x in (v, -v)])
    return np.array(draw(st.lists(_floats if how == "any" else _near_max,
                                  min_size=1, max_size=12)))


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(deadline=None, max_examples=300)
@given(values=grids(), weights=st.lists(st.floats(0.0, _MAX), min_size=12, max_size=12))
def test_scaled_reduction_keeps_the_bits_of_every_finite_plain_reduction(values, weights):
    w = np.asarray(weights[:values.size]) + 1.0
    times = np.arange(values.size) + w / _MAX
    for reduce in (np.mean, np.sum, lambda v: (w * v).sum() / w.sum(),
                   lambda v: np.trapezoid(v, times)):
        with np.errstate(over="ignore", invalid="ignore"):
            plain = reduce(values)
        scaled = prequant._scaled(reduce, values)
        if np.isfinite(plain):
            assert _same_bits(scaled, plain)


@settings(deadline=None, max_examples=300)
@given(values=grids(), weights=st.lists(st.floats(0.0, _MAX), min_size=12, max_size=12))
def test_grid_and_weighted_means_are_finite_and_within_the_values(values, weights):
    w = np.asarray(weights[:values.size])
    w[0] = max(w[0], 5e-324)
    lo, hi = float(values.min()), float(values.max())
    # the grid mean may leave the values by the rounding of a float mean
    slack = 4 * values.size * float(np.finfo(float).eps) * float(np.abs(values).max())
    mean = float(prequant._scaled(np.mean, values))
    assert np.isfinite(mean) and lo - slack <= mean <= hi + slack
    # the volume-weighted mean is kept within the values
    weighted = prequant.calabi_weinstein([prequant.LeafFunction(values)], weights=w)
    assert np.isfinite(weighted) and lo <= weighted <= hi


@settings(deadline=None, max_examples=300)
@given(values=grids(), k=st.integers(-1100, 1100))
def test_normalization_does_not_depend_on_a_power_of_two_scale(values, k):
    with np.errstate(over="ignore"):
        scaled = np.ldexp(values, k)
    # 2^k F is a float grid only where the scaling neither overflows nor rounds
    if np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -k), values):
        assert prequant.is_normalized(scaled) == prequant.is_normalized(values)


def test_values_beyond_the_float_range_after_centering_or_shifting_are_refused():
    with pytest.raises(InputError, match="minus their grid mean leave the float range"):
        prequant.normalize_leaf(np.array([1.7e308, -1.7e308, -1.7e308]))
    leaf = prequant.LeafFunction(np.array([2e307, -2e307]))
    with pytest.raises(InputError, match="generator shift"):
        prequant.QuantElement(1.7e308, leaf)
    assert prequant.QuantElement(1.5e308, leaf).generator.max() == 1.7e308


def test_calabi_weinstein_means_stay_within_the_values_and_refuse_negative_weights():
    # three 0.1 sum to 0.30000000000000004; the mean of a constant slice is the constant
    assert prequant.calabi_weinstein([prequant.LeafFunction(np.full(3, 0.1))]) == 0.1
    # the weighted mean of values at the float maximum rounded past it
    leaf = prequant.LeafFunction(np.array([_MAX, 0.0, _MAX]))
    weights = np.array([4.042492750468912e+307, 0.0, 4.967699365681443e+307])
    assert prequant.calabi_weinstein([leaf], weights=weights) == _MAX
    with pytest.raises(InputError, match="weights must be nonnegative"):
        prequant.calabi_weinstein([leaf], weights=np.array([2.0, -1.0, 0.0]))
