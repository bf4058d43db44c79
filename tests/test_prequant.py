import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import prequant
from symporder.errors import InputError


def cosine_leaf(n=256):
    (p,) = prequant.torus_grid((n,))
    return prequant.normalize_leaf(np.cos(2 * np.pi * p))


def test_torus_grid_shapes_and_range():
    x, y = prequant.torus_grid((4, 8))
    assert x.shape == (4, 8) and y.shape == (4, 8)
    assert x.min() == 0.0 and x.max() == 0.75
    assert y[0, 1] == 0.125


def test_leaf_function_rejects_false_normalization_claim():
    with pytest.raises(ValueError):
        prequant.LeafFunction(np.ones(8), normalized=True)


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
    zero = prequant.LeafFunction(np.zeros(32), normalized=True)
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
