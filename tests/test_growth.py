import numpy as np
import pytest
from test_group_law import _eigvalsh_staircase

from symporder import generators as gen
from symporder import acceptance, growth, maslov, paths
from symporder.errors import ComputationError, InputError
from symporder.growth import mu_tilde
from symporder.matrices import commutes_with_j
from symporder.paths import pointwise_power


@pytest.fixture(scope="module")
def loops():
    return gen.rotation_loop(1, 513), gen.rotation_loop(2, 513)


def test_estimate_arithmetic():
    a = growth.Estimate(4.0, 3.0, 5.0)
    b = growth.Estimate(2.0, 1.0, 3.0)
    r = growth.ratio_estimate(a, b)
    assert (r.value, r.lower, r.upper) == (2.0, 1.0, 5.0)
    lg = growth.log_estimate(b)
    assert lg.lower == 0.0 and lg.value == pytest.approx(np.log(2.0))
    m = growth.max_estimate(a, b)
    assert (m.value, m.lower, m.upper) == (4.0, 3.0, 5.0)
    assert a.contains(3.5) and not a.contains(6.0)


def test_ratio_estimate_rejects_zero_crossing_denominator():
    with pytest.raises(ComputationError):
        growth.ratio_estimate(growth.Estimate(1.0, 1.0, 1.0),
                              growth.Estimate(0.5, -0.5, 1.0))


def test_mu_tilde_on_loop_is_winding(loops):
    loop1, _ = loops
    est = growth.mu_tilde(loop1, k_max=4, c_emp=0.5)
    assert est.value == pytest.approx(2 * np.pi, abs=1e-6)
    assert est.upper - est.lower == pytest.approx(2 * 0.5 / 4)


@pytest.mark.parametrize("c_emp", [-1.0, -5e-324, np.nan, np.inf])
def test_mu_tilde_rejects_a_defect_bound_that_is_negative_or_not_finite(loops, c_emp):
    with pytest.raises(InputError, match="c_emp"):
        growth.mu_tilde(loops[0], k_max=4, c_emp=c_emp)


def test_gamma_closed_unitary_on_loops(loops):
    loop1, loop2 = loops
    assert growth.gamma_closed_unitary(loop1, loop2) == pytest.approx(2.0, abs=1e-8)
    assert growth.gamma_closed_unitary(loop2, loop1) == pytest.approx(0.5, abs=1e-8)


def test_gamma_closed_unitary_requires_dominant(loops):
    loop1, _ = loops
    with pytest.raises(InputError):
        growth.gamma_closed_unitary(loop1, gen.rotation_path(-1.0, 513))


def test_gamma_closed_symplectic_brackets_power_ratio():
    base = maslov.positive_path_to(np.diag([2.0, 0.5]), n_samples=513)
    squared = pointwise_power(base, 2)
    c_emp = maslov.defect_constant(2, num_pairs=6, seed=42)
    est = growth.gamma_closed_symplectic(base, squared, k_max=6, c_emp=c_emp)
    assert est.contains(2.0)
    assert est.value == pytest.approx(2.0, rel=1e-3)


def test_staircase_exact_small_steps(loops):
    loop1, loop2 = loops
    for n, expected in ((1, 2), (2, 4), (4, 8)):
        assert growth.gamma_n_bruteforce(loop1, loop2, n, 12) == expected


def test_staircase_fractional_ratio(loops):
    loop1, loop2 = loops
    # gamma(loop2, loop1) = 1/2: smallest p with 2*pi*p >= n*2*pi*1 at n=3 is 2
    assert growth.gamma_n_bruteforce(loop2, loop1, 3, 12) == 2


def test_staircase_negative_power():
    # Y^-1 needs winding -2*pi, so already p = -1 dominates at n = 1
    loop1 = gen.rotation_loop(1, 513)
    inv = gen.rotation_path(-2 * np.pi, 513)
    assert growth.gamma_n_bruteforce(loop1, inv, 1, 8) <= -1


def test_staircase_none_when_budget_too_small(loops):
    loop1, loop2 = loops
    assert growth.gamma_n_bruteforce(loop1, loop2, 8, 4) is None


def test_staircase_requires_dominant_base(loops):
    loop1, _ = loops
    with pytest.raises(InputError):
        growth.gamma_n_bruteforce(gen.rotation_path(-1.0, 513), loop1, 1, 4)


def test_staircase_resamples_mismatched_grids(loops):
    loop1, _ = loops
    other = gen.rotation_loop(2, 257)
    assert growth.gamma_n_bruteforce(loop1, other, 1, 8) == 2


def test_growth_estimate_full_report(loops):
    loop1, loop2 = loops
    est = growth.growth_estimate(loop1, loop2, ns=(1, 2, 4))
    assert est.closed_form == pytest.approx(2.0, abs=1e-8)
    assert est.gamma_ns == (2, 4, 8)
    assert est.limit_estimate.contains(2.0)


def test_growth_estimate_sandwich_property(loops):
    # gamma <= gamma_n / n <= gamma + 1/n for every rung of the ladder
    loop1, loop2 = loops
    est = growth.growth_estimate(loop1, loop2, ns=(1, 2, 4, 8))
    gamma = est.closed_form
    for n, g in zip(est.ns, est.gamma_ns):
        assert gamma - 1e-9 <= g / n <= gamma + 1.0 / n + 1e-9


def test_pseudo_distance_on_loops(loops):
    loop1, loop2 = loops
    est = growth.pseudo_distance_k(loop1, loop2)
    assert est.value == pytest.approx(np.log(2.0), abs=1e-8)
    assert growth.pseudo_distance_k(loop1, loop1).value == pytest.approx(0.0, abs=1e-9)


def test_pseudo_distance_symmetry(loops):
    loop1, loop2 = loops
    a = growth.pseudo_distance_k(loop1, loop2).value
    b = growth.pseudo_distance_k(loop2, loop1).value
    assert a == pytest.approx(b, abs=1e-12)


def test_z_coordinates_are_log_windings(loops):
    loop1, loop2 = loops
    z1 = growth.z_coordinate(loop1)
    z2 = growth.z_coordinate(loop2)
    assert z1.coordinate == pytest.approx(np.log(2 * np.pi), abs=1e-8)
    gap = abs(z2.coordinate - z1.coordinate)
    assert gap == pytest.approx(growth.pseudo_distance_k(loop1, loop2).value, abs=1e-9)


def test_z_coordinate_requires_dominant():
    with pytest.raises(InputError):
        growth.z_coordinate(gen.rotation_path(-1.0, 513))


def test_growth_estimate_refuses_an_empty_ladder_before_any_work(loops, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the pair was examined")

    monkeypatch.setattr(growth, "gamma_closed_symplectic", unreachable)
    monkeypatch.setattr(growth, "_staircase", unreachable)
    with pytest.raises(InputError, match="at least one staircase index"):
        growth.growth_estimate(*loops, ns=())


def _power_pair(seed: int, n_samples: int, r: float):
    """X in U(2) inside Sp(4) from t -> V diag(w + d cos 2 pi t) V^H, and Y = X^r
    from r times that generator: the staircase benchmark's pair shape."""
    rng = np.random.default_rng([seed, 11])
    v = gen.random_unitary_matrix(2, rng)
    w = rng.uniform(2.0, 4.0, size=2)
    d = rng.uniform(-0.6, 0.6, size=2) * w

    def generator(scale):
        return lambda t: scale * ((v * (w + d * np.cos(2 * np.pi * t))) @ v.conj().T)

    return tuple(gen.unitary_path_from_generator(generator(scale), 2, n_samples)
                 for scale in (1.0, r))


# 64 r = 97.5 as on the benchmark: the endpoint certificate accepts the floor
# 98 and refuses 97, so no atom is built
BENCH_R = 97.5 / 64
# 64 r = 98 + 5e-8, inside the floor's slack: the floor is 98, the endpoint
# certificate refuses it (X^98 Y^-64 winds about -3e-7) and the canonical
# certificate accepts it (its generator stays above -tol), refusing 97
CHAIN_R = (98 + 5e-8) / 64


def test_unitary_staircase_probes_the_winding_floor_and_the_power_below(monkeypatch):
    x, y = _power_pair(3, 2049, BENCH_R)
    calls, probes = [], []
    quanta = growth._endpoint_quanta

    def counted(hams, shift):
        calls.append(shift)
        return paths.cone_holds(hams, shift)

    def recorded(z_end, p, n, windings):
        probes.append(p)
        return quanta(z_end, p, n, windings)

    monkeypatch.setattr(growth, "cone_holds", counted)
    monkeypatch.setattr(growth, "_endpoint_quanta", recorded)
    assert growth._staircase(x, y, ((64, 128),), paths.CONE_TOL)[:3] == (
        [98], [98], ["endpoint"])
    # one dominance check on X (shift +tol); the endpoint probes 97 and 98
    assert calls == [paths.CONE_TOL] and probes == [97, 98]


def _atom_counts(monkeypatch, x, y) -> dict:
    counts = {"products": 0, "tracks": 0}
    matmul, track = growth._PowerAtom.__matmul__, growth._PowerAtom.hams_of_product

    def counted_matmul(self, other):
        counts["products"] += 1
        counts["tracks"] -= 1  # a product's own track is not a track-only one
        return matmul(self, other)

    def counted_track(self, other):
        counts["tracks"] += 1
        return track(self, other)

    monkeypatch.setattr(growth._PowerAtom, "__matmul__", counted_matmul)
    monkeypatch.setattr(growth._PowerAtom, "hams_of_product", counted_track)
    assert growth.gamma_n_bruteforce(x, y, 64, 128) == 98
    monkeypatch.undo()
    return counts


def test_the_floor_pair_shares_one_squaring_pass(monkeypatch):
    # the benchmark pair takes no atom product; on the chain pair Y^-64 takes
    # 6 squarings, X^98 and X^97 share 6 squarings and take 2 products each,
    # then one track-only conjugation per probe, 98 and 97
    assert _atom_counts(monkeypatch, *_power_pair(3, 2049, BENCH_R)) == {
        "products": 0, "tracks": 0}
    x, y = _power_pair(3, 2049, CHAIN_R)
    assert growth._staircase(x, y, ((64, 128),), paths.CONE_TOL)[:3] == (
        [98], [98], ["canonical"])
    assert _atom_counts(monkeypatch, x, y) == {"products": 16, "tracks": 2}


def test_the_staircase_inverts_each_path_once(monkeypatch):
    # X's inverse samples serve its order-4 track and its atom; Y's, formed
    # only for a rung that reaches the canonical search, serve its track,
    # from which Y^-1's atom is read off Y's own samples
    inverted = []
    invert = paths.symplectic_inverse

    def counted(mats):
        inverted.append(mats.shape)
        return invert(mats)

    for module in (paths, growth):
        monkeypatch.setattr(module, "symplectic_inverse", counted)
    for r, times in ((BENCH_R, 1), (CHAIN_R, 2)):
        inverted.clear()
        x, y = _power_pair(3, 2049, r)
        assert growth.gamma_n_bruteforce(x, y, 64, 128) == 98
        assert inverted == [(2049, 4, 4)] * times


def test_growth_estimate_squares_y_once_and_builds_no_inverse_of_x(monkeypatch):
    # n r sits 1e-9 n above an integer: the endpoint certificate decides
    # n = 1 and refuses the floor of n = 2, 4, ..., 64, powers of two, so one
    # pass of 6 squarings gives every Y^-n with no further product
    x, y = _power_pair(3, 513, 1.5 + 1e-9)
    inverse_atoms = []
    build = growth._inverse_atom

    def recorded(path, hams):
        inverse_atoms.append(build(path, hams))
        return inverse_atoms[-1]

    monkeypatch.setattr(growth, "_inverse_atom", recorded)
    squarings = []
    matmul = growth._PowerAtom.__matmul__

    def counted(self, other):
        product = matmul(self, other)
        if self is other and any(self is atom for atom in inverse_atoms + squarings):
            squarings.append(product)
        return product

    monkeypatch.setattr(growth._PowerAtom, "__matmul__", counted)
    est = growth.growth_estimate(x, y)
    assert est.ns == growth.GROWTH_NS
    assert est.certificates == ("endpoint",) + ("canonical",) * 6
    assert est.gamma_ns == est.floors == (2, 3, 6, 12, 24, 48, 96)
    # every floor is at least 1, so only Y's inverse atom is built
    assert len(inverse_atoms) == 1
    assert len(squarings) == 6


def test_growth_estimate_tests_each_path_for_unitarity_once(loops, monkeypatch):
    # the staircase tests the aligned pair and hands its windings back
    calls = []

    def counted(mats):
        calls.append(mats.shape)
        return commutes_with_j(mats)

    monkeypatch.setattr(growth, "commutes_with_j", counted)
    est = growth.growth_estimate(*loops, ns=(1, 2, 4))
    assert est.gamma_ns == (2, 4, 8) and est.closed_form == pytest.approx(2.0, abs=1e-7)
    assert calls == [(513, 2, 2)] * 2


def test_growth_estimate_takes_no_homogenized_winding_with_p_max(monkeypatch):
    # the homogenized-winding ratio only sizes the search ranges, so a given
    # p_max skips it; the estimate is the one the pair gave while it was taken
    x, y = acceptance._unitary_staircase_pair(np.random.default_rng([0, 12, 0]), 2, True)
    calls = []

    def counted(path, *args):
        calls.append(path.n_samples)
        return mu_tilde(path, *args)

    monkeypatch.setattr(growth, "mu_tilde", counted)
    est = growth.growth_estimate(x, y, ns=(8, 64), p_max=200)
    assert calls == []
    assert est == growth.GrowthEstimate(
        ns=(8, 64), gamma_ns=(8, 61), limit_estimate=growth.Estimate(0.953125, 0.9375, 0.953125),
        closed_form=0.9277963892236496, floors=(8, 60), certificates=("endpoint", "endpoint"))
    assert growth.growth_estimate(x, y, ns=(8, 64)) == est and len(calls) == 2
    # the pair is checked the same way, with the same error texts, either way
    for bad, match in ((gen.rotation_loop(1, 129), "share a dimension"),
                       (paths.invert(y), "Y must be dominant")):
        texts = set()
        for p_max in (None, 200):
            with pytest.raises(InputError, match=match) as err:
                growth.growth_estimate(x, bad, ns=(8,), p_max=p_max)
            texts.add(str(err.value))
        assert len(texts) == 1, texts


@pytest.mark.parametrize("r", [-2.0, -0.5, -0.05, 0.05, 0.5])
def test_floors_under_one_take_each_power_from_its_own_direction(r):
    # at n = 8 the floors are -16 (at most -p_max: no floor), -4, 0, 1 and 4,
    # so the floor pair straddles power 0 or lies below it
    x, y = _power_pair(5, 257, r)
    assert growth.gamma_n_bruteforce(x, y, 8, 12) == _eigvalsh_staircase(x, y, 8, 12)


@pytest.mark.parametrize("eps", [0.0, *np.geomspace(1e-12, 2e-6, 40),
                                 *np.linspace(5e-9, 6e-9, 5)])
def test_near_ties_agree_with_the_eigenvalue_bisection(eps):
    # Y = X^(1.5 + eps): at n = 64 the certificate stops accepting 96 near
    # eps = 5.5e-9 and the floor moves from 96 to 97 just above; a slack
    # without the tolerance band makes the floor 97 while 96 is still accepted
    x, y = _power_pair(5, 513, 1.5 + eps)
    for n in (8, 64):
        assert growth.gamma_n_bruteforce(x, y, n, 2 * n) == _eigvalsh_staircase(x, y, n, 2 * n)


def test_a_certified_power_below_the_winding_floor_is_an_error(loops, monkeypatch):
    # gamma_n = 2n on the loops: the floor is 8 at n = 4 and 16 at n = 8;
    # the forced certificate accepts every power, the other none
    for which in ("endpoint", "canonical"):
        monkeypatch.setattr(growth, "_endpoint_quanta",
                            lambda *args: 0 if which == "endpoint" else -1)
        monkeypatch.setattr(growth, "_probe", lambda *args: which == "canonical")
        with pytest.raises(ComputationError, match=f"the {which} certificate accepts "
                                                   "power 7 below the winding floor 8"):
            growth.gamma_n_bruteforce(*loops, 4, 12)
        with pytest.raises(ComputationError, match="power 4 below the winding floor 16"):
            growth.gamma_n_bruteforce(*loops, 8, 4)


def test_endpoint_phases_off_the_winding_are_an_error(loops, monkeypatch):
    # a winding of X off by 0.1 rad leaves the residue 0.1 n rad away from
    # a whole number of 2 pi quanta at every power
    windings = growth._unitary_windings
    monkeypatch.setattr(growth, "_unitary_windings",
                        lambda x, y: (windings(x, y)[0] + 0.1, windings(x, y)[1]))
    with pytest.raises(ComputationError, match=r"X\^7 Y\^-4 miss its winding by 7\.000e-01"):
        growth.gamma_n_bruteforce(*loops, 4, 12)


@pytest.mark.xfail(raises=AssertionError,
                   reason="the atom chain conjugates the finite-difference error "
                          "of H_Y by X^-p, about 2^(2p) here, so rungs n >= 4 find "
                          "no certified power (ROADMAP item 1)")
def test_staircase_of_a_hyperbolic_dominant_and_its_square():
    # X^p >= X^(2n) iff X^(p - 2n) >= 1, so gamma_n = 2n exactly
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 2049)
    y = pointwise_power(x, 2)
    ns = (1, 2, 4, 8)
    assert [growth.gamma_n_bruteforce(x, y, n, 8 * n) for n in ns] == [2 * n for n in ns]


def test_closed_forms_refuse_paths_of_different_dimension():
    x = gen.rotation_loop(1, 129)
    y = gen.unitary_loop([1, 2], n_samples=129)
    for call in (growth.gamma_closed_unitary, growth.gamma_closed_symplectic,
                 growth.pseudo_distance_k):
        with pytest.raises(InputError, match="share a dimension"):
            call(x, y)


@pytest.mark.xfail(raises=AssertionError,
                   reason="maslov(X^k_max) aliases once the power turns more than pi "
                          "between samples: k_max = 10**6 gives -8.82 (ROADMAP item 4)")
def test_z_coordinate_does_not_alias_at_large_k_max():
    # theta = (3t, 5t) winds 8 radians, so an honest coordinate is log 8
    t = np.linspace(0.0, 1.0, 129)
    x = gen.diagonal_unitary_path(np.outer(t, [3.0, 5.0]), t)
    for k_max in (64, 10**6):
        try:
            point = growth.z_coordinate(x, k_max=k_max)
        except ComputationError:
            continue
        assert point.coordinate == pytest.approx(np.log(8.0), rel=1e-9)
