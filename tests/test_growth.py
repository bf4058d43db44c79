from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_group_law import (_canonical_staircase, _dominant_path, _endpoint_certified,
                            _endpoint_staircase, _eigvalsh_staircase)

from symporder import generators as gen
from symporder import acceptance, growth, maslov, paths
from symporder.errors import ComputationError, InputError
from symporder.growth import mu_tilde
from symporder.matrices import commutes_with_j, positive_definite
from symporder.paths import pointwise_power


@pytest.fixture(scope="module")
def loops():
    return gen.rotation_loop(1, 513), gen.rotation_loop(2, 513)


def test_estimate_arithmetic():
    # the closed forms are exact points; only a staircase limit has a width
    a = growth.Estimate(4.0, 3.0, 5.0)
    assert a.contains(3.5) and not a.contains(6.0)
    assert growth._positive(2.0) == 2.0


def test_ratio_estimate_rejects_zero_crossing_denominator(loops, monkeypatch):
    # a ratio's denominator, and each term of K, must be a positive winding
    monkeypatch.setattr(growth, "mu_tilde", lambda path: -0.5 if path is loops[0] else 1.0)
    for call in (growth.gamma_closed_symplectic, growth.pseudo_distance_k):
        with pytest.raises(ComputationError, match="homogenized winding of -0.5 is not positive"):
            call(*loops)


def test_mu_tilde_on_loop_is_winding(loops):
    loop1, _ = loops
    assert growth.mu_tilde(loop1) == maslov.maslov_index(loop1).value
    assert growth.mu_tilde(loop1) == pytest.approx(2 * np.pi, abs=1e-6)


def _assert_one_closed_form(x, y):
    """On a dominant unitary pair the homogenized ratio, the winding ratio and
    the staircase's closed form are one number, bit for bit."""
    gamma = growth.gamma_closed_symplectic(x, y).value
    assert gamma == maslov.maslov_index(y).value / maslov.maslov_index(x).value
    assert gamma == growth.growth_estimate(x, y, ns=(1,)).closed_form


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(129, 2049),
       st.sampled_from(["commuting_unitary_pair", "staircase commuting", "staircase"]))
def test_gamma_of_a_unitary_pair_is_the_ratio_of_windings(seed, n, samples, source):
    rng = np.random.default_rng(seed)
    if source == "commuting_unitary_pair":
        x, y, _ = gen.commuting_unitary_pair(n, rng, n_samples=samples)
    else:
        with mock.patch.object(acceptance, "UNITARY_STAIRCASE_SAMPLES", samples):
            x, y = acceptance._unitary_staircase_pair(rng, n, source == "staircase commuting")
    _assert_one_closed_form(x, y)


def test_gamma_of_the_c5_pairs_is_the_ratio_of_windings():
    for i in range(20):
        rng = np.random.default_rng([acceptance.DEFAULT_SEED, 5, i])
        x, y, _ = gen.commuting_unitary_pair(2, rng, n_samples=acceptance.STAIRCASE_SAMPLES)
        _assert_one_closed_form(x, y)


def test_gamma_closed_symplectic_brackets_power_ratio():
    # mu_tilde is homogeneous, so gamma(X, X^2) = 2 with no truncation error
    base = maslov.positive_path_to(np.diag([2.0, 0.5]), n_samples=513)
    squared = pointwise_power(base, 2)
    est = growth.gamma_closed_symplectic(base, squared)
    assert est.lower == est.value == est.upper
    assert est.value == pytest.approx(2.0, rel=1e-12)


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


@pytest.mark.parametrize("p_max", [None, 4])
@pytest.mark.parametrize("ns", [(0,), (1, 0), (0, 2), (-1,)])
def test_growth_estimate_refuses_a_staircase_index_below_1_before_any_work(
        ns, p_max, monkeypatch):
    # the limit divides by the last index; n = 0 is a rung only the bare staircase takes
    x, y = gen.rotation_loop(1, 129), gen.rotation_loop(2, 129)
    assert growth.gamma_n_bruteforce(x, y, 0, 4) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("the pair was examined")

    for name in ("gamma_closed_symplectic", "_require_dominant_pair", "maslov_index",
                 "_staircase"):
        monkeypatch.setattr(growth, name, unreachable)
    bad = next(n for n in ns if n < 1)
    with pytest.raises(InputError, match=f"at least 1, got n={bad}$"):
        growth.growth_estimate(x, y, ns=ns, p_max=p_max)


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
# 64 r = 98 + 5e-8, inside the floor's slack: the floor is 98, and X^98 Y^-64
# winds about -3e-7, inside the fold of tol, so the endpoint certificate
# accepts 98 and refuses 97
CHAIN_R = (98 + 5e-8) / 64


def _golden_pair():
    """The non-unitary pair of the golden ``gamma`` report: a positive path to
    diag(2, 1/2) against a rotation, decided by the canonical certificate."""
    return (maslov.positive_path_to(np.diag([2.0, 0.5]), 257),
            gen.rotation_path(3.0, 257))


def test_unitary_staircase_probes_the_winding_floor_and_the_power_below(monkeypatch):
    x, y = _power_pair(3, 2049, BENCH_R)
    calls, probes = [], []
    quanta = growth._endpoint_quanta

    def counted(hams, shift):
        calls.append(shift)
        return positive_definite(hams, shift)

    def recorded(z_end, p, n, *rest):
        probes.append(p)
        return quanta(z_end, p, n, *rest)

    monkeypatch.setattr(growth, "positive_definite", counted)
    monkeypatch.setattr(growth, "_endpoint_quanta", recorded)
    assert growth._staircase(x, y, ((64, 128),), paths.CONE_TOL)[:3] == (
        [98], [98], ["endpoint"])
    # one dominance check on X (shift +tol); the endpoint probes 97 and 98
    assert calls == [paths.CONE_TOL] and probes == [97, 98]


def _atom_counts(monkeypatch, x, y, rungs) -> tuple:
    """The staircase of (x, y) over ``rungs``, and how many inverse atoms,
    atom products and track-only products it built."""
    counts = {"inverse_atoms": 0, "products": 0, "tracks": 0}
    matmul, track = growth._PowerAtom.__matmul__, growth._PowerAtom.hams_of_product
    inverse_atom = growth._inverse_atom

    def counted_inverse(path, hams):
        counts["inverse_atoms"] += 1
        return inverse_atom(path, hams)

    def counted_matmul(self, other):
        counts["products"] += 1
        counts["tracks"] -= 1  # a product's own track is not a track-only one
        return matmul(self, other)

    def counted_track(self, other):
        counts["tracks"] += 1
        return track(self, other)

    monkeypatch.setattr(growth, "_inverse_atom", counted_inverse)
    monkeypatch.setattr(growth._PowerAtom, "__matmul__", counted_matmul)
    monkeypatch.setattr(growth._PowerAtom, "hams_of_product", counted_track)
    result = growth._staircase(x, y, rungs, paths.CONE_TOL)[:3]
    monkeypatch.undo()
    return result, counts


def test_unitary_pairs_build_no_atom(monkeypatch):
    # the endpoint certificate decides every unitary rung, at the floor or
    # above it, commuting or not, with floors under -p_max clipped
    pairs = (
        (_power_pair(3, 2049, BENCH_R), ((64, 128),), ([98], [98])),
        (_power_pair(3, 2049, CHAIN_R), ((64, 128),), ([98], [98])),
        (acceptance._unitary_staircase_pair(np.random.default_rng([0, 12, 1]), 2, False),
         ((8, 200), (64, 200)), None),
        (_power_pair(5, 257, -2.0), ((8, 12),), ([-12], [-16])),
    )
    zero = {"inverse_atoms": 0, "products": 0, "tracks": 0}
    for (x, y), rungs, want in pairs:
        (gamma_ns, floors, certificates), counts = _atom_counts(monkeypatch, x, y, rungs)
        assert counts == zero
        assert certificates == ["endpoint"] * len(rungs)
        if want is not None:
            assert (gamma_ns, floors) == want


def test_the_canonical_search_squares_y_once(monkeypatch):
    # off the unitary subgroup every rung runs on [-p_max, p_max]: the atoms
    # of X and X^-1 and Y^-1's atom are built once, and one pass of 6
    # squarings gives every Y^-n for n = 1, 2, 4, ..., 64
    x, y = _golden_pair()
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
        # X^-1's atom comes first, then Y^-1's, the base of the squarings
        if self is other and any(self is atom for atom in inverse_atoms[1:] + squarings):
            squarings.append(product)
        return product

    monkeypatch.setattr(growth._PowerAtom, "__matmul__", counted)
    rungs = tuple((n, 9) for n in growth.GROWTH_NS)
    gamma_ns, floors, certificates, windings = growth._staircase(x, y, rungs, paths.CONE_TOL)
    assert gamma_ns == [1, 1] + [None] * 5 and windings is None
    assert floors == [None] * 7 and certificates == ["canonical"] * 2 + [None] * 5
    assert len(inverse_atoms) == 2
    assert len(squarings) == 6


def test_the_canonical_probes_count_their_products(monkeypatch):
    # at n = 1, p_max = 9: -9 fails, 9 passes, and the bisection probes 0,
    # 4, 2 and 1.  Each probe forms its own power of X by squaring: 4
    # products for X^9 and X^-9, 2 for X^4, 1 for X^2, none for X^0 and X^1;
    # Y^-1 is Y's inverse atom itself.  Then one track-only product per probe
    x, y = _golden_pair()
    assert _atom_counts(monkeypatch, x, y, ((1, 9),)) == (
        ([1], [None], ["canonical"]), {"inverse_atoms": 2, "products": 11, "tracks": 6})


def test_the_staircase_inverts_each_path_once(monkeypatch):
    # a unitary pair inverts only X's samples, for the track of its
    # dominance check; a pair off the unitary subgroup inverts X's again for
    # its atom, and Y's for its track, from which Y^-1's atom is read off Y's
    # own samples
    inverted = []
    invert = paths.symplectic_inverse

    def counted(mats):
        inverted.append(mats.shape)
        return invert(mats)

    for module in (paths, growth):
        monkeypatch.setattr(module, "symplectic_inverse", counted)
    for (x, y), (n, p_max, want), shapes in (
            (_power_pair(3, 2049, BENCH_R), (64, 128, 98), [(2049, 4, 4)]),
            (_golden_pair(), (1, 9, 1), [(257, 2, 2)] * 3)):
        inverted.clear()
        assert growth.gamma_n_bruteforce(x, y, n, p_max) == want
        assert inverted == shapes


def test_windings_and_tracks_go_through_the_public_names(loops, monkeypatch):
    # a winding of X^k is one ``maslov_index(X, k)`` call and a staircase
    # track one ``extract_hamiltonian(X, order)`` call, through the module
    # bindings that the benchmark's tracer wraps
    calls = {"growth.maslov_index": [], "maslov.maslov_index": [],
             "growth.extract_hamiltonian": []}

    def recorded(name, fn):
        def call(path, *args):
            calls[name].append(args)
            return fn(path, *args)
        return call

    for name in calls:
        module, attr = name.split(".")
        module = {"growth": growth, "maslov": maslov}[module]
        monkeypatch.setattr(module, attr, recorded(name, getattr(module, attr)))
    x, y = loops
    growth.pseudo_distance_k(x, y)
    growth.z_coordinate(x)
    growth.z_coordinate(y)
    assert calls["growth.maslov_index"] == [()] * 4
    maslov.homogenize(x, 3)
    assert calls["maslov.maslov_index"] == [(1,), (2,), (3,)]
    calls["growth.maslov_index"].clear()
    calls["growth.extract_hamiltonian"].clear()
    assert growth.gamma_n_bruteforce(*_power_pair(3, 2049, BENCH_R), 64, 128) == 98
    assert calls["growth.extract_hamiltonian"] == [(4,)]
    assert calls["growth.maslov_index"] == [(), ()]


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
    # the homogenized-winding ratio only sizes the default range off the
    # unitary subgroup, so a given p_max skips it, and so does a unitary pair
    x, y = acceptance._unitary_staircase_pair(np.random.default_rng([0, 12, 0]), 2, True)
    calls = []

    def counted(path, *args):
        calls.append(path.n_samples)
        return mu_tilde(path, *args)

    monkeypatch.setattr(growth, "mu_tilde", counted)
    est = growth.growth_estimate(x, y, ns=(8, 64), p_max=200)
    assert calls == []
    assert est == growth.GrowthEstimate(
        ns=(8, 64), gamma_ns=(8, 61), closed_form=0.9277963892236493, floors=(8, 60),
        certificates=("endpoint", "endpoint"))
    assert est.limit_estimate == growth.Estimate(0.953125, 0.9375, 0.953125)
    assert growth.growth_estimate(x, y, ns=(8, 64)) == est and calls == []
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
    # at n = 8 the floors are -16 (under -p_max, so the scan starts at -12
    # past its stop power), -4, 0, 1 and 4, so the scan's first power
    # straddles power 0 or lies below it; negative powers of X(1) come from
    # its adjoint
    x, y = _power_pair(5, 257, r)
    (gamma_n,), _, (certificate,), _ = growth._staircase(x, y, ((8, 12),), paths.CONE_TOL)
    assert certificate == "endpoint"
    assert gamma_n == _eigvalsh_staircase(x, y, 8, 12)


@pytest.mark.parametrize("eps", [0.0, *np.geomspace(1e-12, 2e-6, 40),
                                 *np.linspace(5e-9, 6e-9, 5)])
def test_near_ties_agree_with_the_eigenvalue_bisection(eps):
    # Y = X^(1.5 + eps): at n = 64 the endpoint certificate stops accepting
    # 96 near eps = 5.2e-9 and the floor moves from 96 to 97 just above; a
    # slack without the tolerance band makes the floor 97 while 96 is still
    # accepted.  The reference is the full endpoint scan of ``eigvals``.
    x, y = _power_pair(5, 513, 1.5 + eps)
    for n in (8, 64):
        assert growth.gamma_n_bruteforce(x, y, n, 2 * n) == _endpoint_staircase(x, y, n, 2 * n)


# the two parameters of the test above whose gamma_64 the canonical track
# once decided as 96
@pytest.mark.parametrize("eps", [5.199864762804707e-09, 5.25e-09])
def test_near_tie_rungs_that_rested_on_finite_difference_error(eps):
    # Z = X^96 Y^-64 has an endpoint eigenphase of -1.009e-6, below -tol (its
    # exact generator reaches -1.1576e-6), so gamma_64 = 97.  The order-4
    # track on 513 samples reads -9.83e-7 and accepts 96; on 2049 samples it
    # reads -1.1567e-6 and refuses 96 as well
    x, y = _power_pair(5, 513, 1.5 + eps)
    assert growth.gamma_n_bruteforce(x, y, 64, 128) == 97
    assert _endpoint_certified(x, y, 64, [96, 97]) == [False, True]
    assert _canonical_staircase(x, y, 64, 128) == 96
    assert _canonical_staircase(*_power_pair(5, 2049, 1.5 + eps), 64, 128) == 97


def test_a_certified_power_below_the_winding_floor_is_an_error(loops, monkeypatch):
    # gamma_n = 2n on the loops: the floor is 8 at n = 4 and 16 at n = 8;
    # the forced endpoint certificate accepts every power
    monkeypatch.setattr(growth, "_endpoint_quanta", lambda *args: 0)
    with pytest.raises(ComputationError, match="the endpoint certificate accepts "
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


def test_staircase_bounds_beyond_the_float_range_are_computation_errors():
    # maslov(X) = 1e-307 under maslov(Y) = 10: the winding floor (inf - inf)
    # and the top of the endpoint scan leave the float range; the default
    # range of this unitary pair has no search bound |gamma| n
    x, y = gen.rotation_path(1e-307, 9), gen.rotation_path(10.0, 9)
    with pytest.raises(ComputationError, match=r"winding floor at n=2 .*\(nan\)"):
        growth.growth_estimate(x, y, tol=0.0)
    with pytest.raises(ComputationError, match=r"winding floor at n=2 .*\(nan\)"):
        growth.growth_estimate(x, y, p_max=5, tol=0.0)
    ends = np.eye(1, dtype=complex), np.eye(1, dtype=complex)
    with pytest.raises(ComputationError, match=r"top of the endpoint scan at n=1 .*\(inf\)"):
        growth._least_endpoint_power(ends, (1e-308, 10.0), 1, 5, 5, growth.ENDPOINT_FOLD)


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
    for call in (growth.gamma_closed_symplectic, growth.pseudo_distance_k):
        with pytest.raises(InputError, match="share a dimension"):
            call(x, y)


def test_z_coordinate_of_a_hyperbolic_dominant_does_not_alias_at_k_max_64():
    # the positive path to diag(2, 1/2) winds 4 pi and is not unitary; the
    # winding of its power X^64 aliases (64 times 12.27), so mu_tilde forms
    # no power
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 2049)
    point = growth.z_coordinate(x)
    assert point.coordinate == pytest.approx(np.log(4.0 * np.pi), rel=1e-12)
    assert point.lower == point.coordinate == point.upper


def test_closed_form_of_a_hyperbolic_dominant_and_its_square_is_2():
    # the pair of ROADMAP item 1b, whose staircase fails at exact ties
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 2049)
    est = growth.growth_estimate(x, pointwise_power(x, 2), ns=(1,), p_max=4)
    assert est.gamma_ns == (2,) and est.closed_form == 2.0


@settings(deadline=None, max_examples=24)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
def test_unitary_staircase_is_nondecreasing_and_subadditive(seed, n, commuting):
    # Y is dominant and the order is bi-invariant and transitive, so
    # X^p >= Y^m gives X^p >= Y^(m-1), and X^a >= Y^m with X^b >= Y^k gives
    # X^(a+b) >= Y^m X^b >= Y^(m+k): gamma_m <= gamma_(m+1) and
    # gamma_(m+k) <= gamma_m + gamma_k for the certified staircase
    x, y = acceptance._unitary_staircase_pair(np.random.default_rng(seed), n, commuting)
    ns = range(1, 13)
    gamma_ns, _, certificates, _ = growth._staircase(x, y, [(m, 400) for m in ns],
                                                     paths.CONE_TOL)
    assert certificates == ["endpoint"] * len(ns)
    gamma = dict(zip(ns, gamma_ns))
    assert all(gamma[m] <= gamma[m + 1] for m in ns[:-1])
    assert all(gamma[m + k] <= gamma[m] + gamma[k] for m in ns for k in ns if m + k in gamma)


def _conjugated(path, p):
    return paths.SampledPath(path.times, p @ path.matrices @ np.linalg.inv(p))


def test_conjugating_by_a_constant_keeps_canonical_rungs_above_the_exact_ones():
    # gamma_n(P X P^-1, P Y P^-1) = gamma_n(X, Y) for a constant symplectic P,
    # and the endpoint certificate gives the exact gamma_n of the unitary pair
    t = gen.uniform_times(1025)
    wobble = np.sin(2 * np.pi * t) / (2 * np.pi)
    x, y = (gen.diagonal_unitary_path(theta[:, None], t)
            for theta in (3 * t + 0.3 * wobble, 5 * t - 0.5 * wobble))
    sp2 = np.diag([4.0, 0.25])
    ns = (1, 2, 4, 8, 16)
    assert growth.growth_estimate(x, y, ns=ns).gamma_ns == (2, 4, 7, 14, 27)
    est = growth.growth_estimate(_conjugated(x, sp2), _conjugated(y, sp2), ns=ns)
    assert est.gamma_ns == (3, 5, 9, 17, 33) and est.certificates == ("canonical",) * 5
    sp4 = np.diag([4.0, 1.0, 0.25, 1.0])
    for seed in (0, 1, 4):
        x, y = acceptance._unitary_staircase_pair(np.random.default_rng([seed, 21, 8, 1]), 2,
                                                  seed % 2 == 0)
        exact = growth.growth_estimate(x, y, ns=(1, 2, 4, 8), p_max=400)
        est = growth.growth_estimate(_conjugated(x, sp4), _conjugated(y, sp4), ns=(1, 2, 4, 8),
                                     p_max=400)
        assert est.certificates == ("canonical",) * 4
        assert all(c >= e for c, e in zip(est.gamma_ns, exact.gamma_ns)), (seed, est, exact)


def test_the_canonical_search_returns_minus_p_max_when_it_certifies():
    # X^p Y^-1 = X^(p + 5) is dominant already at p = -2 = -p_max
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 129)
    y = pointwise_power(x, -5)
    assert growth._staircase(x, y, ((1, 2),), paths.CONE_TOL)[:3] == ([-2], [None], ["canonical"])


def test_the_staircase_refuses_a_negative_n_or_p_max(loops):
    for n, p_max in ((-1, 4), (1, -1)):
        with pytest.raises(InputError, match="n and p_max must be nonnegative"):
            growth.gamma_n_bruteforce(*loops, n, p_max)


def test_log_estimate_refuses_an_interval_reaching_zero(loops, monkeypatch):
    monkeypatch.setattr(growth, "mu_tilde", lambda path: 0.0)
    with pytest.raises(ComputationError, match="homogenized winding of 0 is not positive"):
        growth.z_coordinate(loops[0])


@pytest.mark.parametrize("exponent", [56, 60])
def test_a_rung_beyond_the_endpoint_size_limit_raises_before_its_scan(exponent, monkeypatch):
    # past the limit the congruence test cannot tell whole quanta: an
    # unrefused scan answered 2n - 8 at n = 2^56, below the true gamma_n = 2n
    x, y = gen.rotation_loop(1, 129), gen.rotation_loop(2, 129)
    quanta = mock.Mock(side_effect=growth._endpoint_quanta)
    monkeypatch.setattr(growth, "_endpoint_quanta", quanta)
    n = 2 ** exponent
    with pytest.raises(ComputationError, match=rf"n={n} .* limit 3\.142e\+09"):
        growth.gamma_n_bruteforce(x, y, n, 4 * n)
    assert quanta.call_count == 0
    assert growth.gamma_n_bruteforce(x, y, 64, 256) == 128


def test_the_default_range_of_a_unitary_pair_reaches_the_top_of_its_scan():
    # ceil(|gamma| n) + 8 = 57 at n = 8 fell short of gamma_8 = 59, which
    # the scan's proven top ceil((n maslov(Y) + pi dim) / maslov(X)) reaches
    t = gen.uniform_times(513)
    x = gen.diagonal_unitary_path(np.outer(t, [0.25, 0.25]), t)
    y = gen.diagonal_unitary_path(np.outer(t, [2.0198, 1.0284]), t)
    est = growth.growth_estimate(x, y)
    assert est.gamma_ns == (9, 17, 33, 59, 105, 208, 392)
    assert est.certificates == ("endpoint",) * 7
    # a rung that certified within ceil(|gamma| n) + 8 keeps its power
    hint = growth.gamma_closed_symplectic(x, y).value
    first = [growth.gamma_n_bruteforce(x, y, n, int(np.ceil(hint * n)) + 8) for n in est.ns]
    assert None in first and all(f in (None, g) for f, g in zip(first, est.gamma_ns))
    # an explicit p_max still bounds every rung
    assert growth.gamma_n_bruteforce(x, y, 8, 58) is None
    assert growth.gamma_n_bruteforce(x, y, 8, 59) == 59


def test_the_default_range_of_a_unitary_pair_is_one_scan_of_two_windings(monkeypatch):
    # the pair above, whose range ceil(|gamma| n) + 8 falls short at n = 8:
    # one staircase, the windings of X and Y, and no homogenized winding
    t = gen.uniform_times(513)
    x = gen.diagonal_unitary_path(np.outer(t, [0.25, 0.25]), t)
    y = gen.diagonal_unitary_path(np.outer(t, [2.0198, 1.0284]), t)
    staircase = mock.Mock(side_effect=growth._staircase)
    windings = mock.Mock(side_effect=growth.maslov_index)
    homogenized = mock.Mock(side_effect=growth.mu_tilde)
    monkeypatch.setattr(growth, "_staircase", staircase)
    monkeypatch.setattr(growth, "maslov_index", windings)
    monkeypatch.setattr(growth, "mu_tilde", homogenized)
    est = growth.growth_estimate(x, y)
    assert est.gamma_ns == (9, 17, 33, 59, 105, 208, 392)
    assert staircase.call_count == 1 and homogenized.call_count == 0
    assert [call.args[1:] for call in windings.call_args_list] == [(), ()]


def _unitary_pair(seed: int, source: str):
    if source == "drawn":
        return tuple(_dominant_path(seed, 4, stream, "unitary") for stream in (0, 1))
    return acceptance._unitary_staircase_pair(np.random.default_rng(seed), 2 + seed % 2,
                                              source == "staircase commuting")


@settings(deadline=None, max_examples=12)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["drawn", "staircase commuting", "staircase"]))
def test_the_default_range_of_a_unitary_pair_scans_to_its_proven_top(seed, source):
    # every bound at least max(|L_n|, top_n) scans alike, and the range
    # ceil(|gamma| n) + 8 gives the same power wherever it finds one
    x, y = _unitary_pair(seed, source)
    est = growth.growth_estimate(x, y)
    windings = maslov.maslov_index(x).value, maslov.maslov_index(y).value
    hint = growth.gamma_closed_symplectic(x, y).value
    for n, gamma_n, floor in zip(est.ns, est.gamma_ns, est.floors):
        assert gamma_n is not None
        top = growth._endpoint_top(n, windings, x.dim // 2)
        assert gamma_n == growth.gamma_n_bruteforce(x, y, n, max(abs(floor), top))
        assert growth.gamma_n_bruteforce(x, y, n, int(np.ceil(abs(hint) * n)) + 8) in (
            None, gamma_n)


def test_records_read_their_conclusions_off_their_evidence(loops):
    est = growth.growth_estimate(*loops, ns=(1, 8))
    assert est.limit_estimate == growth.Estimate(2.0, 2.0 - 1 / 8, 2.0)
    assert growth.GrowthEstimate(ns=(8,), gamma_ns=(61,), closed_form=None, floors=(None,),
                                 certificates=("canonical",)).limit_estimate.upper == 61 / 8


@pytest.mark.parametrize("call", [
    lambda x: maslov.maslov_index(x, 2.5),
    lambda x: maslov.homogenize(x, 2.0),
    lambda x: maslov.maslov_index(x, np.float64(2.0)),
    lambda x: pointwise_power(x, 2.5),
    lambda x: growth.growth_estimate(x, x, ns=(1.5,)),
    lambda x: growth.growth_estimate(x, x, ns=(1,), p_max=2.5),
    lambda x: growth.gamma_n_bruteforce(x, x, 2.5, 4),
    lambda x: growth.gamma_n_bruteforce(x, x, 1, 4.0),
])
def test_indices_must_be_integers(loops, call):
    # a unitary and a non-unitary path: the non-unitary power used to fail
    # in the repeated squaring with a TypeError
    for path in (loops[0], maslov.positive_path_to(np.diag([2.0, 0.5]), 65)):
        with pytest.raises(InputError, match="must be an integer"):
            call(path)


def test_numpy_integer_indices_stay_accepted(loops):
    x, y = loops
    assert maslov.maslov_index(x, np.int64(3)).value == maslov.maslov_index(x, 3).value
    assert growth.gamma_n_bruteforce(x, y, np.int64(4), np.int16(16)) == 8
    assert growth.growth_estimate(x, y, ns=np.array([1, 2])).gamma_ns == (2, 4)
