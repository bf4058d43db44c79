import contextlib
import copy
import json
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symporder import cli, generators as gen, io, maslov, matrices, paths, prequant
from symporder.errors import ComputationError, InputError

from children import run_python


@pytest.fixture()
def loop_file(tmp_path):
    name = str(tmp_path / "loop.json")
    io.save_path(gen.rotation_loop(1, 129), name)
    return name


@pytest.fixture()
def cos_grid_file(tmp_path):
    (p,) = prequant.torus_grid((64,))
    name = str(tmp_path / "cos.json")
    io.save_grid(prequant.normalize_leaf(np.cos(2 * np.pi * p)), name)
    return name


def test_path_round_trip_is_bit_exact(tmp_path, loop_file):
    path = gen.rotation_loop(1, 129)
    loaded = io.load_path(loop_file)
    assert np.array_equal(loaded.times, path.times)
    assert np.array_equal(loaded.matrices, path.matrices)


def test_grid_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    leaf = prequant.normalize_leaf(rng.normal(size=(8, 8)))
    name = str(tmp_path / "g.json")
    io.save_grid(leaf, name)
    loaded = io.load_grid(name)
    assert loaded.normalized
    assert np.array_equal(loaded.values, leaf.values)


def test_quant_round_trip_and_mean_folding(tmp_path):
    name = str(tmp_path / "q.json")
    with open(name, "w") as fh:
        json.dump({"shift": 1.0, "grid_shape": [4], "values": [1.0, 2.0, 3.0, 2.0]}, fh)
    element = io.load_quant_element(name)
    assert element.shift == pytest.approx(3.0)
    assert element.func.values.mean() == 0.0
    back = str(tmp_path / "q2.json")
    io.save_quant_element(element, back)
    again = io.load_quant_element(back)
    assert again.shift == element.shift
    assert np.array_equal(again.func.values, element.func.values)


# every finite float64; the edge values are listed so that each run draws them
finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                     1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shape and bytes, so -0.0 differs from 0.0."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def shear_paths(draw) -> paths.SampledPath:
    """Paths of shears [[I, S], [0, I]]: symplectic for every symmetric S, so
    the samples can hold any finite float64."""
    n = draw(st.sampled_from([1, 2]))
    interior = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                             min_size=1, max_size=5, unique=True))
    times = np.array([draw(st.sampled_from([0.0, -0.0])), *sorted(interior), 1.0])
    mats = np.tile(np.eye(2 * n), (times.size, 1, 1))
    upper = np.triu_indices(n)
    for sample in mats[1:]:
        entries = draw(st.lists(finite_floats, min_size=upper[0].size,
                                max_size=upper[0].size))
        sample[:n, n:][upper] = entries
        sample[:n, n:].T[upper] = entries
    return paths.SampledPath(times, mats)


@settings(deadline=None, max_examples=60)
@given(path=shear_paths())
def test_path_round_trip_is_bitwise_for_any_finite_value(tmp_path_factory, path):
    name = str(tmp_path_factory.mktemp("path") / "p.json")
    io.save_path(path, name)
    loaded = io.load_path(name)
    assert _same_bits(loaded.times, path.times)
    assert _same_bits(loaded.matrices, path.matrices)


grid_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), shape=grid_shapes)
def test_grid_round_trip_is_bitwise_for_any_finite_value(tmp_path_factory, data, shape):
    size = int(np.prod(shape))
    values = np.array(data.draw(st.lists(finite_floats, min_size=size, max_size=size)))
    leaf = prequant.LeafFunction(values.reshape(shape))
    name = str(tmp_path_factory.mktemp("grid") / "g.json")
    io.save_grid(leaf, name)
    loaded = io.load_grid(name)
    assert _same_bits(loaded.values, leaf.values)
    assert loaded.normalized == prequant.is_normalized(leaf.values)


@st.composite
def normalized_leaves(draw) -> prequant.LeafFunction:
    """Zero-mean grids: pairs v, -v side by side (any finite v; the float mean
    is exactly zero below 8 values), or moderate values minus their mean."""
    if draw(st.booleans()):
        halves = draw(st.lists(finite_floats, min_size=1, max_size=3))
        values = np.array([x for v in halves for x in (v, -v)])
        return prequant.LeafFunction(values)
    shape = draw(grid_shapes)
    moderate = st.floats(-1e6, 1e6, allow_nan=False)
    values = draw(st.lists(moderate, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return prequant.normalize_leaf(np.reshape(values, shape))


@settings(deadline=None, max_examples=60)
@given(shift=finite_floats, leaf=normalized_leaves())
def test_quant_round_trip_is_bitwise_up_to_the_mean_fold(tmp_path_factory, shift, leaf):
    with np.errstate(over="ignore"):
        generator_fits = bool(np.isfinite(shift + leaf.values).all())
    if not generator_fits:
        # an element whose generator shift + F leaves the float range is refused
        with pytest.raises(InputError, match="generator shift"):
            prequant.QuantElement(shift, leaf)
        return
    element = prequant.QuantElement(shift, leaf)
    name = str(tmp_path_factory.mktemp("quant") / "q.json")
    io.save_quant_element(element, name)
    loaded = io.load_quant_element(name)
    # the saved values are normalized, so the loader folds no mean into the shift
    assert _same_bits(np.float64(loaded.shift), np.float64(shift))
    assert _same_bits(loaded.func.values, leaf.values)


def test_load_errors_carry_the_filename(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(InputError, match="nope.json"):
        io.load_path(missing)
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,\n  broken\n}')
    with pytest.raises(InputError, match=r"bad.json:2:3"):
        io.load_path(str(bad))
    nokey = tmp_path / "nokey.json"
    nokey.write_text('{"dim": 2}')
    with pytest.raises(InputError, match="times"):
        io.load_path(str(nokey))


def test_load_path_validates_contents(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "dim": 2,
        "times": [0.0, 0.5, 1.0],
        "matrices": [[1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]],
    }))
    with pytest.raises(InputError, match="broken.json"):
        io.load_path(str(broken))


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_maslov_report(loop_file, capsys):
    code, out, err = run_cli(["maslov", loop_file], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "maslov"
    assert doc["turns"] == pytest.approx(1.0, abs=1e-9)
    assert "radians" in doc["convention"]
    assert doc["version"]


def test_cli_out_flag_writes_file(tmp_path, loop_file, capsys):
    dest = str(tmp_path / "report.json")
    code, out, _ = run_cli(["maslov", loop_file, "--out", dest], capsys)
    assert code == 0 and out == ""
    with open(dest) as fh:
        assert json.load(fh)["command"] == "maslov"


def test_cli_is_deterministic_across_processes(loop_file):
    cmd = ["-m", "symporder.cli", "maslov", loop_file]
    first = run_python(cmd, text=False, check=True)
    second = run_python(cmd, text=False, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def _write_doc(tmp_path, name: str, doc: dict) -> str:
    target = tmp_path / name
    target.write_text(json.dumps(doc))  # NaN and inf pass as JSON extensions
    return str(target)


def _malformed_inputs(tmp_path, loop_file) -> list:
    """(argv, message fragment) pairs for inputs that must exit 1."""
    with open(loop_file) as fh:
        loop = json.load(fh)
    nan_sample, inf_sample, nan_time, bool_sample, str_time = (
        copy.deepcopy(loop) for _ in range(5))
    nan_sample["matrices"][5][0] = float("nan")
    inf_sample["matrices"][5][1] = float("inf")
    nan_time["times"][5] = float("nan")
    bool_sample["matrices"][5][1] = True  # numpy would read it as 1.0
    str_time["times"][5] = repr(str_time["times"][5])
    bool_sample = _write_doc(tmp_path, "bool_sample.json", bool_sample)
    str_time = _write_doc(tmp_path, "str_time.json", str_time)
    nan_sample = _write_doc(tmp_path, "nan_sample.json", nan_sample)
    inf_sample = _write_doc(tmp_path, "inf_sample.json", inf_sample)
    nan_time = _write_doc(tmp_path, "nan_time.json", nan_time)
    float_dim = _write_doc(tmp_path, "float_dim.json", dict(loop, dim=2.0))
    bool_dim = _write_doc(tmp_path, "bool_dim.json", dict(loop, dim=True))
    grid = {"grid_shape": [4], "values": [0.5, -0.5, float("nan"), 0.0]}
    nan_grid = _write_doc(tmp_path, "nan_grid.json", grid)
    float_shape = _write_doc(tmp_path, "float_shape.json",
                             {"grid_shape": [4.0], "values": [0.5, -0.5, 0.0, 0.0]})
    good_quant = _write_doc(tmp_path, "quant.json",
                            {"shift": 2.0, "grid_shape": [4], "values": [0.5, -0.5, 0.0, 0.0]})
    nan_shift = _write_doc(tmp_path, "nan_shift.json",
                           {"shift": float("nan"), "grid_shape": [4],
                            "values": [0.5, -0.5, 0.0, 0.0]})
    bool_shift = _write_doc(tmp_path, "bool_shift.json",
                            {"shift": True, "grid_shape": [4], "values": [0.5, -0.5, 0.0, 0.0]})
    float_matrix = _write_doc(tmp_path, "float_matrix.json",
                              {"dim": 2.0, "matrix": [2.0, 0.0, 0.0, 0.5]})
    target = np.diag([2.0, 0.5, 3.0, 1 / 3])
    not_symplectic = _write_doc(tmp_path, "not_symplectic.json",
                                {"dim": 4, "matrix": target.ravel().tolist()})
    float_n = _write_doc(tmp_path, "float_n.json",
                         {"n": 2.0, "real": [1.0, 0.0, 0.0, 1.0], "imag": [0.0] * 4})
    nan_matrix = _write_doc(tmp_path, "nan_matrix.json",
                            {"dim": 2, "matrix": [2.0, 0.0, 0.0, float("nan")]})
    inf_hermitian = _write_doc(tmp_path, "inf_hermitian.json",
                               {"n": 2, "real": [1.0, 0.0, 0.0, float("inf")], "imag": [0.0] * 4})
    huge = copy.deepcopy(loop)
    huge["matrices"][5] = [1e300] * 4  # A^T J A overflows to inf - inf
    huge = _write_doc(tmp_path, "huge_sample.json", huge)
    # diag(1 + (p - 1) t, 1) has determinant p at t = 1, yet a gate scaled by
    # the largest entry squared accepts it
    stretch = _write_doc(tmp_path, "stretch.json", {
        "dim": 2, "times": [0.0, 0.5, 1.0],
        "matrices": [[1.0 + (1e9 - 1.0) * t, 0.0, 0.0, 1.0] for t in (0.0, 0.5, 1.0)]})
    # symplectic, but its eigenvalue 1e-200 is below the tolerance, and the
    # square of its peak overflows a Python float
    far_target = _write_doc(tmp_path, "far_target.json",
                            {"dim": 2, "matrix": [1e200, 0.0, 0.0, 1e-200]})
    good_grid = _write_doc(tmp_path, "grid.json",
                           {"grid_shape": [4], "values": [0.5, -0.5, 0.0, 0.0]})
    dest = str(tmp_path / "dest.json")
    good_matrix = _write_doc(tmp_path, "matrix.json", {"dim": 2, "matrix": [2.0, 0.0, 0.0, 0.5]})
    good_hermitian = _write_doc(tmp_path, "hermitian.json",
                                {"n": 1, "real": [1.0], "imag": [0.0]})
    absent = str(tmp_path / "absent_dir" / "file.out")
    non_utf8 = tmp_path / "latin1.json"
    non_utf8.write_bytes(b'{"dim": 2, "note": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"dim": ' + "9" * 5000 + "}")
    huge_int = _write_doc(tmp_path, "huge_int.json", dict(loop, times=[0, 10**400]))
    loop4 = str(tmp_path / "loop4.json")
    io.save_path(gen.unitary_loop([1, 2], n_samples=129), loop4)
    return [
        (["maslov", nan_sample], "finite"),
        (["cone", nan_sample], "finite"),
        (["maslov", inf_sample], "finite"),
        (["maslov", nan_time], "finite"),
        (["maslov", float_dim], "'dim'"),
        (["cone", float_dim], "'dim'"),
        (["cone", bool_dim], "'dim'"),
        (["cw", nan_grid], "finite"),
        (["cw", float_shape], "'grid_shape'"),
        (["quant-k", good_quant, nan_shift], "finite"),
        (["quant-k", good_quant, bool_shift], "bool_shift.json: 'shift' must hold only numbers"),
        (["cone", bool_sample], "bool_sample.json: 'matrices' must hold only numbers"),
        (["maslov", str_time], "str_time.json: 'times' must hold only numbers"),
        (["synth-positive", float_matrix, dest], "'dim'"),
        (["synth-positive", not_symplectic, dest], "not symplectic"),
        (["synth-positive", far_target, dest], "not positive definite"),
        (["redistribute", float_n, "10.0"], "'n'"),
        (["synth-positive", nan_matrix, dest], "non-finite"),
        (["redistribute", inf_hermitian, "10.0"], "non-finite"),
        (["zcoord", loop_file, "--kmax", "3"], "unrecognized arguments: --kmax"),
        (["kdist", loop_file, loop_file, "--kmax", "3"], "unrecognized arguments: --kmax"),
        (["rot-distance", "nan", good_grid], "finite"),
        (["cone", loop_file, "--tol", "nan"], "finite"),
        (["cw", good_grid, good_grid, "--times", "0,nan"], "finite"),
        (["defect-sample", "--safety", "nan"], "finite"),
        (["gamma", loop_file, loop_file, "--kmax", "3"], "unrecognized arguments: --kmax"),
        (["cw", good_grid, "--weights", "1,2"], "--weights"),
        (["cw", good_grid, "--times", "0,0.5"], "times"),
        (["kdist", loop_file, loop4], "share a dimension"),
        (["gamma", loop_file, loop4], "share a dimension"),
        (["defect-sample", "--dim", "3"], "even"),
        (["defect-sample", "--dim", "-2"], "even"),
        (["defect-sample", "--pairs", "-1"], "pairs"),
        (["defect-sample", "--seed", "-1"], "non-negative"),
        (["verify", "--seed", "-1"], "non-negative"),
        (["synth-positive", float_matrix, dest, "--grid", "-5"], "non-negative"),
        # sizes far beyond the caps fail in argument checking, before any allocation
        (["synth-positive", good_matrix, dest, "--grid", "10000000000000"], "at most 65536"),
        (["synth-positive", good_matrix, dest, "--grid", "100000000000000000000"],
         "at most 65536"),
        (["defect-sample", "--dim", "100000000000", "--pairs", "1"], "at most 64"),
        (["zcoord", loop_file, "--cemp", "0.5"], "unrecognized arguments: --cemp"),
        (["kdist", loop_file, loop_file, "--cemp", "0.5"], "unrecognized arguments: --cemp"),
        (["gamma", loop_file, loop_file, "--pmax", "-1"], "non-negative integer"),
        (["gamma", loop_file, loop_file, "--pmax", "x"], "non-negative integer"),
        (["gamma", loop_file, loop_file, "--pmax", "1.5"], "non-negative integer"),
        (["defect-sample", "--safety", "-1"], "non-negative"),
        (["maslov", huge], "leave Sp(2)"),
        (["maslov", stretch], "leave Sp(2)"),
        (["cone", loop_file, "--tol", "-100"], "non-negative"),
        (["order", loop_file, loop_file, "--tol=-1e-3"], "non-negative"),
        (["gamma", loop_file, loop_file, "--tol", "-1"], "non-negative"),
        (["kdist", loop_file, loop_file, "--tol", "-1"], "non-negative"),
        (["zcoord", loop_file, "--tol=-0.5"], "non-negative"),
        (["redistribute", good_hermitian, "10.0", "--tol", "-1"], "unrecognized arguments: --tol"),
        (["maslov", loop_file, "--out", absent], absent),
        (["synth-positive", good_matrix, absent, "--grid", "9"], absent),
        (["embed", good_grid, absent], absent),
        (["gamma", loop_file, loop_file, "--nmax", "1", "--csv", absent], absent),
        (["maslov", str(tmp_path)], "Is a directory"),
        (["maslov", str(non_utf8)], "utf-8"),
        (["maslov", str(deep)], "recursion"),
        (["maslov", str(long_int)], "digits"),
        (["maslov", huge_int], "'times'"),
    ]


def test_cli_exit_codes(tmp_path, loop_file, capsys):
    code, _, err = run_cli(["maslov", str(tmp_path / "absent.json")], capsys)
    assert code == 1 and "absent.json" in err
    code, _, _ = run_cli(["not-a-command"], capsys)
    assert code == 1
    for argv, fragment in _malformed_inputs(tmp_path, loop_file):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and fragment in err, (argv, err)
        assert "Traceback" not in err


def test_cli_malformed_file_exits_1_in_a_fresh_process(tmp_path, loop_file):
    argv, _ = _malformed_inputs(tmp_path, loop_file)[0]
    proc = run_python(["-m", "symporder.cli", *argv])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_cli_maslov_of_huge_symplectic_samples_warns_nothing(tmp_path):
    # shears [[1, s], [0, 1]]: the phase of det_C 2 - i s turns by -pi/2, and
    # the product of two raw determinants near 1e300 would overflow
    name = str(tmp_path / "shear.json")
    with open(name, "w") as fh:
        json.dump({"dim": 2, "times": [0.0, 0.5, 1.0],
                   "matrices": [[1.0, s, 0.0, 1.0] for s in (0.0, 1e200, 1e300)]}, fh)
    proc = run_python(["-m", "symporder.cli", "maslov", name])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == pytest.approx(-np.pi / 2, abs=1e-15)


def test_cli_maslov_of_huge_sp4_shears_warns_nothing(tmp_path):
    # upper shears s1 in the (0, 2) and s2 in the (1, 3) plane: det_C of the
    # complex-linear part is (2 - i s1)(2 - i s2), whose raw value overflows
    # beyond about 1e154 while each factor turns the phase by -pi/2
    mats = []
    for s1, s2 in ((0.0, 0.0), (1e160, 0.0), (1e160, 1e160), (1e170, 1e170)):
        m = np.eye(4)
        m[0, 2], m[1, 3] = s1, s2
        mats.append(m.reshape(-1).tolist())
    name = str(tmp_path / "shear4.json")
    with open(name, "w") as fh:
        json.dump({"dim": 4, "times": np.linspace(0.0, 1.0, 4).tolist(),
                   "matrices": mats}, fh)
    proc = run_python(["-m", "symporder.cli", "maslov", name])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == pytest.approx(-np.pi, abs=1e-15)


def test_cli_overflowing_powers_exit_2_with_one_error_line(tmp_path):
    # at p = -512 the staircase's track of X^p Y^-n for the hyperbolic pair
    # Y = X^2 overflows; the homogenized winding of a positive path to
    # diag(2, 2.5, 1/2, 1/2.5) forms no power (X^1000 overflows), so it
    # reads 4 pi per plane
    synth, hx, hy = (str(tmp_path / f"{name}.json") for name in ("synth", "hx", "hy"))
    io.save_path(maslov.positive_path_to(np.diag([2.0, 2.5, 0.5, 0.4]), 512), synth)
    x = maslov.positive_path_to(np.diag([2.0, 0.5]), 2049)
    io.save_path(x, hx)
    io.save_path(paths.pointwise_power(x, 2), hy)
    proc = run_python(["-m", "symporder.cli", "gamma", hx, hy, "--nmax", "8", "--pmax", "512"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    proc = run_python(["-m", "symporder.cli", "zcoord", synth])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["coordinate"] == pytest.approx(np.log(8 * np.pi), rel=1e-12)


def test_cli_staircase_and_quant_bounds_that_overflow_exit_with_one_error_line(tmp_path):
    # maslov(X) = 1e-307 under maslov(Y) = 10: the winding floor and the
    # quant product n gamma leave the float range
    x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
    io.save_path(gen.rotation_path(1e-307, 9), x)
    io.save_path(gen.rotation_path(10.0, 9), y)
    a = _write_doc(tmp_path, "a.json", {"grid_shape": [4], "values": [0, 0, 0, 0],
                                        "shift": 1e-310})
    b = _write_doc(tmp_path, "b.json", {"grid_shape": [4], "values": [0, 0, 0, 0],
                                        "shift": 1.0})
    for argv, code, text in (
            (["gamma", x, y, "--tol", "0"], 2, "the winding floor at n=2"),
            (["gamma", x, y, "--tol", "0", "--pmax", "5"], 2, "the winding floor at n=2"),
            (["quant-gamma", a, b], 2, "gamma_quant(a, b) is not a finite number"),
            (["quant-gamma", a, b, "--n", "3"], 2, "gamma_quant(a, b) is not a finite number"),
            (["quant-gamma", b, b, "--n", str(10 ** 400)], 1, "n must be positive and at most")):
        proc = run_python(["-m", "symporder.cli", *argv])
        assert (proc.returncode, proc.stdout) == (code, ""), argv
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert text in proc.stderr, proc.stderr


def test_cli_zcoord_refines_the_base_path_of_an_unresolved_power(tmp_path):
    # a positive path to a random positive Sp(4) target on 257 samples (the
    # seed-18 draw of the group-law tests) winds 8 pi; its 8th power turns
    # 3.13 rad in one step, but the homogenized winding forms no power: the
    # rho-lift steps at most 0.48 rad between the path's own samples
    rng = np.random.default_rng([18, 1])
    v = matrices.complex_to_real(gen.random_unitary_matrix(2, rng))
    target = v @ gen.random_positive_diagonal_target(2, rng) @ v.T
    name = str(tmp_path / "y.json")
    io.save_path(maslov.positive_path_to(0.5 * (target + target.T), 257), name)
    proc = run_python(["-m", "symporder.cli", "zcoord", name])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["coordinate"] == 3.224171427529236
    assert 3.224171427529236 == float(np.log(8 * np.pi))


def test_cli_cone_and_order_of_a_shear_near_the_float_maximum_exit_2(tmp_path):
    # the samples pass the symplectic test, but their differences overflow,
    # so the generator track is not finite: one error line, no numpy warning
    shear = _write_doc(tmp_path, "shear.json", {
        "dim": 2, "times": [0.0, 0.5, 1.0],
        "matrices": [[1.0, 0.0, 0.0, 1.0]] + [[1.0, 1.7e308, 0.0, 1.0]] * 2})
    rotation = str(tmp_path / "rotation.json")
    io.save_path(gen.rotation_path(2.0, 3), rotation)
    for argv in (["cone", shear], ["order", shear, rotation]):
        proc = run_python(["-m", "symporder.cli", *argv])
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr == "error: generator track holds a non-finite number\n", argv


def test_cli_linear_algebra_failure_exits_2(loop_file, capsys, monkeypatch):
    def fail(path):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(maslov, "maslov_index", fail)
    code, out, err = run_cli(["maslov", loop_file], capsys)
    assert (code, out) == (2, "")
    assert err == "error: SVD did not converge\n"


def test_no_cli_command_loads_scipy(tmp_path, loop_file):
    # the matrix exponential is numpy's own, so even the commands that take
    # one (counted through a wrapper bound before the package imports it)
    # start without scipy
    coarse, other = str(tmp_path / "coarse.json"), str(tmp_path / "other.json")
    # steps of pi - 0.005, shared by 4 planes, sit inside the winding guard
    # band: the grid is refined once
    t = gen.uniform_times(9)
    io.save_path(gen.diagonal_unitary_path(np.outer(t, [2 * (np.pi - 0.005)] * 4), t), coarse)
    # 100 samples share only 0 and 1 with the loop's 129: the union resample
    io.save_path(gen.rotation_loop(1, 100), other)
    script = [
        "import sys",
        "from symporder import matrices",
        "calls = []",
        "exp = matrices.matrix_exp",
        "matrices.matrix_exp = lambda a: calls.append(a.shape) or exp(a)",
        "from symporder import cli",
        f"assert cli.run(['cone', {loop_file!r}]) == 0",
        f"assert cli.run(['maslov', {loop_file!r}]) == 0",
        "assert calls == [], calls",
        "assert 'symporder.acceptance' not in sys.modules",
    ]
    for argv in (["maslov", coarse], ["defect-sample", "--pairs", "2"],
                 ["order", loop_file, other]):
        script += ["count = len(calls)", f"assert cli.run({argv!r}) == 0",
                   f"assert len(calls) > count, {argv!r}"]
    script.append("assert 'scipy' not in sys.modules, "
                  "sorted(m for m in sys.modules if 'scipy' in m)")
    proc = run_python(["-c", "\n".join(script)])
    assert proc.returncode == 0, proc.stderr


def _loaded_after(steps: list) -> str:
    """Script lines that run each (cli argument lists, loaded, absent) step in
    one process, then check which package modules are loaded after it."""
    lines = ["import sys", "import symporder",
             "loaded = [m for m in sys.modules if m.startswith('symporder.')]",
             "assert loaded == [], loaded", "from symporder import cli"]
    for argvs, loaded, absent in steps:
        lines += [f"assert cli.run({argv!r}) == 0" for argv in argvs]
        lines += [f"assert 'symporder.{name}' in sys.modules, {name!r}" for name in loaded]
        lines += [f"assert 'symporder.{name}' not in sys.modules, {name!r}" for name in absent]
    return "\n".join(lines)


def test_each_cli_command_loads_only_the_modules_it_reads(tmp_path, loop_file, cos_grid_file):
    qa, qb = str(tmp_path / "qa.json"), str(tmp_path / "qb.json")
    (p,) = prequant.torus_grid((64,))
    leaf = prequant.normalize_leaf(np.cos(2 * np.pi * p))
    io.save_quant_element(prequant.QuantElement(2.0, leaf), qa)
    io.save_quant_element(prequant.QuantElement(3.0, leaf), qb)
    quant = [["quant-gamma", qa, qb, "--n", "10"], ["quant-k", qa, qb],
             ["rot-distance", "2.0", cos_grid_file],
             ["embed", cos_grid_file, str(tmp_path / "embedded.json")],
             ["cw", cos_grid_file, cos_grid_file]]
    linear = ("growth", "maslov", "generators")
    scripts = [
        _loaded_after([
            ([["cone", loop_file], ["order", loop_file, loop_file]], (),
             linear + ("prequant",)),
            (quant, ("prequant",), linear + ("acceptance",)),
        ]),
        _loaded_after([
            ([["zcoord", loop_file]], ("growth",), ("prequant", "acceptance")),
            ([["verify", "--suite", "quant"]], ("acceptance",), ()),
        ]),
    ]
    for script in scripts:
        proc = run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr


def test_cli_verify_suites_are_the_acceptance_suites():
    from symporder import acceptance

    assert sorted(cli.VERIFY_SUITES) == sorted(acceptance.SUITES)


def test_cli_report_never_holds_a_non_finite_number(capsys):
    with pytest.raises(ComputationError, match="non-finite"):
        cli._emit("maslov", {"value": float("nan")}, None)
    assert capsys.readouterr().out == ""


def test_cli_order_and_cone(tmp_path, loop_file, capsys):
    fast = str(tmp_path / "fast.json")
    io.save_path(gen.rotation_loop(2, 129), fast)
    code, out, _ = run_cli(["order", fast, loop_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certifies"] is True and doc["status"] == "dominant"
    code, out, _ = run_cli(["cone", loop_file], capsys)
    assert json.loads(out)["status"] == "dominant"


def test_cli_synth_and_reload(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"dim": 2, "matrix": [2.0, 0.0, 0.0, 0.5]}))
    dest = str(tmp_path / "path.json")
    code, out, _ = run_cli(["synth-positive", str(target), dest, "--grid", "129"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["endpoint_error"] < 1e-8
    assert doc["winding"] <= doc["winding_budget"] + 1e-6
    reloaded = io.load_path(dest)
    assert np.abs(reloaded.endpoint - np.diag([2.0, 0.5])).max() < 1e-8


def test_cli_redistribute(tmp_path, capsys):
    herm = tmp_path / "herm.json"
    herm.write_text(json.dumps({"n": 2, "real": [5 * np.pi, 0.0, 0.0, -np.pi],
                                "imag": [0.0, 0.0, 0.0, 0.0]}))
    code, out, _ = run_cli(["redistribute", str(herm), str(4 * np.pi)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["eigenvalues"]) == pytest.approx([np.pi, 3 * np.pi])
    assert doc["trace"] == pytest.approx(4 * np.pi)


def test_cli_redistribute_refuses_a_target_off_the_congruence_class(tmp_path, capsys):
    # with [[1.0]] the trace after any redistribution is 1 + 2 pi k, never 9.0
    herm = tmp_path / "herm.json"
    herm.write_text(json.dumps({"n": 1, "real": [1.0], "imag": [0.0]}))
    code, out, err = run_cli(["redistribute", str(herm), "9.0"], capsys)
    assert (code, out) == (1, "")
    assert "not congruent" in err


def test_cli_redistribute_keeps_a_1e4_report_and_refuses_1e16(tmp_path, capsys):
    herm = _write_doc(tmp_path, "herm.json", {"n": 2, "real": [5.0, 0.3, 0.3, -1.0],
                                              "imag": [0.0, -0.2, 0.2, 0.0]})
    code, out, _ = run_cli(["redistribute", herm, "10006.831009029902"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "command": "redistribute", "convention": cli.CONVENTION, "version": "0.1.0",
        "eigenvalues": [5006.677100836182, 5000.153908193718],
        "endpoint_error": 5.294145662932972e-12, "target_mu": 10006.831009029902,
        "trace": 10006.8310090299}
    proc = run_python(["-m", "symporder.cli", "redistribute", herm, "1e16"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "limit 2^27" in proc.stderr


def test_cli_argument_errors_quote_a_long_token_by_its_head_and_length(tmp_path):
    # one fresh process runs ``main`` on each argument list; a 5,001-character
    # token, past Python's 4,300-digit int limit, is quoted by 40 characters
    # and its length, and a token of at most 40 keeps its whole repr
    x = _write_doc(tmp_path, "x.json", {})
    long = "7" * 5001
    cases = [["quant-gamma", x, x, "--n", long], ["gamma", x, x, "--nmax", long],
             ["kdist", x, x, "--kmax", long], ["defect-sample", "--pairs", long],
             ["gamma", x, x, "--pmax", long], ["defect-sample", "--seed", long],
             ["defect-sample", "--dim", long], ["redistribute", x, long],
             ["verify", "--suite", long], [long], ["maslov", x, long]]
    short = {"error: argument --nmax: invalid int value: 'x'\n": ["gamma", x, x, "--nmax", "x"],
             "error: argument target_mu: expected a finite number, got 'x'\n":
                 ["redistribute", x, "x"],
             "error: unrecognized arguments: b c\n": ["maslov", x, "b", "c"],
             f"error: argument --suite: invalid choice: '{'a' * 40}' (choose from 'all', "
             "'linear', 'quant')\n": ["verify", "--suite", "a" * 40]}
    script = (
        "import contextlib, io, json, sys\n"
        "from symporder import cli\n"
        "for argv in json.load(sys.stdin):\n"
        "    sys.argv, err = ['symporder', *argv], io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            cli.main()\n"
        "        except SystemExit as exc:\n"
        "            print(json.dumps([exc.code, err.getvalue()]))\n")
    proc = run_python(["-c", script], input=json.dumps(cases + list(short.values())))
    assert (proc.returncode, proc.stderr) == (0, "")
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(cases) + len(short)
    for argv, (code, err) in zip(cases, results):
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert "'77777" in err and "(5001 characters)" in err, err
        # the subcommand error also lists the 15 subcommands, fixed text of 175
        # characters after the token
        assert len(err.split(" (choose from ")[0]) <= 200, err
    assert [err for _, err in results[len(cases):]] == list(short)


def test_cli_file_errors_quote_a_long_name_or_value_by_its_head_and_length(tmp_path, capsys):
    # a 5,001-character file name (too long to open) and a 5,000-character
    # string for "dim" each give one line naming 40 characters and the length
    long_name = str(tmp_path / ("a" * 5001))
    assert run_cli(["maslov", long_name], capsys) == (
        1, "", f"error: {long_name[:40]!r}... ({len(long_name)} characters): "
               "File name too long\n")
    dim_file = _write_doc(tmp_path, "dim.json", {"dim": "d" * 5000, "times": [], "matrices": []})
    assert run_cli(["maslov", dim_file], capsys) == (
        1, "", f"error: {dim_file}: 'dim' must be a positive integer, got "
               f"'{'d' * 40}'... (5000 characters)\n")


def test_cli_refuses_a_winding_its_samples_cannot_decide(tmp_path, capsys):
    # steps of pi +- 0.005 in one plane creep on refining instead of halving
    name = str(tmp_path / "coarse.json")
    for angle in (8 * (np.pi + 0.005), 8 * (np.pi - 0.005)):
        io.save_path(gen.rotation_path(angle, 9), name)
        assert run_cli(["maslov", name], capsys) == (
            2, "", "error: refining to 17 samples left the largest winding step at 3.1341 "
                   "rad (from 3.1366); the samples cannot resolve the winding\n")


def test_cli_gamma_with_csv(tmp_path, capsys):
    # exact-tie staircase rungs need a fine grid to come out sharp
    slow, fast = str(tmp_path / "slow.json"), str(tmp_path / "fast.json")
    io.save_path(gen.rotation_loop(1, 513), slow)
    io.save_path(gen.rotation_loop(2, 513), fast)
    csv = str(tmp_path / "stairs.csv")
    code, out, _ = run_cli(["gamma", slow, fast, "--nmax", "4", "--csv", csv], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_ns"] == [2, 4, 8]
    assert doc["closed_form"] == pytest.approx(2.0, abs=1e-7)
    with open(csv) as fh:
        assert fh.read() == "n,gamma_n\n1,2\n2,4\n4,8\n"


def test_cli_gamma_reports_are_golden(tmp_path, capsys):
    # a commuting unitary pair searches from its winding floors, a positive X
    # with a rotation Y has no floor and searches from -p_max; its closed form
    # is 3 / (4 pi)
    ux, uy, px, py = (str(tmp_path / f"{name}.json") for name in ("ux", "uy", "px", "py"))
    x, y, _ = gen.commuting_unitary_pair(2, np.random.default_rng(3), 257)
    io.save_path(x, ux)
    io.save_path(y, uy)
    io.save_path(maslov.positive_path_to(np.diag([2.0, 0.5]), 257), px)
    io.save_path(gen.rotation_path(3.0, 257), py)
    # each unitary rung is decided by the endpoint certificate at its floor
    cases = (
        ([ux, uy], [1, 2, 3, 6, 12, 23, 45],
         (0.6882572844807983, 0.703125, 0.6875, 0.703125),
         [1, 2, 3, 6, 12, 23, 45], ["endpoint"] * 7),
        ([px, py, "--nmax", "2"], [1, 1], (0.23873241463784306, 0.5, 0.0, 0.5),
         [None, None], ["canonical"] * 2),
    )
    for argv, gamma_ns, numbers, floors, certificates in cases:
        code, out, err = run_cli(["gamma", *argv], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["gamma_ns"] == gamma_ns
        got = tuple(doc[key] for key in ("closed_form", "limit", "limit_lower", "limit_upper"))
        assert got == pytest.approx(numbers, abs=1e-12)
        assert (doc["floors"], doc["certificates"]) == (floors, certificates)


def test_cli_reports_fed_by_extraction_and_winding_are_golden(tmp_path, capsys):
    # the pairs of the golden gamma test; every field is pinned bit for bit
    ux, uy, px, py = (str(tmp_path / f"{name}.json") for name in ("ux", "uy", "px", "py"))
    x, y, _ = gen.commuting_unitary_pair(2, np.random.default_rng(3), 257)
    io.save_path(x, ux)
    io.save_path(y, uy)
    io.save_path(maslov.positive_path_to(np.diag([2.0, 0.5]), 257), px)
    io.save_path(gen.rotation_path(3.0, 257), py)
    target = _write_doc(tmp_path, "target.json", {"dim": 2, "matrix": [2.0, 0.0, 0.0, 0.5]})
    synth = str(tmp_path / "synth.json")
    cases = (
        (["cone", ux], {"certifies": True, "min_eigenvalue": 1.302215249998321,
                        "status": "dominant", "tol": 1e-06}),
        (["cone", px], {"certifies": True, "min_eigenvalue": 7.8328348200171805,
                        "status": "dominant", "tol": 1e-06}),
        (["order", ux, uy], {"certifies": True, "min_eigenvalue": 0.4059576988103269,
                             "status": "dominant", "tol": 1e-06}),
        (["order", px, py], {"certifies": True, "min_eigenvalue": 7.054474566056908,
                             "status": "dominant", "tol": 1e-06}),
        (["synth-positive", target, synth, "--grid", "257"], {
            "endpoint_error": 6.123233995736765e-16,
            "min_generator_eigenvalue": 7.8328348200171805, "samples": 257,
            "winding": 12.566370614359172, "winding_budget": 12.566370614359172}),
        (["maslov", ux], {"max_step": 0.02967223104239914, "turns": 0.944546078508443,
                          "value": 5.934758042438345}),
        (["maslov", px], {"max_step": 0.04908738521234225, "turns": 2.0,
                          "value": 12.566370614359172}),
        (["zcoord", ux], {"coordinate": 1.7808262593179345, "lower": 1.7808262593179345,
                          "upper": 1.7808262593179345}),
        (["zcoord", px], {"coordinate": 2.5310242469692907, "lower": 2.5310242469692907,
                          "upper": 2.5310242469692907}),
        (["kdist", ux, uy], {"lower": 0.37359255095324695, "upper": 0.37359255095324695,
                             "value": 0.37359255095324695}),
        (["kdist", px, py], {"lower": 1.432411958301181, "upper": 1.432411958301181,
                             "value": 1.432411958301181}),
    )
    for argv, fields in cases:
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        doc = json.loads(out)
        assert doc == {"command": argv[0], "convention": cli.CONVENTION,
                       "version": doc["version"], **fields}, argv


def test_cli_gamma_pmax_bounds_every_rung(tmp_path, capsys):
    slow, fast = str(tmp_path / "slow.json"), str(tmp_path / "fast.json")
    io.save_path(gen.rotation_loop(1, 513), slow)
    io.save_path(gen.rotation_loop(2, 513), fast)
    code, out, _ = run_cli(["gamma", slow, fast, "--nmax", "4", "--pmax", "8"], capsys)
    assert code == 0 and json.loads(out)["gamma_ns"] == [2, 4, 8]
    code, out, err = run_cli(["gamma", slow, fast, "--nmax", "4", "--pmax", "7"], capsys)
    assert (code, out) == (2, "")
    assert "no certified power found at n=4 within p_max=7" in err and "--pmax" in err


def test_cli_quant_commands(tmp_path, cos_grid_file, capsys):
    qa, qb = str(tmp_path / "qa.json"), str(tmp_path / "qb.json")
    (p,) = prequant.torus_grid((64,))
    leaf = prequant.normalize_leaf(np.cos(2 * np.pi * p))
    io.save_quant_element(prequant.QuantElement(2.0, leaf), qa)
    io.save_quant_element(prequant.QuantElement(3.0, leaf), qb)
    code, out, _ = run_cli(["quant-gamma", qa, qb, "--n", "10"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["gamma"] == pytest.approx(2.0) and doc["gamma_n"] == 20
    code, out, _ = run_cli(["quant-k", qa, qb], capsys)
    assert json.loads(out)["value"] == pytest.approx(np.log(2.0))
    code, out, _ = run_cli(["rot-distance", "2.0", cos_grid_file], capsys)
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5 * np.log(3.0))
    assert doc["minimizer"] == pytest.approx(np.sqrt(3.0))


def test_cli_takes_zero_mean_grids_of_any_scale(tmp_path, capsys):
    # rounding leaves a float mean of about 1e-12 on values near 3e4 or near
    # exp(12); an absolute 1e-12 gate refused both as not normalized.  The
    # grid spans [0, 12], within the range that embed keeps to a few 1e-8.
    (p,) = prequant.torus_grid((64,))
    wide = _write_doc(tmp_path, "wide.json",
                      {"grid_shape": [64], "values": (6 + 6 * np.cos(2 * np.pi * p)).tolist()})
    code, out, err = run_cli(["embed", wide, str(tmp_path / "embedded.json")], capsys)
    assert code == 0, err
    raw = 3e4 * np.random.default_rng(4).normal(size=64)
    large = _write_doc(tmp_path, "large.json",
                       {"grid_shape": [64], "values": (raw - raw.mean()).tolist()})
    code, out, err = run_cli(["rot-distance", "1e6", large], capsys)
    assert code == 0, err
    values = np.asarray(json.loads((tmp_path / "large.json").read_text())["values"])
    assert json.loads(out)["value"] == pytest.approx(
        0.5 * np.log((1e6 + values.max()) / (1e6 + values.min())))


def test_cli_quant_k_takes_values_with_a_large_common_offset(tmp_path, capsys):
    # one subtraction of the float mean leaves a residual near ulp(1e6),
    # which the loader refused as "claimed normalized"
    qa = _write_doc(tmp_path, "qa.json",
                    {"shift": 0.0, "grid_shape": [3], "values": [1e6 + 2, 1e6, 1e6]})
    qb = _write_doc(tmp_path, "qb.json",
                    {"shift": 0.0, "grid_shape": [3], "values": [1e6 + 3, 1e6, 1e6]})
    code, out, err = run_cli(["quant-k", qa, qb], capsys)
    assert code == 0, err
    assert json.loads(out)["value"] == pytest.approx(np.log((1e6 + 3) / (1e6 + 2)),
                                                     rel=1e-9)


def test_cli_embed_takes_a_grid_with_a_large_common_offset(tmp_path, capsys):
    # exp(30) ~ 1e13 leaves a residual mean near 1e-3 after one subtraction,
    # against centered values near 1e7
    (p,) = prequant.torus_grid((64,))
    values = 30 + 1e-6 * np.cos(2 * np.pi * p)
    grid = _write_doc(tmp_path, "offset.json", {"grid_shape": [64], "values": values.tolist()})
    dest = str(tmp_path / "embedded.json")
    code, out, err = run_cli(["embed", grid, dest], capsys)
    assert code == 0, err
    element = io.load_quant_element(dest)
    assert json.loads(out)["shift"] == element.shift
    assert np.allclose(element.generator, np.exp(values), rtol=1e-14, atol=0.0)


def test_cli_embed_refuses_values_whose_exp_overflows(tmp_path):
    # every value is finite, but exp(800) is not; the refusal names the
    # value and the bound, and numpy prints no warning on the way
    grid = _write_doc(tmp_path, "hot.json", {"grid_shape": [4], "values": [800.0, 0.0, 0.0, 0.0]})
    proc = run_python(["-m", "symporder.cli", "embed", grid, str(tmp_path / "embedded.json")])
    assert (proc.returncode, proc.stdout) == (1, "")
    bound = float(np.log(np.finfo(float).max))
    assert proc.stderr == f"error: leaf function value 800.0 exceeds log(max float) = {bound!r}\n"
    assert not (tmp_path / "embedded.json").exists()


def test_cli_embed_refuses_what_quant_k_would_refuse(tmp_path, capsys):
    # exp(-40) lies below one rounding of the mean 0.5 of exp(F): the element
    # would be shift 0.5, values [-0.5, 0.5], which quant-k calls not dominant;
    # the refusal names the rule applied, least generator <= sqrt(eps) shift
    grid = _write_doc(tmp_path, "wide.json", {"grid_shape": [2], "values": [-40.0, 0.0]})
    dest = str(tmp_path / "embedded.json")
    code, out, err = run_cli(["embed", grid, dest], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: leaf function range max F - min F = 40.0 leaves exp(min F) "
                   "at or below sqrt(eps) times the mean of exp(F)\n")
    assert not (tmp_path / "embedded.json").exists()


# (documents, argv, exit code, report fields or the one error line): grid and
# time averages near the float maximum, and generators beyond it, each of
# which printed a numpy RuntimeWarning, a wrong refusal or a wrong answer
_NEAR_THE_FLOAT_MAXIMUM = {
    "quant mean": ({"q.json": {"shift": 0.0, "grid_shape": [2], "values": [1e308, 1e308]}},
                   ["quant-k", "q.json", "q.json"], 0, {"value": 0.0}),
    "cw trapezoid": ({"big.json": {"grid_shape": [2], "values": [1e308, 1e308]}},
                     ["cw", "big.json", "big.json"], 0, {"slices": 2, "value": 1e308}),
    "rot minimizer": ({"small.json": {"grid_shape": [2], "values": [0.5, -0.5]}},
                      ["rot-distance", "1e200", "small.json"], 0,
                      {"minimizer": 1e200, "shift": 1e200, "value": 0.0}),
    "rot hi": ({"zero.json": {"grid_shape": [4],
                              "values": [1.5e308, 1.5e308, -1.5e308, -1.5e308]}},
               ["rot-distance", "1.6e308", "zero.json"], 0,
               {"minimizer": pytest.approx(np.sqrt(31.0) * 1e307, rel=1e-14), "shift": 1.6e308,
                "value": pytest.approx(0.5 * np.log(31.0), rel=1e-14)}),
    "embed": ({"hot.json": {"grid_shape": [4], "values": [709.5] * 4}},
              ["embed", "hot.json", "e.json"], 0,
              {"grid_shape": [4], "shift": float(np.exp(709.5))}),
    "generator": ({"a.json": {"shift": 1.7e308, "grid_shape": [2], "values": [2e307, -2e307]},
                   "b.json": {"shift": 1.0, "grid_shape": [2], "values": [0.5, -0.5]}},
                  ["quant-k", "a.json", "b.json"], 1,
                  "{tmp}/a.json: the generator shift + F of a quantomorphism must be finite"),
    "folded shift": ({"q.json": {"shift": 1e308, "grid_shape": [2], "values": [1e308, 1e308]}},
                     ["quant-k", "q.json", "q.json"], 1,
                     "{tmp}/q.json: the generator shift + F of a quantomorphism must be finite"),
    "centered": ({"q.json": {"shift": 0.0, "grid_shape": [3],
                             "values": [1.7e308, -1.7e308, -1.7e308]}},
                 ["quant-k", "q.json", "q.json"], 1,
                 "{tmp}/q.json: leaf function values minus their grid mean leave the float range"),
    # a time span beyond the float range: the trapezoid's step 2e308 is inf,
    # and inf * 0 is NaN; the times scale by a power of two as the means do
    "cw zero span": ({"z.json": {"grid_shape": [2], "values": [0, 0]}},
                     ["cw", "z.json", "z.json", "--times=-1e308,1e308"], 0,
                     {"slices": 2, "value": 0.0}),
    "cw half span": ({"z.json": {"grid_shape": [2], "values": [0.5, 0.5]}},
                     ["cw", "z.json", "z.json", "--times=-1e308,1e308"], 0,
                     {"slices": 2, "value": 1e308}),
    "cw span beyond": ({"z.json": {"grid_shape": [2], "values": [1, 3]}},
                       ["cw", "z.json", "z.json", "--times=-1e308,1e308"], 2,
                       "cw report holds a non-finite number: "
                       "Out of range float values are not JSON compliant: inf"),
    # the mean equals the scale here, as for [1, 3]; a floor of 1 on the
    # tolerance called the tiny grid normalized
    "tiny": ({"tiny.json": {"grid_shape": [2], "values": [1e-20, 3e-20]}},
             ["rot-distance", "1", "tiny.json"], 1,
             "Hofer norms are defined for normalized leaf functions"),
}


@pytest.mark.parametrize("case", sorted(_NEAR_THE_FLOAT_MAXIMUM))
def test_cli_near_the_float_maximum_in_a_fresh_process(tmp_path, case):
    docs, argv, code, expected = _NEAR_THE_FLOAT_MAXIMUM[case]
    for name, doc in docs.items():
        _write_doc(tmp_path, name, doc)
    proc = run_python(["-m", "symporder.cli",
                       *(str(tmp_path / a) if a.endswith(".json") else a for a in argv)])
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert {key: doc[key] for key in expected} == expected
    else:
        assert proc.stdout == ""
        assert proc.stderr == f"error: {expected.format(tmp=tmp_path)}\n"


def test_cli_embed_isometry_through_files(tmp_path, capsys):
    rng = np.random.default_rng(5)
    f = prequant.normalize_leaf(rng.normal(size=32))
    g = prequant.normalize_leaf(rng.normal(size=32))
    ff, gf = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    io.save_grid(f, ff)
    io.save_grid(g, gf)
    ef, eg = str(tmp_path / "ef.json"), str(tmp_path / "eg.json")
    assert cli.run(["embed", ff, ef]) == 0
    assert cli.run(["embed", gf, eg]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(["quant-k", ef, eg], capsys)
    expected = float(np.abs(f.values - g.values).max())
    assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-12)


def test_cli_cw(tmp_path, cos_grid_file, capsys):
    code, out, _ = run_cli(["cw", cos_grid_file, cos_grid_file], capsys)
    assert code == 0
    assert abs(json.loads(out)["value"]) < 1e-12
    code, out, _ = run_cli(["cw", cos_grid_file, "--weights",
                            ",".join(["1"] * 64)], capsys)
    assert code == 0


def test_cli_verify_quant_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "quant"], capsys)
    assert code == 0
    assert "4/4 criteria passed" in out
    assert out.count("[PASS]") == 4


# the loaders' file kinds: a valid document and the call that reads it
_LOADER_CALLS = {
    "path": ({"dim": 2, "times": [0.0, 0.25, 0.5, 0.75, 1.0],
              "matrices": [[np.cos(a), -np.sin(a), np.sin(a), np.cos(a)]
                           for a in np.linspace(0.0, 2 * np.pi, 5)]},
             lambda f, tmp: ["maslov", f]),
    "grid": ({"grid_shape": [2, 2], "values": [0.5, -0.5, 0.25, -0.25]},
             lambda f, tmp: ["rot-distance", "2.0", f]),
    "quant": ({"shift": 2.0, "grid_shape": [2, 2], "values": [0.5, -0.5, 0.25, -0.25]},
              lambda f, tmp: ["quant-k", f, f]),
    "matrix": ({"dim": 2, "matrix": [2.0, 0.0, 0.0, 0.5]},
               lambda f, tmp: ["synth-positive", f, str(tmp / "dest.json"), "--grid", "9"]),
    "hermitian": ({"n": 2, "real": [5 * np.pi, 0.0, 0.0, -np.pi], "imag": [0.0, 0.0, 0.0, 0.0]},
                  lambda f, tmp: ["redistribute", f, str(4 * np.pi)]),
}


def _run_quietly(argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_loader_documents_of_the_fuzz_test_are_valid(tmp_path):
    for kind, (doc, call) in _LOADER_CALLS.items():
        code, _, err = _run_quietly(call(_write_doc(tmp_path, f"{kind}.json", doc), tmp_path))
        assert (code, err) == (0, ""), kind


def _with_each_float(doc: dict, value: float):
    """Copies of a loader document, each with ``value`` in one float slot."""
    for key in sorted(set(doc) - {"dim", "n", "grid_shape"}):
        if not isinstance(doc[key], list):
            yield dict(doc, **{key: value})
            continue
        for i, item in enumerate(doc[key]):
            for j in range(len(item)) if isinstance(item, list) else (None,):
                changed = copy.deepcopy(doc)
                if j is None:
                    changed[key][i] = value
                else:
                    changed[key][i][j] = value
                yield changed


@pytest.mark.parametrize("kind", sorted(_LOADER_CALLS))
def test_cli_takes_huge_finite_values_without_a_traceback_or_warning(tmp_path, kind):
    # a warning turns into an exception under this suite's filterwarnings
    doc, call = _LOADER_CALLS[kind]
    for value in (1e200, -1e200, 1.7e308):
        for changed in _with_each_float(doc, value):
            name = _write_doc(tmp_path, f"{kind}.json", changed)
            code, out, err = _run_quietly(call(name, tmp_path))
            assert code in (0, 1, 2), (changed, err)
            assert err == "" or (err.startswith("error:") and err.count("\n") == 1), (changed, err)
            assert (code == 0) == (err == ""), (changed, err)
            # no rotation sample stays symplectic with an entry this large
            assert kind != "path" or code == 1, changed


# values no loader field takes: text, null as a scalar, objects, lists of text
_wrong_values = st.one_of(st.text(max_size=4), st.dictionaries(st.text(max_size=2), st.integers()),
                          st.lists(st.text(max_size=2), min_size=1, max_size=3))


@st.composite
def malformed_files(draw) -> tuple[str, bytes]:
    """(file kind, bytes) of a valid loader document broken in one way."""
    kind = draw(st.sampled_from(sorted(_LOADER_CALLS)))
    doc = copy.deepcopy(_LOADER_CALLS[kind][0])
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["top level", "missing key", "wrong type", "wrong length",
                                "non-finite", "truncated", "not UTF-8"]))
    if how == "top level":
        doc = draw(st.one_of(st.just([doc]), st.integers(), st.text(max_size=4), st.none(),
                             st.booleans(), st.lists(st.floats(), max_size=3)))
    elif how == "missing key":
        del doc[key]
    elif how == "wrong type":
        doc[key] = draw(_wrong_values)
    elif how == "wrong length":
        # every list holds at least two items and every size exceeds 1, so
        # one item more or less never fits the other fields
        if not isinstance(doc[key], list):
            key = draw(st.sampled_from(sorted(k for k in doc if isinstance(doc[k], list))))
        doc[key] = doc[key][:-1] if draw(st.booleans()) else doc[key] + doc[key][-1:]
    elif how == "non-finite":
        key = draw(st.sampled_from(sorted(k for k in doc if k not in ("dim", "n", "grid_shape"))))
        bad = draw(st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                             st.integers(10**309, 10**400)))  # beyond the float range
        if isinstance(doc[key], list):
            slot = draw(st.integers(0, len(doc[key]) - 1))
            if isinstance(doc[key][slot], list):
                doc[key][slot][draw(st.integers(0, len(doc[key][slot]) - 1))] = bad
            else:
                doc[key][slot] = bad
        else:
            doc[key] = bad
    text = json.dumps(doc).encode()
    if how == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif how == "not UTF-8":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3("])) + text[cut:]
    return kind, text


@settings(deadline=None, max_examples=150)
@given(case=malformed_files())
def test_cli_exits_1_on_any_malformed_file(tmp_path_factory, case):
    kind, text = case
    tmp = tmp_path_factory.mktemp("fuzz")
    name = tmp / f"{kind}.json"
    name.write_bytes(text)
    code, out, err = _run_quietly(_LOADER_CALLS[kind][1](str(name), tmp))
    assert (code, out) == (1, ""), err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_gamma_default_range_reaches_the_scan_top_on_a_unitary_pair(tmp_path, capsys):
    # ceil(|gamma| n) + 8 = 57 at n = 8 misses gamma_8 = 59: a range cut
    # there printed null rungs at n = 8 and 32
    t = gen.uniform_times(513)
    for name, speeds in (("x", [0.25, 0.25]), ("y", [2.0198, 1.0284])):
        io.save_path(gen.diagonal_unitary_path(np.outer(t, speeds), t), str(tmp_path / name))
    code, out, err = run_cli(["gamma", str(tmp_path / "x"), str(tmp_path / "y")], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["gamma_ns"] == [9, 17, 33, 59, 105, 208, 392]


def test_cli_grid_whose_mean_overflows(tmp_path, capsys):
    big = _write_doc(tmp_path, "big.json", {"grid_shape": [2], "values": [1e308, 1e308]})
    code, out, err = run_cli(["cw", big], capsys)
    assert (code, err, json.loads(out)["value"]) == (0, "", 1e308)
    pair = _write_doc(tmp_path, "pair.json", {"grid_shape": [2], "values": [1.0, 3.0]})
    code, out, err = run_cli(["cw", pair, "--weights", "1e308,1e308"], capsys)
    assert (code, err, json.loads(out)["value"]) == (0, "", 2.0)
    for argv, expected in ((["rot-distance", "1.0", big], "normalized leaf functions"),
                           (["embed", big, str(tmp_path / "e.json")], "exceeds")):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and expected in err
