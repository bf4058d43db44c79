import copy
import json
import subprocess
import sys

import numpy as np
import pytest

from symporder import cli, generators as gen, io, prequant
from symporder.errors import ComputationError, InputError


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
    cmd = [sys.executable, "-m", "symporder.cli", "maslov", loop_file]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
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
    nan_sample, inf_sample, nan_time = (copy.deepcopy(loop) for _ in range(3))
    nan_sample["matrices"][5][0] = float("nan")
    inf_sample["matrices"][5][1] = float("inf")
    nan_time["times"][5] = float("nan")
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
    good_grid = _write_doc(tmp_path, "grid.json",
                           {"grid_shape": [4], "values": [0.5, -0.5, 0.0, 0.0]})
    dest = str(tmp_path / "dest.json")
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
        (["synth-positive", float_matrix, dest], "'dim'"),
        (["synth-positive", not_symplectic, dest], "not symplectic"),
        (["redistribute", float_n, "10.0"], "'n'"),
        (["synth-positive", nan_matrix, dest], "non-finite"),
        (["redistribute", inf_hermitian, "10.0"], "non-finite"),
        (["zcoord", loop_file, "--kmax", "0"], "k_max"),
        (["rot-distance", "nan", good_grid], "finite"),
        (["cone", loop_file, "--tol", "nan"], "finite"),
        (["cw", good_grid, good_grid, "--times", "0,nan"], "finite"),
        (["defect-sample", "--safety", "nan"], "finite"),
        (["gamma", loop_file, loop_file, "--cemp", "nan"], "finite"),
        (["cw", good_grid, "--weights", "1,2"], "--weights"),
        (["defect-sample", "--dim", "3"], "even"),
        (["defect-sample", "--dim", "-2"], "even"),
        (["defect-sample", "--pairs", "-1"], "pairs"),
        (["defect-sample", "--seed", "-1"], "non-negative"),
        (["verify", "--seed", "-1"], "non-negative"),
        (["synth-positive", float_matrix, dest, "--grid", "-5"], "non-negative"),
    ]


def test_cli_exit_codes(tmp_path, loop_file, capsys):
    code, _, err = run_cli(["maslov", str(tmp_path / "absent.json")], capsys)
    assert code == 1 and "absent.json" in err
    code, _, _ = run_cli(["not-a-command"], capsys)
    assert code == 1
    code, _, err = run_cli(["kdist", loop_file, loop_file, "--cemp", "100"], capsys)
    assert code == 2 and "increase k_max" in err
    for argv, fragment in _malformed_inputs(tmp_path, loop_file):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and fragment in err, (argv, err)
        assert "Traceback" not in err


def test_cli_malformed_file_exits_1_in_a_fresh_process(tmp_path, loop_file):
    argv, _ = _malformed_inputs(tmp_path, loop_file)[0]
    proc = subprocess.run([sys.executable, "-m", "symporder.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


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
