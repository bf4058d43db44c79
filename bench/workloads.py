"""Seeded inputs, timed operations and output checks for each workload.

A workload has ``setup(seed, workdir, tracer)`` returning its state,
``op(state, i)`` running operation ``i`` and returning what it produced, and
``check(state, i, result)`` raising :class:`checks.CheckError` on a wrong
result.  ``round_len`` is the number of ops in one pass over the workload's
fixed list of calls; a run always attempts whole passes.  ``spawns`` tells
whether the ops start interpreters, which selects the calibration kernel.
Setup imports the package, so that its cost is part of the set-up time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

SAMPLES = 2049
POOL = 4
LOG_TOL = 1e-9
TWO_PI = 2.0 * np.pi


def _import(*names):
    return [importlib.import_module(f"symporder.{name}") for name in names]


def _counted(tracer, fn):
    return fn if tracer is None else tracer.counted(fn, "generators.closure_calls")


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random unitary from a complex Gaussian QR.

    The benchmark draws its inputs with its own code, so that no change to
    the package can change them.
    """
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _unit_modes(rng: np.random.Generator, n: int, hermitian: bool) -> list:
    """Three random Hermitian (or real symmetric) modes of spectral norm 1."""
    modes = []
    for _ in range(3):
        z = rng.normal(size=(n, n))
        if hermitian:
            z = z + 1j * rng.normal(size=(n, n))
        h = 0.5 * (z + z.conj().T)
        modes.append(h / np.linalg.norm(h, 2))
    return modes


def _mode_generator(offset: float, modes: list, scale: float = 1.0):
    """t -> offset I + scale (B0 + sin(2 pi t) B1 + cos(2 pi t) B2)."""
    eye = np.eye(len(modes[0]))
    b0, b1, b2 = modes

    def h(t):
        return offset * eye + scale * (b0 + np.sin(TWO_PI * t) * b1
                                       + np.cos(TWO_PI * t) * b2)

    return h


def _midpoint_winding(offset: float, modes: list, n_samples: int) -> float:
    """Exact winding of the midpoint product integral of i h(t): sum dt tr h(t_mid).

    Each step factor exp(i dt h(t_mid)) has determinant exp(i dt tr h(t_mid)),
    so the sampled path winds by exactly this sum while every step stays
    below pi.
    """
    t = np.linspace(0.0, 1.0, n_samples)
    mids = 0.5 * (t[:-1] + t[1:])
    tr0, tr1, tr2 = (float(np.trace(b).real) for b in modes)
    traces = (offset * len(modes[0]) + tr0 + np.sin(TWO_PI * mids) * tr1
              + np.cos(TWO_PI * mids) * tr2)
    return float(np.sum(np.diff(t) * traces))


# --------------------------------------------------------------- winding

# A U(4) path on 65 samples whose determinant turns by pi - 0.005 per step:
# inside the winding layer's guard band below pi, so it refines the grid
# once, and still below pi, so the sampled winding is exactly 64 steps.
COARSE_SAMPLES = 65
COARSE_STEP = np.pi - 0.005


@dataclass(frozen=True)
class WindingEntry:
    x: object
    y: object
    u8: object
    s8: object
    mu_x: float
    mu_y: float
    mu_u8: float


class Winding:
    """K and z of a dominant unitary Sp(4) pair, plus three Sp(8) windings."""

    round_len = 1
    spawns = False

    def setup(self, seed: int, workdir: Path, tracer=None):
        generators, matrices, paths, growth, maslov = _import(
            "generators", "matrices", "paths", "growth", "maslov")
        pool = []
        for index in range(POOL):
            rng = np.random.default_rng([seed, 1, index])
            pair = []
            for _ in range(2):
                offset, modes = rng.uniform(3.5, 5.0), _unit_modes(rng, 2, True)
                h = _counted(tracer, _mode_generator(offset, modes))
                path = generators.unitary_path_from_generator(h, 2, SAMPLES)
                pair.append((path, _midpoint_winding(offset, modes, SAMPLES)))
            t = np.linspace(0.0, 1.0, COARSE_SAMPLES)
            weights = rng.uniform(0.5, 1.5, size=4)
            speeds = weights / weights.sum() * COARSE_STEP * (COARSE_SAMPLES - 1)
            diag = generators.diagonal_unitary_path(np.outer(t, speeds), t)
            v = matrices.complex_to_real(_unitary(rng, 4))
            u8 = paths.SampledPath(t, v @ diag.matrices @ v.T)
            ham = _counted(tracer, _mode_generator(0.0, _unit_modes(rng, 8, False), 1.5))
            s8 = generators.symplectic_path_from_hamiltonian(ham, 8, SAMPLES)
            (x, mu_x), (y, mu_y) = pair
            pool.append(WindingEntry(x, y, u8, s8, mu_x, mu_y, float(speeds.sum())))
        return {"pool": pool, "growth": growth, "maslov": maslov, "paths": paths}

    def op(self, state, i):
        e = state["pool"][i % POOL]
        growth, maslov = state["growth"], state["maslov"]
        k = growth.pseudo_distance_k(e.x, e.y)
        zx = growth.z_coordinate(e.x)
        zy = growth.z_coordinate(e.y)
        mu_s8 = maslov.maslov_index(e.s8).value
        mu_s8_inv = maslov.maslov_index(state["paths"].invert(e.s8)).value
        mu_u8 = maslov.maslov_index(e.u8).value
        return k.value, zx.coordinate, zy.coordinate, mu_u8, mu_s8, mu_s8_inv

    def check(self, state, i, result):
        e = state["pool"][i % POOL]
        k, zx, zy, mu_u8, mu_s8, mu_s8_inv = result
        log_x, log_y = math.log(e.mu_x), math.log(e.mu_y)
        checks.close("K(X, Y)", k, abs(log_x - log_y), LOG_TOL)
        checks.close("z(X)", zx, log_x, LOG_TOL)
        checks.close("z(Y)", zy, log_y, LOG_TOL)
        checks.winding("maslov(U8)", mu_u8, e.mu_u8)
        checks.inverse_winding("maslov(S8^-1)", mu_s8, mu_s8_inv)


# ------------------------------------------------------------- staircase

STAIR_N = 64
STAIR_P_MAX = 2 * STAIR_N
# 64 r is drawn from (97.15, 97.85): gamma_64 = 98 with a margin of at least
# 0.15 of the slowest angle speed, so the bisection visits the same powers and
# every op does the same work on every seed.
STAIR_TARGET = (97.15, 97.85)


@dataclass(frozen=True)
class StairEntry:
    x: object
    y: object
    ratio: float


def _commuting_generator(v: np.ndarray, w: np.ndarray, d: np.ndarray, scale: float):
    """t -> scale V diag(w + d cos(2 pi t)) V^H; all values commute."""
    vh = v.conj().T

    def h(t):
        return scale * ((v * (w + d * np.cos(TWO_PI * t))) @ vh)

    return h


class Staircase:
    """gamma_64 of a commuting dominant unitary Sp(4) pair Y = X^r."""

    round_len = 1
    spawns = False

    def setup(self, seed: int, workdir: Path, tracer=None):
        generators, growth = _import("generators", "growth")
        pool = []
        for index in range(POOL):
            rng = np.random.default_rng([seed, 2, index])
            v = _unitary(rng, 2)
            w = rng.uniform(2.0, 4.0, size=2)
            d = rng.uniform(-0.6, 0.6, size=2) * w
            ratio = rng.uniform(*STAIR_TARGET) / STAIR_N
            x, y = (generators.unitary_path_from_generator(
                        _counted(tracer, _commuting_generator(v, w, d, scale)), 2, SAMPLES)
                    for scale in (1.0, ratio))
            pool.append(StairEntry(x, y, ratio))
        return {"pool": pool, "growth": growth}

    def op(self, state, i):
        e = state["pool"][i % POOL]
        return state["growth"].gamma_n_bruteforce(e.x, e.y, STAIR_N, STAIR_P_MAX)

    def check(self, state, i, result):
        checks.staircase("gamma_n_bruteforce", result, STAIR_N,
                         state["pool"][i % POOL].ratio)


# ------------------------------------------------------------------- cli

CLI_SAMPLES = 513
LOOP_SAMPLES = 1025
GRID_SHAPE = (64, 64)
SYNTH_SAMPLES = 512
CALL_TIMEOUT = 120.0
# finite-difference generators at 513 samples carry O(dt^2) error
CONE_TOL = 2e-3


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _path_doc(times: np.ndarray, mats: np.ndarray) -> dict:
    return {"dim": mats.shape[-1], "times": times.tolist(),
            "matrices": mats.reshape(len(times), -1).tolist()}


def _diagonal_unitary(theta: np.ndarray) -> np.ndarray:
    """Real form of diag(exp(i theta_j)) for theta of shape (N, n)."""
    samples, n = theta.shape
    mats = np.zeros((samples, 2 * n, 2 * n))
    idx = np.arange(n)
    c, s = np.cos(theta), np.sin(theta)
    mats[:, idx, idx] = c
    mats[:, idx, idx + n] = -s
    mats[:, idx + n, idx] = s
    mats[:, idx + n, idx + n] = c
    return mats


def _trig_grid(rng: np.random.Generator) -> np.ndarray:
    """Zero-mean trigonometric polynomial of low degree on the torus grid."""
    p, q = np.meshgrid(*(np.arange(n) / n for n in GRID_SHAPE), indexing="ij")
    values = np.zeros(GRID_SHAPE)
    for _ in range(4):
        kx, ky = rng.integers(1, 4), rng.integers(-3, 4)
        values += rng.uniform(0.2, 1.0) * np.cos(
            TWO_PI * (kx * p + ky * q) + rng.uniform(0.0, TWO_PI))
    return values - values.mean()


def _grid_doc(values: np.ndarray, shift: float | None = None) -> dict:
    doc = {"grid_shape": list(values.shape), "values": values.reshape(-1).tolist()}
    if shift is not None:
        doc["shift"] = shift
    return doc


class Cli:
    """One ``python -m symporder.cli`` process per op, cycling a fixed list."""

    NAMES = ("maslov", "cone", "order", "zcoord", "gamma", "synth-positive",
             "embed", "quant-gamma", "quant-k", "rot-distance", "cw")
    round_len = len(NAMES)
    spawns = True

    def setup(self, seed: int, workdir: Path, tracer=None):
        workdir.mkdir(parents=True, exist_ok=True)
        f = {name: str(workdir / f"{name}.json") for name in (
            "loop", "x", "y", "target", "synth", "f", "embedded", "a", "b",
            "ef", "eg", "s0", "s1", "s2")}
        rng = np.random.default_rng([seed, 3])
        expect = {}

        k = int(rng.integers(2, 5))
        t = np.linspace(0.0, 1.0, LOOP_SAMPLES)
        _write_json(Path(f["loop"]), _path_doc(t, _diagonal_unitary(TWO_PI * k * t[:, None])))
        expect["maslov"] = {"value": (TWO_PI * k, checks.WINDING_TOL * TWO_PI * k),
                            "turns": (k, checks.WINDING_TOL * k)}

        t = np.linspace(0.0, 1.0, CLI_SAMPLES)
        w = rng.uniform(2.0, 4.0, size=2)
        d = rng.uniform(-0.6, 0.6, size=2) * w
        theta = np.outer(t, w) + np.sin(TWO_PI * t)[:, None] * (d / TWO_PI)
        speed = w + np.cos(TWO_PI * t)[:, None] * d
        ratio = float(rng.uniform(0.55, 0.9))
        _write_json(Path(f["x"]), _path_doc(t, _diagonal_unitary(theta)))
        _write_json(Path(f["y"]), _path_doc(t, _diagonal_unitary(ratio * theta)))
        slowest = float(speed.min())
        expect["cone"] = {"status": "dominant", "certifies": True,
                          "min_eigenvalue": (slowest, CONE_TOL * slowest)}
        expect["order"] = {"status": "dominant", "certifies": True,
                           "min_eigenvalue": ((1 - ratio) * slowest,
                                              CONE_TOL * slowest)}
        z = math.log(float(theta[-1].sum()))
        expect["zcoord"] = {"coordinate": (z, LOG_TOL), "lower": (z, LOG_TOL),
                            "upper": (z, LOG_TOL)}
        expect["gamma"] = {"closed_form": (ratio, LOG_TOL),
                           "ns": [1, 2, 4, 8, 16, 32, 64]}

        lams = rng.uniform(1.2, 3.0, size=2)
        target = np.diag(np.concatenate([lams, 1.0 / lams]))
        _write_json(Path(f["target"]), {"dim": 4, "matrix": target.reshape(-1).tolist()})
        expect["synth-positive"] = {"endpoint_error": (0.0, 1e-8),
                                    "winding": (4 * TWO_PI, 1e-6),
                                    "winding_budget": (4 * TWO_PI, 1e-12),
                                    "samples": SYNTH_SAMPLES}

        fvals, gvals = _trig_grid(rng), _trig_grid(rng)
        _write_json(Path(f["f"]), _grid_doc(fvals))
        efv = np.exp(fvals)
        expect["embed"] = {"shift": (float(efv.mean()), 1e-12 * float(efv.mean())),
                           "grid_shape": list(GRID_SHAPE)}
        for name, values in (("ef", fvals), ("eg", gvals)):
            ev = np.exp(values)
            _write_json(Path(f[name]), _grid_doc(ev - ev.mean(), float(ev.mean())))
        expect["quant-k"] = {"value": (float(np.abs(fvals - gvals).max()), 1e-10)}

        avals, bvals = _trig_grid(rng), _trig_grid(rng)
        sa = float(-avals.min() + rng.uniform(0.5, 1.5))
        sb = float(rng.uniform(-1.0, 2.0))
        _write_json(Path(f["a"]), _grid_doc(avals, sa))
        _write_json(Path(f["b"]), _grid_doc(bvals, sb))
        gamma = float(((sb + bvals) / (sa + avals)).max())
        expect["quant-gamma"] = {"gamma": (gamma, 1e-12 * max(1.0, abs(gamma))),
                                 "n": 100, "gamma_n": math.ceil(100 * gamma - 1e-9)}

        shift = float(-fvals.min() + rng.uniform(0.5, 2.0))
        hi, lo = shift + float(fvals.max()), shift + float(fvals.min())
        expect["rot-distance"] = {"value": (0.5 * math.log(hi / lo), 1e-12),
                                  "minimizer": (math.sqrt(hi * lo), 1e-12 * hi),
                                  "shift": shift}

        for name in ("s0", "s1", "s2"):
            _write_json(Path(f[name]), _grid_doc(_trig_grid(rng)))
        expect["cw"] = {"value": (0.0, 1e-12), "slices": 3}

        argv = {
            "maslov": ["maslov", f["loop"]],
            "cone": ["cone", f["x"]],
            "order": ["order", f["x"], f["y"]],
            "zcoord": ["zcoord", f["x"]],
            "gamma": ["gamma", f["x"], f["y"]],
            "synth-positive": ["synth-positive", f["target"], f["synth"]],
            "embed": ["embed", f["f"], f["embedded"]],
            "quant-gamma": ["quant-gamma", f["a"], f["b"], "--n", "100"],
            "quant-k": ["quant-k", f["ef"], f["eg"]],
            "rot-distance": ["rot-distance", repr(shift), f["f"]],
            "cw": ["cw", f["s0"], f["s1"], f["s2"]],
        }
        src = str(Path(__file__).resolve().parent.parent / "src")
        return {"argv": argv, "expect": expect, "files": f, "ratio": ratio,
                "target": target, "fvals": fvals,
                "env": dict(os.environ, PYTHONPATH=src)}

    def op(self, state, i):
        name = self.NAMES[i % self.round_len]
        argv = state["argv"][name]
        if state["in_process"]:
            (cli,) = _import("cli")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "symporder.cli", *argv],
                              capture_output=True, text=True, env=state["env"],
                              timeout=CALL_TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, state, i, result):
        name = self.NAMES[i % self.round_len]
        report = checks.cli_report(*result)
        checks.fields(name, report, state["expect"][name])
        if name == "gamma":
            for n, g in zip(report["ns"], report["gamma_ns"]):
                checks.staircase("gamma", g, n, state["ratio"])
        elif name == "synth-positive":
            if not report["min_generator_eigenvalue"] > 0.0:
                raise checks.CheckError("synth-positive: generator is not positive")
            with open(state["files"]["synth"]) as fh:
                doc = checks.strict_json(fh.read())
            mats = np.asarray(doc["matrices"], dtype=float)
            checks.close("synth-positive file samples", len(doc["times"]), SYNTH_SAMPLES, 0)
            checks.close("synth-positive file endpoint",
                         float(np.abs(mats[-1].reshape(4, 4) - state["target"]).max()),
                         0.0, 1e-8)
        elif name == "embed":
            with open(state["files"]["embedded"]) as fh:
                doc = checks.strict_json(fh.read())
            ev = np.exp(state["fvals"])
            got = np.asarray(doc["values"], dtype=float).reshape(GRID_SHAPE) + doc["shift"]
            checks.close("embed file generator", float(np.abs(got - ev).max()),
                         0.0, 1e-12 * float(ev.max()))


WORKLOADS = {"winding": Winding, "staircase": Staircase, "cli": Cli}
