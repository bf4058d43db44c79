"""Command line interface.

Every subcommand prints one deterministic JSON report (sorted keys, shortest
round-trip float repr) so identical invocations produce identical bytes.
``verify`` instead prints one pass/fail line per acceptance criterion.

Exit codes: 0 success, 1 invalid input or arguments, 2 numerical failure
(including a failed ``verify`` run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, growth, io, maslov, prequant
from .errors import ComputationError, InputError
from .paths import CONE_TOL, classify_cone, extract_hamiltonian, order_leq

CONVENTION = "radians; the full rotation loop in Sp(2) scores 2*pi"
# the suites of ``acceptance.SUITES``, named here so that only ``verify``
# imports the acceptance module
VERIFY_SUITES = ("all", "linear", "quant")


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InputError so they exit 1 like other bad input."""

    def error(self, message):
        raise InputError(message)


def _emit(command: str, fields: dict, out: str | None) -> None:
    doc = {"command": command, "convention": CONVENTION, "version": __version__}
    doc.update(fields)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ComputationError(f"{command} report holds a non-finite number: {exc}") from exc
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _checked(convert, accept, expected: str):
    """Argument type that turns values ``accept`` refuses into argument errors."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


# every float argument is finite; defect bounds, seeds and sample counts are
# non-negative
_finite_float = _checked(float, math.isfinite, "a finite number")
_bound = _checked(float, lambda value: math.isfinite(value) and value >= 0.0,
                  "a finite non-negative number")
_natural = _checked(int, lambda value: value >= 0, "a non-negative integer")


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [_finite_float(part) for part in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{flag} expects comma-separated floats: {exc}") from exc


def _add_out(sub) -> None:
    sub.add_argument("--out", metavar="FILE",
                     help="write the JSON report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="symporder",
                     description="order, winding and growth on symplectic paths")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("maslov", help="winding of a sampled path")
    sub.add_argument("path", help="path JSON file")
    _add_out(sub)

    sub = subs.add_parser("cone", help="classify a path against the positive cone")
    sub.add_argument("path", help="path JSON file")
    sub.add_argument("--tol", type=_finite_float, default=CONE_TOL)
    _add_out(sub)

    sub = subs.add_parser("order", help="certify X >= Y in the bi-invariant order")
    sub.add_argument("x", help="path JSON file for X")
    sub.add_argument("y", help="path JSON file for Y")
    sub.add_argument("--tol", type=_finite_float, default=CONE_TOL)
    _add_out(sub)

    sub = subs.add_parser("synth-positive",
                          help="positive path to a positive diagonal target")
    sub.add_argument("target", help="matrix JSON file (positive diagonal, symplectic)")
    sub.add_argument("dest", help="path JSON file to write")
    sub.add_argument("--grid", type=_natural, default=512, metavar="N",
                     help="number of samples (default 512)")
    _add_out(sub)

    sub = subs.add_parser("redistribute",
                          help="move Hermitian spectrum to a target winding")
    sub.add_argument("hermitian", help="hermitian JSON file")
    sub.add_argument("target_mu", type=_finite_float,
                     help="target winding, at least 2*pi*n")
    sub.add_argument("--tol", type=_finite_float, default=1e-9)
    _add_out(sub)

    sub = subs.add_parser("gamma", help="relative growth staircase for a pair")
    sub.add_argument("x", help="path JSON file for X (dominant)")
    sub.add_argument("y", help="path JSON file for Y")
    sub.add_argument("--nmax", type=int, default=64,
                     help="largest staircase index (default 64)")
    sub.add_argument("--pmax", type=_natural, default=None,
                     help="search powers in [-P, P] on every rung "
                          "(default: ceil(|gamma| n) + 8, gamma the winding ratio)")
    sub.add_argument("--kmax", type=int, default=growth.DEFAULT_K_MAX)
    sub.add_argument("--cemp", type=_bound, default=0.0,
                     help="empirical defect bound for uncertainty intervals")
    sub.add_argument("--tol", type=_finite_float, default=CONE_TOL)
    sub.add_argument("--csv", metavar="FILE", help="also write n,gamma_n rows")
    _add_out(sub)

    sub = subs.add_parser("kdist", help="pseudo-distance between dominant paths")
    sub.add_argument("x", help="path JSON file")
    sub.add_argument("y", help="path JSON file")
    sub.add_argument("--kmax", type=int, default=growth.DEFAULT_K_MAX)
    sub.add_argument("--cemp", type=_bound, default=0.0)
    sub.add_argument("--tol", type=_finite_float, default=CONE_TOL)
    _add_out(sub)

    sub = subs.add_parser("zcoord", help="coordinate of a dominant path on the metric line")
    sub.add_argument("path", help="path JSON file")
    sub.add_argument("--kmax", type=int, default=growth.DEFAULT_K_MAX)
    sub.add_argument("--cemp", type=_bound, default=0.0)
    sub.add_argument("--tol", type=_finite_float, default=CONE_TOL)
    _add_out(sub)

    sub = subs.add_parser("defect-sample",
                          help="sample the quasimorphism defect empirically")
    sub.add_argument("--dim", type=int, default=2, help="path dimension 2n")
    sub.add_argument("--pairs", type=int, default=20)
    sub.add_argument("--seed", type=_natural, default=7)
    sub.add_argument("--safety", type=_bound, default=2.0)
    _add_out(sub)

    sub = subs.add_parser("quant-gamma",
                          help="relative growth of quantomorphism elements")
    sub.add_argument("a", help="quant JSON file (dominant)")
    sub.add_argument("b", help="quant JSON file")
    sub.add_argument("--n", type=int, default=None,
                     help="also report the integer staircase value at this n")
    _add_out(sub)

    sub = subs.add_parser("quant-k",
                          help="pseudo-distance between dominant quant elements")
    sub.add_argument("a", help="quant JSON file")
    sub.add_argument("b", help="quant JSON file")
    _add_out(sub)

    sub = subs.add_parser("rot-distance",
                          help="distance from a quant element to the rotation curve")
    sub.add_argument("shift", type=_finite_float, help="fiber shift s")
    sub.add_argument("grid", help="grid JSON file with the leaf function")
    _add_out(sub)

    sub = subs.add_parser("embed",
                          help="embed a leaf function into the metric line")
    sub.add_argument("grid", help="grid JSON file")
    sub.add_argument("dest", help="quant JSON file to write")
    _add_out(sub)

    sub = subs.add_parser("cw", help="Calabi-Weinstein invariant of a family")
    sub.add_argument("grids", nargs="+", help="grid JSON files, one per time slice")
    sub.add_argument("--weights", metavar="W1,W2,...",
                     help="volume weights shared by every slice")
    sub.add_argument("--times", metavar="T1,T2,...",
                     help="time grid for the slices (default uniform on [0, 1])")
    _add_out(sub)

    sub = subs.add_parser("verify", help="run the acceptance criteria")
    sub.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    sub.add_argument("--seed", type=_natural, default=None)

    return parser


def _verdict_fields(verdict) -> dict:
    return {
        "certifies": verdict.certifies,
        "min_eigenvalue": verdict.min_eigenvalue,
        "status": verdict.status.value,
        "tol": verdict.tol,
    }


def _run_maslov(args) -> int:
    result = maslov.maslov_index(io.load_path(args.path))
    _emit("maslov", {"max_step": result.max_step, "turns": result.turns,
                     "value": result.value}, args.out)
    return 0


def _run_cone(args) -> int:
    verdict = classify_cone(io.load_path(args.path), args.tol)
    _emit("cone", _verdict_fields(verdict), args.out)
    return 0


def _run_order(args) -> int:
    verdict = order_leq(io.load_path(args.y), io.load_path(args.x), args.tol)
    _emit("order", _verdict_fields(verdict), args.out)
    return 0


def _run_synth_positive(args) -> int:
    target = io.load_matrix(args.target)
    path = maslov.positive_path_to(target, n_samples=args.grid)
    io.save_path(path, args.dest)
    track = extract_hamiltonian(path)
    _emit("synth-positive", {
        "endpoint_error": float(np.abs(path.endpoint - target).max()),
        "min_generator_eigenvalue": float(np.linalg.eigvalsh(track.hams).min()),
        "samples": path.n_samples,
        "winding": maslov.maslov_index(path).value,
        "winding_budget": 4.0 * np.pi * path.half_dim,
    }, args.out)
    return 0


def _run_redistribute(args) -> int:
    a = io.load_hermitian(args.hermitian)
    spectrum = maslov.redistribute_eigenvalues(a, args.target_mu, tol=args.tol)
    endpoint_error = float(np.abs(maslov.unitary_endpoint(spectrum)
                                  - maslov.exp_i_hermitian(a)).max())
    _emit("redistribute", {
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "endpoint_error": endpoint_error,
        "target_mu": args.target_mu,
        "trace": float(spectrum.eigenvalues.sum()),
    }, args.out)
    return 0


def _run_gamma(args) -> int:
    x, y = io.load_path(args.x), io.load_path(args.y)
    ns = tuple(n for n in growth.GROWTH_NS if n <= args.nmax)
    if not ns:
        raise InputError("--nmax smaller than the smallest staircase index 1")
    est = growth.growth_estimate(x, y, ns=ns, p_max=args.pmax, k_max=args.kmax,
                                 c_emp=args.cemp, tol=args.tol)
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write("n,gamma_n\n")
            for n, g in zip(est.ns, est.gamma_ns):
                fh.write(f"{n},{'' if g is None else g}\n")
    _emit("gamma", {
        "closed_form": est.closed_form,
        "gamma_ns": list(est.gamma_ns),
        "limit": est.limit_estimate.value,
        "limit_lower": est.limit_estimate.lower,
        "limit_upper": est.limit_estimate.upper,
        "ns": list(est.ns),
    }, args.out)
    return 0


def _run_kdist(args) -> int:
    est = growth.pseudo_distance_k(io.load_path(args.x), io.load_path(args.y),
                                   k_max=args.kmax, c_emp=args.cemp, tol=args.tol)
    _emit("kdist", {"c_emp": args.cemp, "k_max": args.kmax, "lower": est.lower,
                    "upper": est.upper, "value": est.value}, args.out)
    return 0


def _run_zcoord(args) -> int:
    point = growth.z_coordinate(io.load_path(args.path), k_max=args.kmax,
                                c_emp=args.cemp, tol=args.tol)
    _emit("zcoord", {"c_emp": args.cemp, "coordinate": point.coordinate,
                     "k_max": args.kmax, "lower": point.lower,
                     "upper": point.upper}, args.out)
    return 0


def _run_defect_sample(args) -> int:
    raw = maslov.quasimorphism_defect_sample(args.pairs, args.dim, args.seed)
    _emit("defect-sample", {
        "c_emp": args.safety * raw,
        "dim": args.dim,
        "max_defect": raw,
        "pairs": args.pairs,
        "safety": args.safety,
        "seed": args.seed,
    }, args.out)
    return 0


def _run_quant_gamma(args) -> int:
    a = io.load_quant_element(args.a)
    b = io.load_quant_element(args.b)
    fields = {"gamma": prequant.gamma_quant(a, b), "n": args.n, "gamma_n": None}
    if args.n is not None:
        fields["gamma_n"] = prequant.gamma_n_quant_bruteforce(a, b, args.n)
    _emit("quant-gamma", fields, args.out)
    return 0


def _run_quant_k(args) -> int:
    value = prequant.k_quant(io.load_quant_element(args.a),
                             io.load_quant_element(args.b))
    _emit("quant-k", {"value": value}, args.out)
    return 0


def _run_rot_distance(args) -> int:
    result = prequant.rotation_curve_distance(args.shift, io.load_grid(args.grid))
    _emit("rot-distance", {"minimizer": result.t_star, "shift": args.shift,
                           "value": result.value}, args.out)
    return 0


def _run_embed(args) -> int:
    element = prequant.embed_into_z(io.load_grid(args.grid))
    io.save_quant_element(element, args.dest)
    _emit("embed", {"grid_shape": list(element.func.grid_shape),
                    "shift": element.shift}, args.out)
    return 0


def _run_cw(args) -> int:
    funcs = [io.load_grid(name) for name in args.grids]
    weights = None
    if args.weights is not None:
        weights = np.asarray(_floats(args.weights, "--weights"))
        size = funcs[0].values.size
        if weights.size != size:
            raise InputError(f"--weights needs {size} values, one per grid point, "
                             f"got {weights.size}")
        weights = weights.reshape(funcs[0].grid_shape)
    times = None
    if args.times is not None:
        times = np.asarray(_floats(args.times, "--times"))
    value = prequant.calabi_weinstein(funcs, weights=weights, times=times)
    _emit("cw", {"slices": len(funcs), "value": value}, args.out)
    return 0


def _run_verify(args) -> int:
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_suite(args.suite, seed=seed, report=print)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 2


_DISPATCH = {
    "maslov": _run_maslov,
    "cone": _run_cone,
    "order": _run_order,
    "synth-positive": _run_synth_positive,
    "redistribute": _run_redistribute,
    "gamma": _run_gamma,
    "kdist": _run_kdist,
    "zcoord": _run_zcoord,
    "defect-sample": _run_defect_sample,
    "quant-gamma": _run_quant_gamma,
    "quant-k": _run_quant_k,
    "rot-distance": _run_rot_distance,
    "embed": _run_embed,
    "cw": _run_cw,
    "verify": _run_verify,
}


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
