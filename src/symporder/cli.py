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

from . import __version__, io
from .errors import QUOTE_CHARS, ComputationError, InputError, quote
# the parser reads only ``paths`` constants, and each handler imports the
# ``growth``, ``maslov`` or ``prequant`` it calls, so a call loads only the
# modules its subcommand reads; of the three bindings the benchmark's tracer
# wraps in ``symporder.cli`` by name, ``classify_cone`` and ``order_leq`` are
# called here and ``extract_hamiltonian`` is kept for the tracer alone
from .paths import (CONE_TOL, DEFECT_SAFETY, REFINEMENT_CAP, classify_cone, extract_hamiltonian,
                    min_generator_eigenvalue, order_leq)  # noqa: F401

CONVENTION = "radians; the full rotation loop in Sp(2) scores 2*pi"
# the suites of ``acceptance.SUITES``, named here so that only ``verify``
# imports the acceptance module
VERIFY_SUITES = ("all", "linear", "quant")


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 as InputError, long tokens cut by
    :func:`symporder.errors.quote`, longest first."""

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for token in sorted(self._tokens, key=len, reverse=True):
            if len(token) > QUOTE_CHARS:
                message = message.replace(repr(token), quote(token)).replace(token, quote(token))
        raise InputError(message)


def _emit(command: str, fields: dict, out: str | None) -> None:
    doc = {"command": command, "convention": CONVENTION, "version": __version__, **fields}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ComputationError(f"{command} report holds a non-finite number: {exc}") from exc
    if out is None:
        sys.stdout.write(text)
    else:
        io.write_text(text, out)


def _checked(convert, accept, expected: str):
    """Argument type that turns values ``accept`` refuses into argument errors."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {quote(text)}")
        return value
    return parse


# every float argument is finite; tolerances, defect bounds, seeds and sample
# counts are non-negative
_finite_float = _checked(float, math.isfinite, "a finite number")
_bound = _checked(float, lambda value: math.isfinite(value) and value >= 0.0,
                  "a finite non-negative number")
_natural = _checked(int, lambda value: value >= 0, "a non-negative integer")
# size caps, checked before any array is allocated
DIM_CAP = 64
_grid = _checked(int, lambda value: 0 <= value <= REFINEMENT_CAP,
                 f"a non-negative integer at most {REFINEMENT_CAP}")
_dim = _checked(int, lambda value: value <= DIM_CAP, f"an integer at most {DIM_CAP}")


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [_finite_float(part) for part in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"{flag} expects comma-separated floats: {exc}") from exc


def _arg(*flags, **options) -> tuple:
    """One ``add_argument`` call of the command table."""
    return flags, options


_PATH = _arg("path", help="path JSON file")
_TOL = _arg("--tol", type=_bound, default=CONE_TOL)


def _verdict_fields(verdict) -> dict:
    return {"certifies": verdict.certifies, "min_eigenvalue": verdict.min_eigenvalue,
            "status": verdict.status.value, "tol": verdict.tol}


def _run_maslov(args) -> dict:
    from . import maslov

    result = maslov.maslov_index(io.load_path(args.path))
    return {"max_step": result.max_step, "turns": result.turns, "value": result.value}


def _run_cone(args) -> dict:
    return _verdict_fields(classify_cone(io.load_path(args.path), args.tol))


def _run_order(args) -> dict:
    return _verdict_fields(order_leq(io.load_path(args.y), io.load_path(args.x), args.tol))


def _run_synth_positive(args) -> dict:
    from . import maslov

    target = io.load_matrix(args.target)
    path = maslov.positive_path_to(target, n_samples=args.grid)
    io.save_path(path, args.dest)
    return {
        "endpoint_error": float(np.abs(path.endpoint - target).max()),
        "min_generator_eigenvalue": min_generator_eigenvalue(path),
        "samples": path.n_samples,
        "winding": maslov.maslov_index(path).value,
        "winding_budget": 4.0 * np.pi * path.half_dim,
    }


def _run_redistribute(args) -> dict:
    from . import maslov

    a = io.load_hermitian(args.hermitian)
    spectrum = maslov.redistribute_eigenvalues(a, args.target_mu)
    endpoint_error = float(np.abs(maslov.unitary_endpoint(spectrum)
                                  - maslov.exp_i_hermitian(a)).max())
    return {
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "endpoint_error": endpoint_error,
        "target_mu": args.target_mu,
        "trace": float(spectrum.eigenvalues.sum()),
    }


def _run_gamma(args) -> dict:
    from . import growth

    x, y = io.load_path(args.x), io.load_path(args.y)
    ns = tuple(n for n in growth.GROWTH_NS if n <= args.nmax)
    if not ns:
        raise InputError("--nmax smaller than the smallest staircase index 1")
    est = growth.growth_estimate(x, y, ns=ns, p_max=args.pmax, tol=args.tol)
    if args.csv is not None:
        rows = "".join(f"{n},{'' if g is None else g}\n"
                       for n, g in zip(est.ns, est.gamma_ns))
        io.write_text("n,gamma_n\n" + rows, args.csv)
    return {
        "certificates": list(est.certificates),
        "closed_form": est.closed_form,
        "floors": list(est.floors),
        "gamma_ns": list(est.gamma_ns),
        "limit": est.limit_estimate.value,
        "limit_lower": est.limit_estimate.lower,
        "limit_upper": est.limit_estimate.upper,
        "ns": list(est.ns),
    }


def _run_kdist(args) -> dict:
    from . import growth

    est = growth.pseudo_distance_k(io.load_path(args.x), io.load_path(args.y), tol=args.tol)
    return {"lower": est.lower, "upper": est.upper, "value": est.value}


def _run_zcoord(args) -> dict:
    from . import growth

    point = growth.z_coordinate(io.load_path(args.path), tol=args.tol)
    return {"coordinate": point.coordinate, "lower": point.lower, "upper": point.upper}


def _run_defect_sample(args) -> dict:
    from . import maslov

    raw = maslov.quasimorphism_defect_sample(args.pairs, args.dim, args.seed)
    return {"c_emp": args.safety * raw, "dim": args.dim, "max_defect": raw,
            "pairs": args.pairs, "safety": args.safety, "seed": args.seed}


def _run_quant_gamma(args) -> dict:
    from . import prequant

    a, b = io.load_quant_element(args.a), io.load_quant_element(args.b)
    fields = {"gamma": prequant.gamma_quant(a, b), "n": args.n, "gamma_n": None}
    if args.n is not None:
        fields["gamma_n"] = prequant.gamma_n_quant_bruteforce(a, b, args.n)
    return fields


def _run_quant_k(args) -> dict:
    from . import prequant

    return {"value": prequant.k_quant(io.load_quant_element(args.a),
                                      io.load_quant_element(args.b))}


def _run_rot_distance(args) -> dict:
    from . import prequant

    result = prequant.rotation_curve_distance(args.shift, io.load_grid(args.grid))
    return {"minimizer": result.t_star, "shift": args.shift, "value": result.value}


def _run_embed(args) -> dict:
    from . import prequant

    element = prequant.embed_into_z(io.load_grid(args.grid))
    io.save_quant_element(element, args.dest)
    return {"grid_shape": list(element.func.grid_shape), "shift": element.shift}


def _run_cw(args) -> dict:
    from . import prequant

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
    return {"slices": len(funcs), "value": value}


def _run_verify(args) -> int:
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_suite(args.suite, seed=seed, report=print)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 2


# (name, help, arguments, handler) of every report command; each also takes
# --out, and ``verify`` is declared apart since it prints lines, not a report
_COMMANDS = (
    ("maslov", "winding of a sampled path", (_PATH,), _run_maslov),
    ("cone", "classify a path against the positive cone", (_PATH, _TOL), _run_cone),
    ("order", "certify X >= Y in the bi-invariant order", (
        _arg("x", help="path JSON file for X"),
        _arg("y", help="path JSON file for Y"),
        _TOL,
    ), _run_order),
    ("synth-positive", "positive path to a positive diagonal target", (
        _arg("target", help="matrix JSON file (positive diagonal, symplectic)"),
        _arg("dest", help="path JSON file to write"),
        _arg("--grid", type=_grid, default=512, metavar="N",
             help=f"number of samples (default 512, at most {REFINEMENT_CAP})"),
    ), _run_synth_positive),
    ("redistribute", "move Hermitian spectrum to a target winding", (
        _arg("hermitian", help="hermitian JSON file"),
        _arg("target_mu", type=_finite_float, help="target winding, at least 2*pi*n"),
    ), _run_redistribute),
    ("gamma", "relative growth staircase for a pair", (
        _arg("x", help="path JSON file for X (dominant)"),
        _arg("y", help="path JSON file for Y"),
        _arg("--nmax", type=int, default=64, help="largest staircase index (default 64)"),
        _arg("--pmax", type=_natural, default=None,
             help="search powers in [-P, P] on every rung (default: up to the endpoint "
                  "scan's proven top on a unitary pair, else ceil(|gamma| n) + 8)"),
        _TOL,
        _arg("--csv", metavar="FILE", help="also write n,gamma_n rows"),
    ), _run_gamma),
    ("kdist", "pseudo-distance between dominant paths", (
        _arg("x", help="path JSON file"),
        _arg("y", help="path JSON file"),
        _TOL,
    ), _run_kdist),
    ("zcoord", "coordinate of a dominant path on the metric line", (_PATH, _TOL), _run_zcoord),
    ("defect-sample", "sample the quasimorphism defect empirically", (
        _arg("--dim", type=_dim, default=2, help=f"path dimension 2n (at most {DIM_CAP})"),
        _arg("--pairs", type=int, default=20),
        _arg("--seed", type=_natural, default=7),
        _arg("--safety", type=_bound, default=DEFECT_SAFETY),
    ), _run_defect_sample),
    ("quant-gamma", "relative growth of quantomorphism elements", (
        _arg("a", help="quant JSON file (dominant)"),
        _arg("b", help="quant JSON file"),
        _arg("--n", type=int, default=None,
             help="also report the integer staircase value at this n"),
    ), _run_quant_gamma),
    ("quant-k", "pseudo-distance between dominant quant elements", (
        _arg("a", help="quant JSON file"),
        _arg("b", help="quant JSON file"),
    ), _run_quant_k),
    ("rot-distance", "distance from a quant element to the rotation curve", (
        _arg("shift", type=_finite_float, help="fiber shift s"),
        _arg("grid", help="grid JSON file with the leaf function"),
    ), _run_rot_distance),
    ("embed", "embed a leaf function into the metric line", (
        _arg("grid", help="grid JSON file"),
        _arg("dest", help="quant JSON file to write"),
    ), _run_embed),
    ("cw", "Calabi-Weinstein invariant of a family", (
        _arg("grids", nargs="+", help="grid JSON files, one per time slice"),
        _arg("--weights", metavar="W1,W2,...", help="volume weights shared by every slice"),
        _arg("--times", metavar="T1,T2,...",
             help="time grid for the slices (default uniform on [0, 1])"),
    ), _run_cw),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="symporder",
                     description="order, winding and growth on symplectic paths")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    for name, help_text, arguments, handler in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.add_argument("--out", metavar="FILE",
                         help="write the JSON report here instead of stdout")
        sub.set_defaults(report=handler)
    sub = subs.add_parser("verify", help="run the acceptance criteria")
    sub.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    sub.add_argument("--seed", type=_natural, default=None)
    return parser


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _run_verify(args)
        _emit(args.command, args.report(args), args.out)
        return 0
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
