"""Correctness checks for benchmark outputs.

Every expected value is computed by the benchmark itself, with numpy, from the
inputs it generated: a closed form or a property the method must have.  No
check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math

# Windings of resolved unitary paths are exact up to roundoff in the summed
# per-step increments; the tolerance is relative to the winding itself.
WINDING_TOL = 1e-9


class CheckError(Exception):
    """An output disagrees with its independently computed expectation."""


def close(what: str, got, want: float, tol: float) -> None:
    """Require a finite number within ``tol`` of ``want``."""
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise CheckError(f"{what}: expected a number, got {got!r}")
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckError(f"{what}: got {got!r}, want {want!r} within {tol:g}")


def winding(what: str, got, exact: float) -> None:
    """A winding must match its exact value; one 2*pi off is far outside."""
    close(what, got, exact, WINDING_TOL * max(1.0, abs(exact)))


def inverse_winding(what: str, mu: float, mu_inverse) -> None:
    """The winding of the pointwise inverse path is minus the winding."""
    winding(what, mu_inverse, -mu)


def staircase(what: str, gamma_n, n: int, ratio: float) -> None:
    """gamma_n of a pair with relative growth ``ratio`` stays in its band.

    gamma_n is the least certified power p with X^p >= Y^n; the exact tie
    sits at n * ratio and certification may add one, so
    |gamma_n / n - ratio| <= (1 + ratio) / n.
    """
    if isinstance(gamma_n, bool) or not isinstance(gamma_n, int):
        raise CheckError(f"{what}: expected an integer gamma_{n}, got {gamma_n!r}")
    if abs(gamma_n / n - ratio) > (1.0 + ratio) / n:
        raise CheckError(f"{what}: gamma_{n} = {gamma_n} leaves the band around "
                         f"{n} * {ratio!r}")


def _reject_constant(name: str):
    raise CheckError(f"report contains the non-JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse a report as strict JSON: NaN and infinities are rejected."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckError("report is not a JSON object")
    return doc


def cli_report(returncode: int, stdout: str, stderr: str) -> dict:
    """A command line call must exit 0, print no traceback and emit strict JSON."""
    if "Traceback" in stderr or "Traceback" in stdout:
        raise CheckError(f"traceback from the command line tool: {stderr[-300:]}")
    if returncode != 0:
        raise CheckError(f"exit code {returncode}: {stderr.strip()[-300:]}")
    return strict_json(stdout)


def fields(command: str, report: dict, expect: dict) -> None:
    """Compare report fields with expectations.

    ``expect`` maps a field to ``(want, tol)`` for numbers, or to a plain
    value that must be equal.
    """
    if report.get("command") != command:
        raise CheckError(f"{command}: report is for {report.get('command')!r}")
    for key, want in expect.items():
        if key not in report:
            raise CheckError(f"{command}: report has no field {key!r}")
        if isinstance(want, tuple):
            close(f"{command}.{key}", report[key], *want)
        elif report[key] != want:
            raise CheckError(f"{command}.{key}: got {report[key]!r}, want {want!r}")
