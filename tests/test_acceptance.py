"""Acceptance gate: every criterion must pass at its pinned tolerance.

One line per criterion is printed straight to the terminal (bypassing
capture) so a full run always shows the scoreboard.
"""

import pytest

from symporder import acceptance, growth


@pytest.mark.parametrize("cid", list(acceptance.CRITERIA))
def test_criterion(cid, capsys):
    result = acceptance.run_criterion(cid)
    with capsys.disabled():
        print(result.summary())
    assert result.passed, result.summary()


def test_redistribution_criterion_keeps_its_figures():
    # every C4 target lies far below the 2^27-quanta limit of
    # ``maslov.redistribute_eigenvalues``
    assert acceptance.criterion_redistribution().details == {
        "max_trace_err": "7.11e-15", "min_eigenvalue": "0.803",
        "max_gap_excess": "-2.04e+00", "max_endpoint_err": "1.92e-14"}


def test_power_winding_criterion_fails_on_a_shifted_homogenized_winding(monkeypatch):
    # C7 reads |maslov(X^k) - k mu_tilde(X)| / (n pi), 0.373 at the default
    # seed; a mu_tilde off by 0.5 moves k = 8 by 4 rad
    assert acceptance.criterion_homogenization_defect().details["worst_power_ratio"] == "0.373"
    exact = growth.mu_tilde
    monkeypatch.setattr(growth, "mu_tilde", lambda path: exact(path) + 0.5)
    result = acceptance.criterion_homogenization_defect()
    assert not result.passed and float(result.details["worst_power_ratio"]) > 1.0
