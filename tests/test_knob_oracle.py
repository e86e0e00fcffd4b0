"""The README sweep and bounds against the knob-exact oracle golden, and that oracle against the conftest one.

``tests/knob_oracle.py`` computes Alice's and Eve's 1 - Q_1/2 from the knobs
at 60 digits with no qillum code, and writes the golden
``tests/data/readme_sweep_oracle.csv``.  These tests move no pin: the
engine's README sweep is checked against the golden to a relative
tolerance that holds today, and the count of cells whose printed digits
differ is reported.
"""

import hashlib
import math
import sys

import mpmath
import numpy as np
import pytest

import knob_oracle
from qillum import ProtocolParams, eve_optimum_bounds, security_margin
from qillum.cli import main

from conftest import HEADLINE, ROOT, parity_pair_q_half_gap

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

GOLDEN_SHA256 = "fc08e74c52f888a85186596ce23c3ca9286d887151f40998d31c13ebaf5406fb"
README_SWEEP_FLAGS = [f"--{flag}={value!r}" for flag, value in zip(
    ("ns", "kappa", "g", "nb", "m-min", "m-max", "points"), knob_oracle.README_KNOBS + knob_oracle.README_SWEEP)] + ["--scale=log"]
# Worst relative error of an engine cell against the golden, measured over the
# README sweep's 150 optimum cells: 3.9e-7, in Eve's lower bound (Eve's
# upper bound 1.7e-7, Alice's 3.6e-8).  The bound is about 2.5 times that.
CELL_RTOL = 1e-6
# Optimum cells of the README sweep whose 9 printed digits differ from the
# golden today: 34 of Alice's 50 and all 100 of Eve's.  A change may lower
# this count, not raise it.
DIFFERING_CELLS = 134


GOLDEN_TEXT = knob_oracle.GOLDEN.read_text(encoding="utf-8")
GOLDEN_LINES = GOLDEN_TEXT.splitlines()


def test_golden_is_the_oracles_output():
    """The golden is pinned by its SHA-256, and the oracle, run again, writes it byte for byte."""
    assert hashlib.sha256(GOLDEN_TEXT.encode()).hexdigest() == GOLDEN_SHA256
    assert knob_oracle.golden_text() == GOLDEN_TEXT


def differing(engine: list[str], golden: list[str], columns: list[str]) -> list[tuple]:
    """The cells of two rows of printed numbers whose digits differ, as (column, engine, golden); each is first checked to ``CELL_RTOL``."""
    cells = []
    for printed, exact, column in zip(engine, golden, columns, strict=True):
        assert float(printed) == pytest.approx(float(exact), rel=CELL_RTOL, abs=0.0), (column, printed, exact)
        if printed != exact:
            cells.append((column, printed, exact))
    return cells


def readme_sweep_differing(tmp_path) -> list[tuple]:
    """Run the README sweep and check each cell against the golden (``differing``); return the optimum cells whose digits differ, as (M, column, engine, golden).

    The OPA column must be the golden's bytes: it is a closed form already.
    """
    out = tmp_path / "curves.csv"
    assert main(["sweep", *README_SWEEP_FLAGS, "--out", str(out)]) == 0
    engine = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    golden = [line for line in GOLDEN_LINES if not line.startswith("#")]
    assert engine[0] == golden[0] == knob_oracle.CSV_HEADER
    assert [row.split(",")[0] for row in engine] == [row.split(",")[0] for row in golden]
    optimum = []
    for engine_row, golden_row in zip(engine[1:], golden[1:]):
        m, *engine_cells = engine_row.split(",")
        cells = differing(engine_cells, golden_row.split(",")[1:], knob_oracle.CSV_HEADER.split(",")[1:])
        assert [cell for cell in cells if cell[0] == "alice_opa_bhatt"] == []
        optimum += [(int(m), *cell) for cell in cells]
    return optimum


def test_readme_sweep_and_bounds_match_the_golden(capsys, tmp_path):
    """Every engine cell of the README sweep and bounds is within ``CELL_RTOL`` of the golden; the OPA column is the golden's bytes."""
    optimum = readme_sweep_differing(tmp_path)
    capsys.readouterr()

    margin = security_margin(ProtocolParams(**HEADLINE))
    printed = [f"{x:.9e}" for x in (margin.alice_optimum.chernoff_upper, margin.eve.lower_bound, margin.eve.chernoff_upper)]
    names, exact = zip(*(pair.split("=") for pair in GOLDEN_LINES[1].partition(": ")[2].split()))
    assert names == ("alice_chernoff_upper", "eve_lower_bound", "eve_chernoff_upper")
    bounds = differing(printed, exact, names)
    with capsys.disabled():
        print(f"\nREADME sweep: {len(optimum)} of 150 optimum cells differ from the oracle golden in their printed digits; "
              f"README bounds: {len(bounds)} of 3")
    assert len(optimum) <= DIFFERING_CELLS


def test_readme_sweep_on_the_eigh_schur_step_matches_the_golden(eigh_schur, capsys, tmp_path):
    """On a numpy that exports no dgees, every cell of the README sweep is still within ``CELL_RTOL`` of the golden.

    Measured: the worst cell is 4.7e-7 relative off, and 110 of the 150
    optimum cells differ in their printed digits, against 134 on the dgees
    route.
    """
    optimum = readme_sweep_differing(tmp_path)
    capsys.readouterr()
    with capsys.disabled():
        print(f"\nREADME sweep on _eigh_schur: {len(optimum)} of 150 optimum cells differ from the oracle golden in their printed digits")


def test_oracle_matches_the_parity_pair_oracle_on_knob_exact_matrices():
    """The recipe's 1 - Q_1/2 equals ``parity_pair_q_half_gap`` on the same knob-exact matrices to 1e-30, at the headline and seeded plan_scan draws."""
    draws, rng = workloads.PlanScan(), np.random.default_rng(1833)
    points = [ProtocolParams(**HEADLINE)] + [draws.draw(rng) for _ in range(4)]
    for params in points:
        knobs = (params.ns, params.kappa, params.g, params.nb)
        for matrix, gap in zip(knob_oracle.bit0_matrices(*knobs), knob_oracle.gaps(*knobs)):
            with mpmath.workdps(knob_oracle.DPS):
                assert abs(parity_pair_q_half_gap(matrix, dps=knob_oracle.DPS) / gap - 1) < mpmath.mpf(10) ** -30, knobs


# Digits for both oracles in the wider check below.  At 60, the matrix oracle
# loses about 30 digits on small gaps: over 50 further draws the worst
# relative difference was 2.95e-30, at a gap of 4.1e-19, above the 1e-30 of
# the check above.  At 100, the worst over the 25 draws checked is 1.2e-72.
WIDE_DPS = 100


def test_oracle_matches_the_parity_pair_oracle_at_100_digits_on_further_draws(monkeypatch):
    """At ``WIDE_DPS`` digits on both sides, the recipe's 1 - Q_1/2 equals ``parity_pair_q_half_gap`` to 1e-60 on the 25 plan_scan draws after the four above."""
    monkeypatch.setattr(knob_oracle, "DPS", WIDE_DPS)
    draws, rng = workloads.PlanScan(), np.random.default_rng(1833)
    points = [draws.draw(rng) for _ in range(4 + 25)][4:]
    for params in points:
        knobs = (params.ns, params.kappa, params.g, params.nb)
        for matrix, gap in zip(knob_oracle.bit0_matrices(*knobs), knob_oracle.gaps(*knobs)):
            with mpmath.workdps(WIDE_DPS):
                assert abs(parity_pair_q_half_gap(matrix, dps=WIDE_DPS) / gap - 1) < mpmath.mpf(10) ** -60, knobs


# The FOUND point of ROADMAP item 1 (CHANGES.md, the FOUND on
# ``_overlap_evaluator``): Eve's q_half reads exactly 1.0 there, so ``qillum
# bounds`` prints 5.000000000e-01 <= Pr(e) <= 5.000000000e-01.
FOUND_POINT = ProtocolParams(ns=0.004, kappa=0.9, g=1e4, nb=1e8, m=20000)


def eve_gap_at_the_found_point() -> mpmath.mpf:
    return knob_oracle.gaps(FOUND_POINT.ns, FOUND_POINT.kappa, FOUND_POINT.g, FOUND_POINT.nb)[1]


def test_eves_true_interval_at_the_found_point():
    """Eve's 1 - Q_1/2 is 5.534e-10 at the FOUND point, so her true interval at M = 20000 is [0.4976475335, 0.4999944659]."""
    gap = eve_gap_at_the_found_point()
    assert float(gap) == pytest.approx(5.53415995824e-10, rel=1e-11)
    with mpmath.workdps(knob_oracle.DPS):
        q_m = (1 - gap) ** FOUND_POINT.m
        interval = [knob_oracle.scientific(x, 9) for x in ((1 - mpmath.sqrt(1 - q_m**2)) / 2, q_m / 2)]
    assert interval == ["4.976475335e-01", "4.999944659e-01"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1a, closed-form Q½")
def test_eves_gap_at_the_found_point_matches_the_oracle():
    """The engine's 1 - Q_1/2 for Eve at the FOUND point is within 1e-6 of the oracle's; today it reads 0."""
    engine = 1.0 - eve_optimum_bounds(FOUND_POINT).q_half
    assert math.isclose(engine, float(eve_gap_at_the_found_point()), rel_tol=1e-6)
