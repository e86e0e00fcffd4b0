"""Acceptance suite: one test per headline claim, at its stated tolerance.

Each test prints a PASS line on success (visible with ``pytest -s``); a
failed assertion marks the criterion red.  Runtime limits are asserted
where the criterion carries one.
"""

import math
import time

import numpy as np
import pytest

from qillum import (
    ProtocolParams,
    alice_optimum_bounds,
    alice_pair,
    approx_exponents,
    budget_from_fiber,
    eve_optimum_bounds,
    eve_pair,
    McConfig,
    opa_bhattacharyya,
    power_overlap,
    run_mc,
    source_cm,
    validate_physicality,
)
from qillum.cli import CSV_HEADER, main as cli_main

from conftest import HEADLINE, random_valid_params, thermal_state
from test_gaussian import fock_overlap


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion:2d}: {text}")


def test_criterion_01_opa_bound_at_50_km(headline_params):
    bounds, elapsed = timed(lambda: opa_bhattacharyya(headline_params))
    value = bounds.bhattacharyya_upper
    assert abs(value - 5.09e-7) / 5.09e-7 <= 0.05
    assert elapsed < 1.0
    report(1, f"OPA bound {value:.3e} within 5% of 5.09e-7 in {elapsed:.3f}s")


def test_criterion_02_eve_interval_at_50_km(headline_params):
    eve, elapsed = timed(lambda: eve_optimum_bounds(headline_params))
    assert 0.442 <= eve.chernoff_upper <= 0.460
    assert 0.279 <= eve.lower_bound <= 0.291
    assert elapsed < 1.0
    report(
        2,
        f"Eve interval [{eve.lower_bound:.3f}, {eve.chernoff_upper:.3f}] inside "
        f"[0.279, 0.291] x [0.442, 0.460] in {elapsed:.3f}s",
    )


def test_criterion_03_alice_below_target_while_eve_above_floor(headline_params):
    alice = alice_optimum_bounds(headline_params)
    opa = opa_bhattacharyya(headline_params)
    eve = eve_optimum_bounds(headline_params)
    assert opa.bhattacharyya_upper < 1e-6
    assert alice.chernoff_upper < 1e-6
    assert eve.lower_bound > 0.28
    report(
        3,
        f"Alice <= {opa.bhattacharyya_upper:.3e} < 1e-6 while Eve >= "
        f"{eve.lower_bound:.3f} > 0.28",
    )


def test_criterion_04_opa_is_three_db_from_optimum(headline_params):
    alice = alice_optimum_bounds(headline_params)
    opa = opa_bhattacharyya(headline_params)
    ratio = math.log(alice.q_star) / math.log(opa.q_half)
    assert 1.8 <= ratio <= 2.2
    report(4, f"per-mode exponent ratio optimum/OPA = {ratio:.3f} in [1.8, 2.2]")


def test_criterion_05_approximants_within_25_percent_and_converging():
    def relative_errors(ns: float):
        params = ProtocolParams(ns=ns, kappa=0.1, g=1e4, nb=1e4, m=1)
        approx = approx_exponents(params)
        a = -math.log(alice_optimum_bounds(params).q_star)
        e = -math.log(eve_optimum_bounds(params).q_star)
        o = -math.log(opa_bhattacharyya(params).q_half)
        return (
            abs(a - approx.alice_opt) / approx.alice_opt,
            abs(e - approx.eve_opt) / approx.eve_opt,
            abs(o - approx.alice_opa) / approx.alice_opa,
        )

    at_headline = relative_errors(HEADLINE["ns"])
    assert max(at_headline) <= 0.25
    previous = (math.inf,) * 3
    for ns in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        rels = relative_errors(ns)
        for rel, prev in zip(rels, previous):
            assert rel <= prev * (1.0 + 1e-9)
        previous = rels
    report(
        5,
        f"approximant errors at headline {tuple(round(r, 3) for r in at_headline)} "
        f"<= 25%, shrinking monotonically to ns = 1e-4",
    )


def test_criterion_06_overlap_engine_matches_fock_oracle():
    def check_all():
        worst = 0.0
        for mean in (0.5, 1.0, 3.0):
            for s in (0.3, 0.5, 0.7):
                engine = power_overlap(thermal_state(0.0), thermal_state(mean), s)
                oracle = fock_overlap(0.0, mean, s)
                worst = max(worst, abs(engine - oracle) / oracle)
        for n0, n1 in ((0.2, 1.0), (0.2, 4.0), (1.0, 4.0)):
            for s in (0.3, 0.5, 0.7):
                engine = power_overlap(thermal_state(n0), thermal_state(n1), s)
                oracle = fock_overlap(n0, n1, s)
                worst = max(worst, abs(engine - oracle) / oracle)
        for mean in (0.5, 1.0, 3.0):
            half = power_overlap(thermal_state(0.0), thermal_state(mean), 0.5)
            assert half == pytest.approx(1.0 / math.sqrt(mean + 1.0), rel=1e-9)
        return worst

    worst, elapsed = timed(check_all)
    assert worst <= 1e-6
    assert elapsed < 10.0
    report(6, f"Fock-basis oracle agreement, worst rel {worst:.2e} <= 1e-6 in {elapsed:.2f}s")


def test_criterion_07_random_parameter_physicality_sweep():
    def sweep():
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            params = random_valid_params(rng)
            assert validate_physicality(source_cm(params.ns)).ok
            for state0, state1 in (alice_pair(params), eve_pair(params)):
                assert validate_physicality(state0.cm).ok
                assert validate_physicality(state1.cm).ok

    _, elapsed = timed(sweep)
    assert elapsed < 10.0
    report(7, f"1000 random parameter draws all physical in {elapsed:.2f}s")


def test_criterion_08_monte_carlo_respects_opa_bound():
    params = ProtocolParams(**{**HEADLINE, "m": 2000})
    bound = opa_bhattacharyya(params).bhattacharyya_upper

    def run_twice():
        config = McConfig(trials=1_000_000, seed=20260808, params=params)
        return run_mc(config), run_mc(config)

    (first, second), elapsed = timed(run_twice)
    assert first == second  # fixed seed, bit-identical result
    assert first.empirical_error <= bound
    assert first.empirical_error >= bound / 20.0
    assert elapsed < 60.0
    report(
        8,
        f"empirical error {first.empirical_error:.4f} within [bound/20, bound] = "
        f"[{bound / 20:.4f}, {bound:.4f}], deterministic, in {elapsed:.1f}s",
    )


def test_criterion_09_link_planner_headline_numbers():
    budget = budget_from_fiber(50.0, 0.2, 1e12, 20e-9)
    assert budget.kappa == 0.1
    assert budget.m == 20000
    assert budget.bit_rate == 5e7
    report(9, "50 km / 0.2 dB/km / 1 THz / 20 ns -> kappa 0.1, M 20000, 50 Mbit/s")


def test_criterion_10_sweep_regression(tmp_path, capsys):
    args = [
        "sweep", "--ns", "0.004", "--kappa", "0.1", "--g", "1e4", "--nb", "1e4",
        "--m-min", "1000", "--m-max", "100000", "--points", "50", "--scale", "log",
    ]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert cli_main(args + ["--out", str(path)]) == 0
    capsys.readouterr()

    lines = paths[0].read_text().splitlines()
    header_index = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_index] == CSV_HEADER
    data = np.array(
        [[float(x) for x in line.split(",")] for line in lines[header_index + 1 :]]
    )
    assert data.shape[0] == 50
    m, alice, opa, eve_up, eve_lo = data.T
    assert np.all(np.diff(m) >= 0)
    for column in (alice, opa, eve_up, eve_lo):
        assert np.all(np.diff(column) <= 1e-15)
    assert np.all(alice <= opa * (1.0 + 1e-12))
    assert np.all(eve_lo <= eve_up * (1.0 + 1e-12))

    def stable(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("# generated")]

    assert stable(paths[0]) == stable(paths[1])
    report(10, "50-point sweep: monotone curves, correct orderings, byte-deterministic")
