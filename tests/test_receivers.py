"""Receiver bounds: optimum-receiver Chernoff, OPA photon counting, approximants."""

import dataclasses
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qillum.gaussian as gaussian
import qillum.protocol as protocol
import qillum.receivers as receivers
from qillum import (
    OMEGA,
    CovMat,
    DerivedCoefficients,
    IllConditionedMatrixError,
    McConfig,
    OpaReceiverModel,
    ProtocolParams,
    alice_optimum_bounds,
    alice_pair,
    approx_exponents,
    chernoff_bound,
    error_bounds_from_overlaps,
    eve_optimum_bounds,
    eve_pair,
    geometric_bhattacharyya_overlap,
    derived_coefficients,
    minimize_overlap,
    opa_bhattacharyya,
    opa_model,
    required_m,
    run_mc,
    security_margin,
)
from qillum.link import Receiver

from conftest import parity_pair_q_half_gap, random_valid_params
from test_gaussian import float_hex, protocol_params, workloads


def opa_output_photons_oracle(params: ProtocolParams, bit: int) -> float:
    """Propagate the return/idler covariance matrix through the OPA transform.

    Builds the 4x4 unit-vacuum matrix for the given bit, applies the
    two-mode squeezing symplectic of gain g_opa = 1 + x and reads off the output
    idler mode's mean photon number.  Also asserts the output mode is
    exactly thermal (no phase-sensitive self-correlation), which is what
    makes the geometric count statistics exact.
    """
    from qillum import derived_coefficients

    c = derived_coefficients(params)
    sign = 1.0 if bit == 0 else -1.0
    v = np.array(
        [
            [c.a, 0.0, sign * c.c_a, 0.0],
            [0.0, c.a, 0.0, -sign * c.c_a],
            [sign * c.c_a, 0.0, c.s_diag, 0.0],
            [0.0, -sign * c.c_a, 0.0, c.s_diag],
        ]
    )
    x = params.ns / math.sqrt(params.kappa * params.nb)
    ch, sh = math.sqrt(1.0 + x), math.sqrt(x)
    transform = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    out = transform @ v @ transform.T
    xx, pp, xp = out[2, 2], out[3, 3], out[2, 3]
    assert abs(xx - pp) < 1e-9 * xx, "output mode is not phase insensitive"
    assert abs(xp) < 1e-9, "output mode has x-p correlation"
    return (xx + pp - 2.0) / 4.0


# ----------------------------------------------------------------------
# OPA model


def test_opa_gain_value(headline_params):
    model = opa_model(headline_params)
    assert model.gain_excess == pytest.approx(0.004 / math.sqrt(1000.0), rel=1e-12)
    assert 1.0 + model.gain_excess == pytest.approx(1.000126491, abs=1e-9)


def test_opa_photon_numbers_match_moment_oracle(headline_params):
    model = opa_model(headline_params)
    assert model.n0 == pytest.approx(opa_output_photons_oracle(headline_params, 0), rel=1e-10)
    assert model.n1 == pytest.approx(opa_output_photons_oracle(headline_params, 1), rel=1e-10)
    # frozen regression values at the headline point
    assert model.n0 == pytest.approx(0.14492426079059115, rel=1e-9)
    assert model.n1 == pytest.approx(0.1164131390496452, rel=1e-9)
    assert model.n0 > model.n1 > 0.0


def test_opa_photon_numbers_match_oracle_across_parameters():
    rng = np.random.default_rng(37)
    for _ in range(10):
        params = random_valid_params(rng, m=100)
        if params.nb == 0.0:
            continue
        model = opa_model(params)
        assert model.n0 == pytest.approx(opa_output_photons_oracle(params, 0), rel=1e-9)
        assert model.n1 == pytest.approx(opa_output_photons_oracle(params, 1), rel=1e-9)


def test_opa_modulation_vanishes_with_signal():
    # the bit-dependent shift is 2 sqrt((1 + x) x) c_a, x = g_opa - 1, which goes to
    # zero with the correlation c_a as ns -> 0
    from qillum import derived_coefficients

    params = ProtocolParams(ns=1e-9, kappa=0.1, g=1e4, nb=1e4, m=10)
    model = opa_model(params)
    c = derived_coefficients(params)
    x = model.gain_excess
    shift = 2.0 * math.sqrt((1.0 + x) * x) * c.c_a
    assert model.n0 - model.n1 == pytest.approx(shift, rel=1e-9)
    assert model.n0 - model.n1 == pytest.approx(0.0, abs=1e-8)


def test_opa_model_requires_noise_photons():
    params = ProtocolParams(ns=0.01, kappa=0.3, g=1.0, nb=0.0, m=10)
    with pytest.raises(ValueError, match="nb > 0"):
        opa_model(params)


def test_opa_receiver_model_validation():
    with pytest.raises(ValueError):
        OpaReceiverModel(gain_excess=0.0, n0=1.0, n1=0.5)
    with pytest.raises(ValueError):
        OpaReceiverModel(gain_excess=0.1, n0=0.5, n1=1.0)


def test_opa_model_keeps_a_gain_excess_below_the_float_spacing_of_one():
    # x = ns / sqrt(kappa nb) = 1e-16, so 1 + x rounds to 1
    params = ProtocolParams(ns=1e-13, kappa=0.5, g=2e6, nb=2e6, m=1)
    model = opa_model(params)
    assert model.gain_excess == pytest.approx(1e-16, rel=1e-12)
    assert model.n0 > model.n1 > 0.0


# ----------------------------------------------------------------------
# OPA Bhattacharyya bound


def test_geometric_overlap_closed_form_against_sum():
    n0, n1 = 0.14492426079059115, 0.1164131390496452
    n = np.arange(0, 2000)
    p0 = n0**n / (1.0 + n0) ** (n + 1)
    p1 = n1**n / (1.0 + n1) ** (n + 1)
    brute = float(np.sum(np.sqrt(p0 * p1)))
    assert geometric_bhattacharyya_overlap(n0, n1) == pytest.approx(brute, rel=1e-10)


def test_geometric_overlap_equal_means_is_one():
    assert geometric_bhattacharyya_overlap(0.3, 0.3) == pytest.approx(1.0, rel=1e-15)
    assert error_bounds_from_overlaps(1.0, 1.0, 100, 0.5).bhattacharyya_upper == 0.5


@pytest.mark.parametrize("n0, n1", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan), (-1.0, 1.0)])
def test_geometric_overlap_rejects_non_finite_or_negative_means(n0, n1):
    with pytest.raises(ValueError, match="nonnegative"):
        geometric_bhattacharyya_overlap(n0, n1)


@pytest.mark.parametrize("n0, n1", [(1e120, 0.0), (1e120, 1.0), (1e120, 1e117), (3.0, 1e120), (1e120, 1e120 * (1 - 1e-15))])
def test_geometric_overlap_is_accurate_up_to_its_mean_limit(n0, n1):
    with mpmath.workdps(400):  # (n0 + 1)(n1 + 1) - n0 n1 cancels 240 digits at these means
        a, b = mpmath.mpf(n0), mpmath.mpf(n1)
        exact = 1 / (mpmath.sqrt((a + 1) * (b + 1)) - mpmath.sqrt(a * b))
        assert abs(geometric_bhattacharyya_overlap(n0, n1) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("n0, n1", [(math.nextafter(1e120, math.inf), 0.0), (1.0, 1e154), (1e300, 1e299)])
def test_geometric_overlap_refuses_means_beyond_its_float_range(n0, n1):
    with pytest.raises(ValueError, match="at most 1e\\+120"):
        geometric_bhattacharyya_overlap(n0, n1)


def _geometric_overlap_ulps(n0, n1):
    """Distance in ulps between the float overlap and a 400-digit evaluation at the same n0, n1.

    The oracle's difference of square roots cancels about as many digits as
    the means have, hence 400 digits for means up to 1e120.
    """
    with mpmath.workdps(400):
        a, b = mpmath.mpf(n0), mpmath.mpf(n1)
        exact = 1 / (mpmath.sqrt((a + 1) * (b + 1)) - mpmath.sqrt(a * b))
        q = geometric_bhattacharyya_overlap(n0, n1)
        return q, float(abs(mpmath.mpf(q) - exact)) / math.ulp(float(exact))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_ns=st.floats(-13.0, 0.0))
def test_geometric_overlap_matches_mpmath_oracle(seed, log_ns):
    """Within 2 ulps of the oracle and never above 1, down to sources of 1e-13 photons."""
    knobs = random_valid_params(np.random.default_rng(seed))
    ns = 10.0**log_ns
    model = opa_model(ProtocolParams(ns=ns, kappa=knobs.kappa, g=knobs.g, nb=knobs.nb, m=1))
    q, ulps = _geometric_overlap_ulps(model.n0, model.n1)
    assert q <= 1.0
    assert ulps <= 2.0


def test_geometric_overlap_is_within_11_ulps_up_to_its_mean_limit():
    """Log-uniform means from 1e-13 to 1e120, equal to widely unequal, and one of them 0."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(2000):
        n0 = min(10.0 ** rng.uniform(-13.0, 120.0), 1e120)
        n1 = 0.0 if i % 5 == 0 else n0 * 10.0 ** rng.uniform(-40.0, 0.0)
        if i % 2:
            n0, n1 = n1, n0
        q, ulps = _geometric_overlap_ulps(n0, n1)
        assert q <= 1.0
        worst = max(worst, ulps)
    assert worst <= 11.0


def test_geometric_overlap_stays_below_one_for_a_dim_source():
    # The textbook form 1 / (sqrt((n0+1)(n1+1)) - sqrt(n0 n1)) gives 1 + 2.2e-16 here.
    params = ProtocolParams(
        ns=10**-11.5, kappa=0.9414544223994166, g=7.327531200248029, nb=948649.7720594693, m=1
    )
    model = opa_model(params)
    q, ulps = _geometric_overlap_ulps(model.n0, model.n1)
    assert q <= 1.0 and ulps <= 2.0

def test_opa_bound_at_headline_point(headline_params):
    bounds = opa_bhattacharyya(headline_params)
    assert bounds.bhattacharyya_upper == pytest.approx(5.094651594721115e-07, rel=1e-9)
    assert bounds.q_half == pytest.approx(0.9993104000240395, rel=1e-12)


def test_opa_bound_at_reduced_m():
    params = ProtocolParams(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=2000)
    assert opa_bhattacharyya(params).bhattacharyya_upper == pytest.approx(
        0.12583007424374565, rel=1e-9
    )


# ----------------------------------------------------------------------
# optimum-receiver bounds


def test_alice_bound_far_below_target(headline_params):
    alice = alice_optimum_bounds(headline_params)
    opa = opa_bhattacharyya(headline_params)
    assert alice.chernoff_upper < 1e-6
    assert alice.chernoff_upper < opa.bhattacharyya_upper
    assert abs(alice.s_star - 0.5) < 1e-3


def test_alice_bounds_approach_half_without_signal():
    params = ProtocolParams(ns=1e-10, kappa=0.1, g=1e4, nb=1e4, m=1)
    bounds = alice_optimum_bounds(params)
    assert bounds.chernoff_upper == pytest.approx(0.5, abs=1e-6)


def test_eve_interval_at_headline_point(headline_params):
    eve = eve_optimum_bounds(headline_params)
    assert 0.442 <= eve.chernoff_upper <= 0.460
    assert 0.279 <= eve.lower_bound <= 0.291
    assert abs(eve.s_star - 0.5) < 1e-3


def test_eve_bounds_approach_half_as_kappa_to_one():
    params = ProtocolParams(ns=0.004, kappa=1.0 - 1e-6, g=1e4, nb=1e4, m=20000)
    eve = eve_optimum_bounds(params)
    assert eve.chernoff_upper == pytest.approx(0.5, abs=1e-3)
    assert eve.lower_bound == pytest.approx(0.5, abs=0.05)


# ----------------------------------------------------------------------
# the engine's Q_1/2 against the 50-digit parity-pair oracle of conftest.py


def test_q_half_oracle_agrees_with_itself_at_higher_precision(headline_params):
    cm = eve_pair(headline_params)[0].cm.mat
    with mpmath.workdps(90):
        assert abs(parity_pair_q_half_gap(cm, 50) - parity_pair_q_half_gap(cm, 90)) < mpmath.mpf(10) ** -42


def test_engine_q_half_matches_the_oracle_at_the_headline(headline_params):
    """The engine's 1 - Q_1/2 is within 1e-6 relative of the oracle (measured: Alice 2.6e-10, Eve 3.4e-7)."""
    for pair, bounds in ((alice_pair, alice_optimum_bounds), (eve_pair, eve_optimum_bounds)):
        exact = float(parity_pair_q_half_gap(pair(headline_params)[0].cm.mat))
        assert 1.0 - bounds(headline_params).q_half == pytest.approx(exact, rel=1e-6)


def test_engine_q_half_matches_the_oracle_where_the_gap_is_large():
    """The first 10 pairs with 1 - Q_1/2 > 1e-3 from seeded draws: within 1e-6 relative (measured worst 2.3e-7)."""
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 10:
        params = random_valid_params(rng)
        for pair, bounds in ((alice_pair, alice_optimum_bounds), (eve_pair, eve_optimum_bounds)):
            gap = 1.0 - bounds(params).q_half
            if gap > 1e-3 and checked < 10:
                assert gap == pytest.approx(float(parity_pair_q_half_gap(pair(params)[0].cm.mat)), rel=1e-6)
                checked += 1


# ----------------------------------------------------------------------
# approximate exponents


def test_approx_exponent_values(headline_params):
    approx = approx_exponents(headline_params)
    assert approx.alice_opt == pytest.approx(1.6e-3, rel=1e-12)
    assert approx.eve_opt == pytest.approx(5.76e-6, rel=1e-12)
    assert approx.alice_opa == pytest.approx(8e-4, rel=1e-12)
    assert approx.alice_opt / approx.alice_opa == 2.0
    assert approx.in_regime


def test_regime_flag_off_for_bright_source():
    params = ProtocolParams(ns=0.5, kappa=0.1, g=1e4, nb=1e4, m=100)
    assert not approx_exponents(params).in_regime
    # Off without an amplifier too (g = 1, nb = 0), where the approximants divide by nb = 0.
    no_amplifier = approx_exponents(ProtocolParams(ns=0.004, kappa=0.1, g=1.0, nb=0.0, m=100))
    assert not no_amplifier.in_regime
    assert no_amplifier.alice_opt == no_amplifier.eve_opt == no_amplifier.alice_opa == math.inf


def numeric_exponents(params: ProtocolParams):
    alice = alice_optimum_bounds(params)
    eve = eve_optimum_bounds(params)
    opa = opa_bhattacharyya(params)
    return (
        -math.log(alice.q_star),
        -math.log(eve.q_star),
        -math.log(opa.q_half),
    )


def test_numeric_exponents_match_approximants_at_headline(headline_params):
    a_num, e_num, o_num = numeric_exponents(headline_params)
    approx = approx_exponents(headline_params)
    assert a_num == pytest.approx(approx.alice_opt, rel=0.25)
    assert e_num == pytest.approx(approx.eve_opt, rel=0.25)
    assert o_num == pytest.approx(approx.alice_opa, rel=0.25)


def test_three_db_gap_between_optimum_and_opa(headline_params):
    a_num, _, o_num = numeric_exponents(headline_params)
    assert 1.8 <= a_num / o_num <= 2.2


def test_exponent_ordering_at_headline(headline_params):
    a_num, e_num, o_num = numeric_exponents(headline_params)
    assert e_num < o_num < a_num


def test_approx_eve_bound_consistent_with_exact(headline_params):
    approx = approx_exponents(headline_params)
    approx_bound = 0.5 * math.exp(-headline_params.m * approx.eve_opt)
    assert headline_params.m * approx.eve_opt == pytest.approx(0.1152, rel=1e-12)
    assert approx_bound == pytest.approx(0.4456, abs=1e-3)
    exact = eve_optimum_bounds(headline_params).chernoff_upper
    assert approx_bound == pytest.approx(exact, rel=0.02)


def test_approximants_converge_as_source_dims():
    previous = (math.inf, math.inf, math.inf)
    for ns in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        params = ProtocolParams(ns=ns, kappa=0.1, g=1e4, nb=1e4, m=1)
        approx = approx_exponents(params)
        a_num, e_num, o_num = numeric_exponents(params)
        rels = (
            abs(a_num - approx.alice_opt) / approx.alice_opt,
            abs(e_num - approx.eve_opt) / approx.eve_opt,
            abs(o_num - approx.alice_opa) / approx.alice_opa,
        )
        for rel, prev in zip(rels, previous):
            assert rel <= prev * (1.0 + 1e-9)
        previous = rels


def test_opa_never_beats_optimum_receiver():
    rng = np.random.default_rng(41)
    for _ in range(6):
        params = random_valid_params(rng, m=int(rng.integers(1, 10**4)))
        if params.nb == 0.0:
            continue
        alice = alice_optimum_bounds(params)
        opa = opa_bhattacharyya(params)
        assert alice.chernoff_upper <= opa.bhattacharyya_upper * (1.0 + 1e-12)


def test_security_gap_in_regime():
    # wherever the approximants hold and M separates the exponents, Alice's
    # upper bound sits below Eve's lower bound
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 10:
        params = random_valid_params(rng, m=1)
        approx = approx_exponents(params)
        if not approx.in_regime:
            continue
        m = int(np.ceil(10.0 / approx.alice_opt))
        if m * approx.eve_opt >= 0.5 or m > 10**7:
            continue
        params = ProtocolParams(
            ns=params.ns, kappa=params.kappa, g=params.g, nb=params.nb, m=m
        )
        assert m * approx.alice_opt > 5.0
        alice = alice_optimum_bounds(params)
        eve = eve_optimum_bounds(params)
        assert alice.chernoff_upper < eve.lower_bound
        checked += 1


@settings(max_examples=40, deadline=None)
@given(params=protocol_params(), other_m=st.integers(1, 10**5))
def test_shared_pair_evaluation_matches_fresh_chernoff_bound(params, other_m):
    """Bounds read from the knob-point slot equal a fresh evaluation at every M."""
    assume(other_m != params.m)
    knobs = (params.ns, params.kappa, params.g, params.nb)
    for m in (params.m, other_m):
        at_m = ProtocolParams(ns=params.ns, kappa=params.kappa, g=params.g, nb=params.nb, m=m)
        for optimum_bounds, pair in ((alice_optimum_bounds, alice_pair), (eve_optimum_bounds, eve_pair)):
            assert optimum_bounds(at_m) == chernoff_bound(*pair(at_m), m)
        if m == params.m:
            point = receivers._last[1]
            q_halves = point.q_halves
            assert receivers._last[0] == knobs and q_halves is not None
        else:
            # the second M reuses the knob point and both values
            assert receivers._last[0] == knobs and receivers._last[1] is point and point.q_halves is q_halves


# At ns = 1, g = 1e6, nb = 2e12 one of the two bit-0 states is too ill-conditioned
# to decompose: Eve's at kappa = 0.01, Alice's at kappa = 0.99.
_REFUSED = {
    0.01: (eve_optimum_bounds, alice_optimum_bounds, alice_pair, "1.329e+12"),
    0.99: (alice_optimum_bounds, eve_optimum_bounds, eve_pair, "1.320e+12"),
}


@pytest.mark.parametrize("kappa", sorted(_REFUSED))
def test_each_receiver_raises_only_its_own_refusal(kappa):
    """The other observer's bound still returns; security_margin raises; a repeat re-raises afresh and keeps nothing."""
    refused, served, served_pair, cond = _REFUSED[kappa]
    params = ProtocolParams(ns=1.0, kappa=kappa, g=1e6, nb=2e12, m=10)
    message = f"condition number {re.escape(cond)} exceeds 1e12"
    raised = []
    for call in (refused, security_margin, refused):
        with pytest.raises(IllConditionedMatrixError, match=message) as info:
            call(params)
        raised.append(info.value)
    assert len({id(error) for error in raised}) == 3
    assert served(params) == chernoff_bound(*served_pair(params), 10)
    assert receivers._last[0] == (params.ns, params.kappa, params.g, params.nb) and receivers._last[1].q_halves is None


def test_opa_receiver_decomposes_nothing(williamson_calls, headline_params):
    """opa_bhattacharyya and run_mc at fresh knobs read the OPA model alone."""
    opa_bhattacharyya(headline_params)
    fresh = dataclasses.replace(headline_params, ns=0.005, m=1000)
    run_mc(McConfig(trials=10_000, seed=0, params=fresh))
    assert williamson_calls == []


def test_knob_point_slot_holds_under_concurrent_callers():
    """Threads that rebind the knob-point slot in turn each get a lone caller's report.

    A tracer yields the GIL before every bytecode of ``_knob_point``, so
    another thread can rebind the slot between any two of them: a
    ``_knob_point`` that read the slot's knobs and then, a second time,
    its record could return another point's record.
    """
    points = [ProtocolParams(ns=0.004 * (1 + k), kappa=0.1, g=1e4, nb=1e4, m=100) for k in range(48)]
    expected = [security_margin(params) for params in points]

    def yield_each_opcode(frame, event, arg):
        time.sleep(0)
        return yield_each_opcode

    def tracer(frame, event, arg):
        if frame.f_code is not receivers._knob_point.__code__:
            return None
        frame.f_trace_opcodes = True
        return yield_each_opcode

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threading.settrace(tracer)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            reports = list(pool.map(security_margin, points * 4, timeout=120))
    finally:
        threading.settrace(None)
        sys.setswitchinterval(interval)
    assert reports == expected * 4


def test_knob_point_slot_refills_on_a_return(williamson_calls):
    """Points A, B, A: A is decomposed afresh on its return, to the same bits, and the slot ends holding A."""
    a, b = (ProtocolParams(ns=ns, kappa=0.1, g=1e4, nb=1e4, m=100) for ns in (0.004, 0.008))
    first, _, again = [security_margin(params) for params in (a, b, a)]
    exact = [float_hex([*dataclasses.astuple(r.alice_optimum), *dataclasses.astuple(r.alice_opa), *dataclasses.astuple(r.eve), r.margin_ratio])
             for r in (first, again)]
    assert exact[0] == exact[1]
    a_stack = protocol._bit0_stack(derived_coefficients(a))
    assert [np.array_equal(stack, a_stack) for stack in williamson_calls] == [True, False, True]
    assert receivers._last[0] == (a.ns, a.kappa, a.g, a.nb)


_UNIT = gaussian.Convention.UNIT_VACUUM


def assert_stacked_q_halves_are_each_lone_q_half(params):
    """Both Q_1/2 from the (2, 4, 4) bit-0 pass equal, as float hex, each row's stack of one and ``minimize_overlap`` on its pair."""
    stack = protocol._bit0_stack(derived_coefficients(params))
    stacked = gaussian._parity_q_halves(*gaussian._williamson_stack(stack, (_UNIT, _UNIT), ("state0", "state0")))
    lone = [gaussian._parity_q_halves(*gaussian._williamson_stack(stack[k : k + 1], (_UNIT,), ("state0",)))[0] for k in (0, 1)]
    paired = [minimize_overlap(*pair(params)).q_half for pair in (alice_pair, eve_pair)]
    assert float_hex(stacked) == float_hex(lone) == float_hex(paired)
    served = [optimum_bounds(params).q_half for optimum_bounds in (alice_optimum_bounds, eve_optimum_bounds)]
    assert float_hex(served) == float_hex(stacked)


def test_stacked_bit0_q_halves_match_each_observer_alone_on_plan_scan_draws():
    """Over 300 ``PlanScan`` draws at seed 77, every one decomposed in the stacked pass."""
    draws = workloads.PlanScan()
    rng = np.random.default_rng(77)
    for _ in range(300):
        assert_stacked_q_halves_are_each_lone_q_half(draws.draw(rng))


@settings(max_examples=60, deadline=None)
@given(params=protocol_params())
def test_stacked_bit0_q_halves_match_each_observer_alone(params):
    assert_stacked_q_halves_are_each_lone_q_half(params)


_FINITE = (ValueError, "covariance matrix entries must be finite and at most 8.9e307 in size")
_CONDITION = "covariance matrix condition number {} exceeds 1e12"
# (ns, kappa, g, nb): the refusal of Alice's optimum receiver and of Eve's, None where served.
_EDGE_REFUSALS = {
    (1e300, 0.5, 1e10, 1e10): (_FINITE, _FINITE),
    (1e9, 0.999999, 1.0, 0.0): ((IllConditionedMatrixError, _CONDITION.format("4.793e+15")), None),
    (1e17, 0.9999999, 1.0, 0.0): ((IllConditionedMatrixError, _CONDITION.format("inf")), None),
    (1e-300, 0.5, 1e300, 1e300): ((IllConditionedMatrixError, _CONDITION.format("inf")),) * 2,
    # the two points of ``_REFUSED``
    (1.0, 0.01, 1e6, 2e12): (None, (IllConditionedMatrixError, _CONDITION.format("1.329e+12"))),
    (1.0, 0.99, 1e6, 2e12): ((IllConditionedMatrixError, _CONDITION.format("1.320e+12")), None),
}


def raised(call, params):
    """(type, message) of the exception ``call(params)`` raises, or None where it returns."""
    try:
        call(params)
    except ValueError as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("knobs", list(_EDGE_REFUSALS), ids=repr)
def test_each_refusal_keeps_its_type_and_message(knobs):
    """Each observer raises exactly its own refusal, whichever observer comes first; security_margin raises Alice's, else Eve's."""
    alice, eve = _EDGE_REFUSALS[knobs]
    params = ProtocolParams(*knobs, m=10)
    for calls in ((alice_optimum_bounds, eve_optimum_bounds), (eve_optimum_bounds, alice_optimum_bounds)):
        receivers._last = (None, None)
        got = {call: raised(call, params) for call in calls}
        assert (got[alice_optimum_bounds], got[eve_optimum_bounds]) == (alice, eve)
    receivers._last = (None, None)
    assert raised(security_margin, params) == (alice or eve)


def synthetic_symmetric(rng, n: int) -> np.ndarray:
    """n symmetric 4 x 4 matrices Q diag(lam) Q^T: Q Haar-random, condition number log-uniform on [1e8, 1e18], scale on [1e-3, 1e300].

    One in ten has its least eigenvalue set to zero or a negative value.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, 4, 4)))
    log_cond = rng.uniform(8.0, 18.0, n)
    lam = 10.0 ** (log_cond[:, np.newaxis] * rng.uniform(0.0, 1.0, (n, 4)))  # in [1, cond]
    lam[:, 0], lam[:, 1] = 1.0, 10.0**log_cond
    indefinite = rng.random(n) < 0.1
    lam[indefinite, 0] = -rng.uniform(0.0, 1.0, indefinite.sum()) * rng.integers(0, 2, indefinite.sum())
    lam *= 10.0 ** (rng.uniform(-3.0, 300.0, n) - log_cond)[:, np.newaxis]
    m = (q * lam[:, np.newaxis, :]) @ q.transpose(0, 2, 1)
    return (m + m.transpose(0, 2, 1)) / 2.0


def test_the_condition_gate_refuses_every_matrix_cholesky_would():
    """Every matrix ``_williamson_stack`` accepts factors by Cholesky, and every one Cholesky rejects the gate refuses.

    This is what lets the receivers' stacked pass check a bit-0 row only
    for its entry bound: a symmetric matrix with a 2-norm condition number
    below 1e12 factors (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 10.1: 20 n**1.5 cond u < 1 for n = 4 below
    5.7e13).  The matrices are 10 000 seeded synthetic ones, the bit-0 rows
    of 300 ``PlanScan`` draws (seed 77), and the rows of the
    ``_EDGE_REFUSALS`` points that pass the entry bound, as only those
    reach the gate.
    """
    rows = [*synthetic_symmetric(np.random.default_rng(32), 10_000)]
    draws, rng = workloads.PlanScan(), np.random.default_rng(77)
    for params in [draws.draw(rng) for _ in range(300)] + [ProtocolParams(*knobs, m=10) for knobs in _EDGE_REFUSALS]:
        rows += [row for row in protocol._bit0_stack(derived_coefficients(params)) if np.abs(row).max() <= gaussian._ENTRY_MAX]
    verdicts = set()
    for row in rows:
        refusal = raised(lambda m: gaussian._williamson_stack(m[np.newaxis], (_UNIT,)), row)
        factors = raised(np.linalg.cholesky, row) is None
        assert factors if refusal is None else refusal[0] is IllConditionedMatrixError, row
        verdicts.add((refusal is None, factors))
    assert verdicts == {(True, True), (False, True), (False, False)}  # every verdict the property allows was drawn


# Alice's bit-0 matrix is not positive definite (c_a**2 > a s_diag), Eve's is the vacuum.
_NOT_POSITIVE = DerivedCoefficients(s_diag=1.0, c_q=0.0, a=1.0, c_a=2.0, d=1.0, c_e=0.0, e=1.0)


@pytest.mark.parametrize(
    "coefficients, message",
    [
        (_NOT_POSITIVE, "covariance matrix must be positive definite"),
        (dataclasses.replace(_NOT_POSITIVE, c_a=math.nan), _FINITE[1]),
        (dataclasses.replace(_NOT_POSITIVE, c_a=0.0, a=math.inf), _FINITE[1]),
        # finite, positive definite and well conditioned, but beyond CovMat's entry bound
        (dataclasses.replace(_NOT_POSITIVE, c_a=0.0, a=1e308, s_diag=1e308), _FINITE[1]),
    ],
    ids=["not positive definite", "NaN", "inf", "above the entry bound"],
)
def test_an_invalid_bit0_row_refuses_as_its_covmat_would(coefficients, message, monkeypatch, headline_params, williamson_calls):
    """The stacked pass refuses an invalid row, NaN included, before it reaches dgees; that observer raises CovMat's error, the other is served.

    The entry bound refuses a row before the decomposition; the
    decomposition's condition gate refuses one that is not positive
    definite, so its (2, 4, 4) stack may be recorded, but no row of it
    reaches dgees.
    """
    # the refused stack falls back to the observer's own pair, which protocol builds
    for module in (receivers, protocol):
        monkeypatch.setattr(module, "derived_coefficients", lambda params: coefficients)
    cores, schur = [], gaussian._load_dgees()

    def recording(core):
        cores.append(core.copy())
        return schur(core)

    monkeypatch.setattr(gaussian, "_load_dgees", lambda: recording)
    assert raised(alice_optimum_bounds, headline_params) == (ValueError, message)
    assert eve_optimum_bounds(headline_params).q_half == 1.0  # the vacuum against itself
    *refused, eve_row = williamson_calls
    stack = protocol._bit0_stack(coefficients)
    assert all(np.array_equal(call, stack, equal_nan=True) for call in refused)
    assert np.array_equal(eve_row, [np.eye(4)])
    assert len(cores) == 1 and np.array_equal(cores[0], OMEGA)  # Eve's row alone: the identity's core is Omega
    assert raised(alice_pair, headline_params) == (ValueError, message)
    assert raised(eve_pair, headline_params) is None


def test_planner_validates_no_covmat(monkeypatch, headline_params):
    """security_margin and both required_m at fresh knobs build no CovMat; alice_pair and eve_pair still refuse an invalid one."""
    validated = []
    original = CovMat.__post_init__

    def counting(self):
        validated.append(self)
        original(self)

    monkeypatch.setattr(CovMat, "__post_init__", counting)
    for ns in (0.004, 0.005):
        params = dataclasses.replace(headline_params, ns=ns)
        security_margin(params)
        for receiver in Receiver:
            required_m(dataclasses.replace(params, ns=ns * 1.5), 1e-6, receiver)
    assert validated == []
    beyond = ProtocolParams(ns=1e300, kappa=0.5, g=1e10, nb=1e10, m=10)
    for pair in (alice_pair, eve_pair):
        assert raised(pair, beyond) == _FINITE
    assert len(validated) == 2
