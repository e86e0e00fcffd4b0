"""Link budgets, required mode-pair sizing and security margins."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum import (
    ProtocolParams,
    Receiver,
    budget_from_fiber,
    alice_optimum_bounds,
    alice_pair,
    approx_exponents,
    eve_pair,
    geometric_bhattacharyya_overlap,
    opa_bhattacharyya,
    opa_model,
    required_m,
    security_margin,
)

from qillum import gaussian, link, receivers

from conftest import HEADLINE, random_valid_params


# ----------------------------------------------------------------------
# budgets


def test_headline_link_budget():
    budget = budget_from_fiber(50.0, 0.2, 1e12, 2e-8)
    assert budget.kappa == 0.1
    assert budget.m == 20000
    assert budget.bit_rate == 5e7


def test_zero_length_budget_reports_kappa_one():
    budget = budget_from_fiber(0.0, 0.2, 1e12, 2e-8)
    assert budget.kappa == 1.0
    # downstream protocol construction is what rejects it
    with pytest.raises(ValueError, match="kappa"):
        ProtocolParams(ns=0.004, kappa=budget.kappa, g=1e4, nb=1e4, m=budget.m)


def test_hundred_km_budget():
    assert budget_from_fiber(100.0, 0.2, 1e12, 2e-8).kappa == 0.01


def test_budget_rejects_sub_unit_mode_count():
    with pytest.raises(ValueError, match="W T"):
        budget_from_fiber(50.0, 0.2, 1e12, 1e-13)


def test_budget_rejects_bad_inputs():
    with pytest.raises(ValueError):
        budget_from_fiber(-1.0, 0.2, 1e12, 2e-8)
    with pytest.raises(ValueError):
        budget_from_fiber(50.0, 0.2, 0.0, 2e-8)


@pytest.mark.parametrize(
    "args, name",
    [
        ((math.inf, 0.2, 1e12, 2e-8), "length_km"),
        ((50.0, math.nan, 1e12, 2e-8), "loss_db_per_km"),
        ((50.0, 0.2, math.inf, 2e-8), "w_hz"),
        ((50.0, 0.2, math.nan, 2e-8), "w_hz"),
        ((50.0, 0.2, 1e12, math.inf), "t_s"),
        ((50.0, 0.2, 1e300, 1e300), "W T"),
    ],
)
def test_budget_rejects_non_finite_inputs(args, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        budget_from_fiber(*args)


def test_budget_truncates_fractional_mode_pairs():
    assert budget_from_fiber(50.0, 0.2, 1e9, 2.5e-9).m == 2
    assert budget_from_fiber(50.0, 0.2, 1e9, 2.9999e-9).m == 2


@pytest.mark.parametrize(
    "w_hz, t_s, m",
    [
        (1e11, 3e-8, 3000),  # W T = 2999.9999999999995 in floats
        (1e12, 20e-9, 20000),
        (1e18, 1.0, 10**18),
        (1e13, 0.3, 3 * 10**12),
        (2.5, 1.0, 2),
    ],
)
def test_budget_counts_mode_pairs_without_overcounting(w_hz, t_s, m):
    assert budget_from_fiber(50.0, 0.2, w_hz, t_s).m == m


def test_budget_forms_kappa_from_floats_and_w_t_exactly_from_two_ints():
    # 10**300 km at 10**10 dB/km once overflowed converting the int product.
    assert budget_from_fiber(10**300, 10**10, 1, 1).kappa == 0.0 == budget_from_fiber(1e4, 1.0, 1, 1).kappa
    # Two Python ints multiply exactly, beyond 2**53; numpy ints go through floats and cannot wrap.
    assert budget_from_fiber(50, 0.2, 10**20 + 1, 3).m == 3 * 10**20 + 3
    assert budget_from_fiber(50, 0.2, np.int64(10**18), np.int64(100)).m == 10**20


def test_budget_from_float32_inputs_holds_python_floats():
    budget = budget_from_fiber(np.float32(5), np.float32(1), 1, np.float32(5))
    assert type(budget.kappa) is float and type(budget.bit_rate) is float
    assert budget == budget_from_fiber(5.0, 1.0, 1, 5.0)


def test_budget_takes_float32_rounding_of_w_and_t_as_float32_ulps():
    # float32 1e11 and 3e-8 multiply to 2999.99983, within one float32 ulp (2.4e-4) of 3000.
    assert budget_from_fiber(50.0, 0.2, np.float32(1e11), np.float32(3e-8)).m == 3000
    assert budget_from_fiber(50.0, 0.2, np.float32(1e11), 3e-8).m == 3000
    assert budget_from_fiber(50.0, 0.2, np.float32(1e9), np.float32(2.9999e-9)).m == 2
    assert budget_from_fiber(50.0, 0.2, np.longdouble(1e11), np.longdouble(3e-8)).m == 3000


def test_kappa_round_trips_to_db():
    rng = np.random.default_rng(13)
    for _ in range(50):
        length = rng.uniform(0.1, 300.0)
        loss = rng.uniform(0.05, 1.0)
        budget = budget_from_fiber(length, loss, 1e12, 2e-8)
        recovered_db = -10.0 * math.log10(budget.kappa)
        assert recovered_db == pytest.approx(length * loss, rel=1e-9)


# ----------------------------------------------------------------------
# required M


def test_required_m_trivial_target(headline_params):
    # any single mode pair already beats a coin flip
    assert required_m(headline_params, 0.5, Receiver.OPA) == 1


def test_required_m_headline_opa_target(headline_params):
    m_needed = required_m(headline_params, 1e-6, Receiver.OPA)
    # the headline point achieves 5.09e-7 at M = 2e4, so the sized M is smaller
    assert m_needed <= 20000
    at = ProtocolParams(**{**HEADLINE, "m": m_needed})
    below = ProtocolParams(**{**HEADLINE, "m": m_needed - 1})
    assert opa_bhattacharyya(at).bhattacharyya_upper <= 1e-6
    assert opa_bhattacharyya(below).bhattacharyya_upper > 1e-6


def test_required_m_optimum_receiver_needs_fewer_modes(headline_params):
    assert required_m(headline_params, 1e-6, Receiver.OPTIMUM) < required_m(
        headline_params, 1e-6, Receiver.OPA
    )


def test_required_m_monotone_in_target(headline_params):
    sizes = [required_m(headline_params, t, Receiver.OPA) for t in (1e-3, 1e-6, 1e-9)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_required_m_monotone_in_length():
    sizes = []
    for km in (50.0, 60.0, 100.0):
        budget = budget_from_fiber(km, 0.2, 1e12, 2e-8)
        params = ProtocolParams(ns=0.004, kappa=budget.kappa, g=1e4, nb=1e4, m=1)
        sizes.append(required_m(params, 1e-6, Receiver.OPA))
    assert sizes[0] < sizes[1] < sizes[2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_ns=st.floats(-13.0, 0.0),
    receiver=st.sampled_from(list(Receiver)),
    target=st.sampled_from([1e-300, 1e-9, 1e-6, 0.3, 0.5]) | st.floats(1e-300, 0.5),
)
# Points where the estimate ceil(log(2 target) / log q) starts 2 and 3 above
# the answer, and 2 below it.
@example(seed=2, log_ns=-13.0, receiver=Receiver.OPA, target=1e-300)
@example(seed=378, log_ns=-12.0, receiver=Receiver.OPTIMUM, target=1e-300)
@example(seed=36, log_ns=-13.0, receiver=Receiver.OPA, target=1e-300)
def test_required_m_is_the_smallest_m_meeting_the_target(seed, log_ns, receiver, target):
    """Dim sources put q within 1e-12 of 1 and M past 1e15, where log(2 target) / log q is off."""
    knobs = random_valid_params(np.random.default_rng(seed))
    params = ProtocolParams(ns=10.0**log_ns, kappa=knobs.kappa, g=knobs.g, nb=knobs.nb, m=1)
    if receiver is Receiver.OPA:
        model = opa_model(params)
        q = geometric_bhattacharyya_overlap(model.n0, model.n1)
    else:
        q = alice_optimum_bounds(params).q_star
    if q >= 1.0 - 1e-15:
        with pytest.raises(ValueError, match="unreachable"):
            required_m(params, target, receiver)
        return
    m = required_m(params, target, receiver)

    def bound(k):
        return 0.5 * math.exp(k * math.log(q))

    assert m >= 1 and bound(m) <= target
    assert m == 1 or bound(m - 1) > target


def test_required_m_unreachable_target():
    # a source this dim leaves the hypothesis states numerically identical
    params = ProtocolParams(ns=1e-30, kappa=0.5, g=1.0, nb=0.0, m=1)
    with pytest.raises(ValueError, match="unreachable"):
        required_m(params, 1e-6, Receiver.OPTIMUM)


def test_required_m_opa_degenerates_without_gain():
    # the gain excess ns / sqrt(kappa nb) = 1e-18 is kept, but the OPA's
    # per-mode overlap then rounds to 1: refused as unreachable
    params = ProtocolParams(ns=1e-16, kappa=0.1, g=1e4, nb=1e4, m=1)
    with pytest.raises(ValueError, match="target unreachable"):
        required_m(params, 1e-6, Receiver.OPA)


def test_required_m_reads_the_overlap_without_error_bounds(monkeypatch):
    """The M the ErrorBounds.q_star route gives, for both receivers, with no ErrorBounds formed."""
    rng = np.random.default_rng(1977)
    draws = [random_valid_params(rng) for _ in range(40)]
    draws += [ProtocolParams(ns=10.0**log_ns, kappa=0.1, g=1e4, nb=1e4, m=1) for log_ns in (-16, -13, -9)]
    per_mode = {Receiver.OPA: opa_bhattacharyya, Receiver.OPTIMUM: alice_optimum_bounds}
    overlaps = {(params, receiver): per_mode[receiver](params).q_star for params in draws for receiver in Receiver}

    def forbidden(*args):
        raise AssertionError("required_m formed an ErrorBounds")

    monkeypatch.setattr(gaussian, "error_bounds_from_overlaps", forbidden)
    monkeypatch.setattr(receivers, "error_bounds_from_overlaps", forbidden)
    refused = 0
    for (params, receiver), q in overlaps.items():
        for target in (1e-6, 1e-300):
            if q >= 1.0 - 1e-15:
                refused += 1
                with pytest.raises(ValueError, match="target unreachable"):
                    required_m(params, target, receiver)
                continue
            m = required_m(params, target, receiver)
            assert 0.5 * math.exp(m * math.log(q)) <= target, (params, receiver, target)
            assert m == 1 or 0.5 * math.exp((m - 1) * math.log(q)) > target, (params, receiver, target)
    assert refused


@pytest.mark.parametrize("receiver", list(Receiver), ids=lambda r: r.value)
@pytest.mark.parametrize(
    "q, message",
    [(1.0 - 5e-16, "target unreachable"), (1.0, "target unreachable"),
     (0.0, r"must lie in \(0, 1\]"), (1.5, r"must lie in \(0, 1\]"), (math.nan, r"must lie in \(0, 1\]")],
)
def test_required_m_refuses_an_overlap_at_or_outside_the_ceiling(monkeypatch, headline_params, receiver, q, message):
    """An overlap within 1e-15 of 1, or outside (0, 1], is a ValueError whichever receiver reads it."""
    monkeypatch.setattr(link, "_opa_overlap", lambda params: (None, q))
    monkeypatch.setattr(link, "_optimum_q_half", lambda params, observer: q)
    with pytest.raises(ValueError, match=message):
        required_m(headline_params, 1e-6, receiver)


@pytest.mark.parametrize("receiver", ["opa", None, 0], ids=repr)
def test_required_m_refuses_a_receiver_that_is_not_a_member(headline_params, receiver):
    with pytest.raises(ValueError, match=r"\breceiver\b"):
        required_m(headline_params, 1e-6, receiver)


def test_required_m_headline_answer_for_each_receiver(headline_params):
    assert required_m(headline_params, 1e-6, Receiver.OPA) == 19023
    assert required_m(headline_params, 1e-6, Receiver.OPTIMUM) == 9229


def test_required_m_validates_target(headline_params):
    for target in (0.0, 0.51, 0.7):
        with pytest.raises(ValueError, match="target"):
            required_m(headline_params, target, Receiver.OPA)


def test_security_margin_validates_target(headline_params):
    # Outside (0, 0.5] a NaN or 2.0 target once read usable and -1 unusable.
    for target in (0.0, -1.0, 0.51, 2.0, math.nan):
        with pytest.raises(ValueError, match=r"alice_target must lie in \(0, 0.5\]"):
            security_margin(headline_params, alice_target=target)


# ----------------------------------------------------------------------
# security margin


def test_headline_operating_point_is_secure(headline_params):
    report = security_margin(headline_params)
    assert not report.insecure
    assert not report.alice_unusable
    assert approx_exponents(headline_params).in_regime
    assert report.alice_opa.bhattacharyya_upper <= 5.09e-7 * 1.05
    assert report.eve.lower_bound == pytest.approx(0.285, abs=0.006)
    assert report.margin_ratio > 1e5
    assert report.eve.lower_bound - report.alice_opa.bhattacharyya_upper > 0.28



def test_security_margin_at_a_dim_source():
    # Here the OPA overlap once rounded above 1 and the report raised
    # "overlaps must lie in (0, 1]" on valid knobs.
    params = ProtocolParams(
        ns=10**-11.5, kappa=0.9414544223994166, g=7.327531200248029, nb=948649.7720594693, m=1000
    )
    report = security_margin(params)
    assert report.alice_opa.q_half <= 1.0
    assert report.alice_opa.bhattacharyya_upper <= 0.5

def test_bright_source_leaves_regime():
    params = ProtocolParams(ns=0.5, kappa=0.1, g=1e4, nb=1e4, m=20000)
    report = security_margin(params)
    assert not approx_exponents(params).in_regime
    # brighter signal helps Eve: her floor drops well below the headline value
    assert report.eve.lower_bound < 0.285


def test_single_mode_pair_is_unusable():
    params = ProtocolParams(**{**HEADLINE, "m": 1})
    report = security_margin(params)
    assert report.alice_opa.bhattacharyya_upper == pytest.approx(0.5, abs=1e-3)
    assert report.alice_unusable


def test_planner_decomposes_each_state_once(williamson_calls, headline_params):
    """One stacked pass per knob point, over bit 0 of Alice's pair and of Eve's: bit 1 is each one's mirror."""
    security_margin(headline_params)
    assert len(williamson_calls) == 1
    bit0 = [pair(headline_params)[0].cm.mat for pair in (alice_pair, eve_pair)]
    assert williamson_calls[0].tolist() == [mat.tolist() for mat in bit0]
    williamson_calls.clear()
    for receiver in Receiver:
        required_m(headline_params, 1e-6, receiver)
    assert williamson_calls == []  # both pairs from security_margin
    required_m(ProtocolParams(**{**HEADLINE, "ns": 0.005}), 1e-6, Receiver.OPTIMUM)
    assert [len(stack) for stack in williamson_calls] == [2]  # fresh knobs: Eve's bit 0 rides along
