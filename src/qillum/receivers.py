"""Error-probability bounds for the protocol's receivers.

Three receivers are covered: Alice's optimum quantum receiver and Eve's
optimum quantum receiver (both via the Gaussian Chernoff-bound engine), and
Alice's parametric-amplifier (OPA) receiver, which mixes her retained idler
with the returned mode and counts photons.  The OPA output modes are
exactly thermal, so their photon counts are geometric and the Bhattacharyya
bound has a closed form.

Closed-form exponent approximants valid for dim sources over noisy links
(ns << 1, kappa * nb >> 1) are provided alongside the exact bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _ENTRY_MAX, Convention, ErrorBounds, _as_float, _parity_q_halves, _williamson_stack, error_bounds_from_overlaps, minimize_overlap
from .protocol import DerivedCoefficients, ProtocolParams, _bit0_stack, alice_pair, derived_coefficients, eve_pair

__all__ = [
    "OpaReceiverModel",
    "ApproxExponents",
    "alice_optimum_bounds",
    "eve_optimum_bounds",
    "opa_model",
    "opa_bhattacharyya",
    "geometric_bhattacharyya_overlap",
    "approx_exponents",
]

REGIME_NS_MAX = 0.01
REGIME_KAPPA_NB_MIN = 100.0
# Largest photon-count mean the OPA overlap takes: beyond about 1.6e123 its
# numerator (n0 - n1)**2 (...)(A + B + a + b) leaves the float range.
_OPA_MEAN_MAX = 1e120


@dataclass(frozen=True)
class OpaReceiverModel:
    """Photon statistics of the OPA receiver.

    The amplifier gain is g_opa = 1 + x with excess x = ns / sqrt(kappa nb),
    held as ``gain_excess`` = x so that it stays exact where 1 + x rounds
    to 1; each output mode is thermal with mean photon number n0 (bit 0,
    positive correlation) or n1 (bit 1), n0 > n1.
    """

    gain_excess: float
    n0: float
    n1: float

    def __post_init__(self) -> None:
        if not self.gain_excess > 0.0:
            raise ValueError("gain_excess = g_opa - 1 must be positive")
        if not self.n0 >= self.n1 > 0.0:
            raise ValueError("mean photon numbers must satisfy n0 >= n1 > 0")


@dataclass(frozen=True)
class ApproxExponents:
    """Per-mode error exponents in the ns << 1, kappa nb >> 1 regime.

    alice_opt = 4 kappa g ns / nb, eve_opt = 4 kappa (1 - kappa) g ns^2 / nb
    and alice_opa = 2 kappa g ns / nb = alice_opt / 2.  ``in_regime`` flags
    ns < 0.01 together with kappa nb > 100.
    """

    alice_opt: float
    eve_opt: float
    alice_opa: float
    in_regime: bool


# Which observer's optimum Q_{1/2} a caller reads: its row of ``_bit0_stack``.
_ALICE, _EVE = 0, 1


@dataclass
class _KnobPoint:
    """The evaluation shared by every call at one (ns, kappa, g, nb): filled from one ``derived_coefficients``.

    ``q_halves`` holds Alice's and Eve's optimum Q_{1/2} once both bit-0
    matrices are decomposed in one stacked pass; ``opa`` the OPA model and
    its overlap once asked for.  A refused evaluation is not kept.  Only
    the last knob point asked about keeps its record (``_last``).
    """

    coefficients: DerivedCoefficients
    q_halves: tuple[float, float] | None = None
    opa: tuple[OpaReceiverModel, float] | None = None


# The last (knobs, record), rebound whole and read once, so that concurrent callers need no lock.
_last: tuple[tuple[float, float, float, float] | None, _KnobPoint | None] = (None, None)


def _knob_point(params: ProtocolParams) -> _KnobPoint:
    """The record for params' (ns, kappa, g, nb): the last one if its knobs match, else a new one made from the validated params."""
    global _last
    knobs = (params.ns, params.kappa, params.g, params.nb)
    last_knobs, point = _last
    if last_knobs != knobs:
        point = _KnobPoint(derived_coefficients(params))
        _last = knobs, point
    return point


def _optimum_q_half(params: ProtocolParams, observer: int) -> float:
    """Q_{1/2} of ``_ALICE``'s or ``_EVE``'s pair at params' knobs, also its s-minimised overlap (a parity pair's s* is 1/2).

    The first call at a knob point checks both bit-0 matrices, one
    (2, 4, 4) array (``protocol._bit0_stack``), for entries finite and at
    most ``_ENTRY_MAX`` (NaN refused), then decomposes them in one stacked
    pass, whose 1e12 condition gate refuses a row that is not positive
    definite, and keeps both values.  Where either refuses, the observer's
    own pair goes through ``minimize_overlap``, so each observer raises
    only its own pair's refusal, and nothing is kept.
    """
    point = _knob_point(params)
    if point.q_halves is None:
        stack = _bit0_stack(point.coefficients)
        try:
            if not np.abs(stack).max() <= _ENTRY_MAX:  # false for NaN and inf too
                raise ValueError
            point.q_halves = _parity_q_halves(*_williamson_stack(stack, (Convention.UNIT_VACUUM,) * 2, ("state0",) * 2))
        except ValueError:
            return minimize_overlap(*(alice_pair, eve_pair)[observer](params)).q_half
    return point.q_halves[observer]


def _optimum_bounds(params: ProtocolParams, observer: int) -> ErrorBounds:
    q = _optimum_q_half(params, observer)
    return error_bounds_from_overlaps(q, q, params.m, 0.5)


def alice_optimum_bounds(params: ProtocolParams) -> ErrorBounds:
    """Chernoff-family bounds for Alice's optimum quantum receiver.

    Alice's pair is a parity pair, so s* = 1/2 and the Chernoff bound is
    the Bhattacharyya bound.  Per (ns, kappa, g, nb) the bit-0 matrices of
    Alice's pair and Eve's are one (2, 4, 4) array, no ``CovMat``, and
    both Q_{1/2} come from one stacked pass and are kept; only M is per
    call.  A refusal is that of Alice's pair alone, never Eve's.
    """
    return _optimum_bounds(params, _ALICE)


def eve_optimum_bounds(params: ProtocolParams) -> ErrorBounds:
    """Chernoff-family bounds for Eve's optimum quantum receiver.

    Eve's pair is a parity pair, so s* = 1/2 and the Chernoff bound is
    the Bhattacharyya bound.  Per (ns, kappa, g, nb) the bit-0 matrices of
    Eve's pair and Alice's are one (2, 4, 4) array, no ``CovMat``, and
    both Q_{1/2} come from one stacked pass and are kept; only M is per
    call.  A refusal is that of Eve's pair alone, never Alice's.
    """
    return _optimum_bounds(params, _EVE)


def opa_model(params: ProtocolParams) -> OpaReceiverModel:
    """Build the OPA receiver's photon-count model from the protocol knobs.

    The OPA combines idler and return as a' = sqrt(g_opa) a_I +
    sqrt(g_opa - 1) a_R^dagger.  Propagating the return/idler covariance
    matrix through that transform leaves each output mode exactly thermal
    with

        n_k = g_opa ns + (g_opa - 1)(a + 1)/2
              + (-1)^k sqrt(g_opa (g_opa - 1)) c_a,

    where a and c_a are the return/idler coefficients and the bit enters
    through the phase-sensitive cross moment <a_R a_I> = (-1)^k c_a / 2.
    Every term is formed from the excess x = g_opa - 1 = ns / sqrt(kappa nb)
    directly, never from 1 + x, so a dim source keeps its signal.
    """
    if params.nb <= 0.0:
        raise ValueError("the OPA gain 1 + ns / sqrt(kappa nb) requires nb > 0")
    c = _knob_point(params).coefficients
    x = params.ns / math.sqrt(params.kappa * params.nb)
    common = (1.0 + x) * params.ns + x * (c.a + 1.0) / 2.0
    shift = math.sqrt((1.0 + x) * x) * c.c_a
    return OpaReceiverModel(gain_excess=x, n0=common + shift, n1=common - shift)


def geometric_bhattacharyya_overlap(n0: float, n1: float) -> float:
    """Bhattacharyya coefficient of two geometric photon-count distributions.

    sum_n sqrt(P0(n) P1(n)) for thermal counts with means n0, n1 sums to
    q = 1 / [sqrt((n0 + 1)(n1 + 1)) - sqrt(n0 n1)]; equals 1 at n0 = n1.
    With a, b = sqrt(n0), sqrt(n1) and A, B = sqrt(n0 + 1), sqrt(n1 + 1),
    1/q - 1 = [(a - b)^2 - (A - B)^2] / 2 is formed without cancellation as

        (n0 - n1)^2 (1/(A + a) + 1/(B + b)) (A + B + a + b) / (2 (a + b)^2 (A + B)^2),

    so q never exceeds 1 and, against a 400-digit oracle, stays within
    2 ulps of exact for the nearly equal means of a dim source and within
    11 ulps up to the mean limit (the worst of 2e5 log-uniform draws was
    10.05 ulps, at widely unequal means).  Means above 1e120 are refused,
    as that expression overflows beyond about 1.6e123.
    """
    n0, n1 = _as_float("n0", n0), _as_float("n1", n1)
    if not (0.0 <= n0 <= _OPA_MEAN_MAX and 0.0 <= n1 <= _OPA_MEAN_MAX):
        raise ValueError(
            f"mean photon numbers must be nonnegative and at most {_OPA_MEAN_MAX:g}, "
            f"got n0 = {n0!r}, n1 = {n1!r}"
        )
    if n0 == n1:
        return 1.0
    a, b = math.sqrt(n0), math.sqrt(n1)
    big_a, big_b = math.sqrt(n0 + 1.0), math.sqrt(n1 + 1.0)
    excess = (
        0.5 * (n0 - n1) ** 2
        * (1.0 / (big_a + a) + 1.0 / (big_b + b))
        * (big_a + big_b + a + b)
        / ((a + b) ** 2 * (big_a + big_b) ** 2)
    )
    return 1.0 / (1.0 + excess)


def _opa_overlap(params: ProtocolParams) -> tuple[OpaReceiverModel, float]:
    """``opa_model`` at params' knobs and its geometric Bhattacharyya overlap, kept in its knob point's record once formed."""
    point = _knob_point(params)
    if point.opa is None:
        model = opa_model(params)
        point.opa = model, geometric_bhattacharyya_overlap(model.n0, model.n1)
    return point.opa


def opa_bhattacharyya(params: ProtocolParams) -> ErrorBounds:
    """Bhattacharyya bound on the OPA receiver's bit-error probability.

    The per-mode overlap is the closed-form geometric Bhattacharyya
    coefficient (exact, because the OPA outputs are exactly thermal); the
    M-mode bound is 0.5 * q**M in the log domain.  The upper bound is the
    contract here; s is pinned at 1/2.  The model and its overlap are
    shared per (ns, kappa, g, nb); only M is per call.
    """
    _, q = _opa_overlap(params)
    return error_bounds_from_overlaps(q, q, params.m, 0.5)


def approx_exponents(params: ProtocolParams) -> ApproxExponents:
    """Closed-form per-mode exponents and the validity-regime flag."""
    ns, kappa, g, nb = params.ns, params.kappa, params.g, params.nb
    if nb == 0.0:
        # g = 1, nb = 0: the approximants divide by nb and do not apply.
        return ApproxExponents(
            alice_opt=math.inf, eve_opt=math.inf, alice_opa=math.inf, in_regime=False
        )
    alice_opt = 4.0 * kappa * g * ns / nb
    return ApproxExponents(
        alice_opt=alice_opt,
        eve_opt=4.0 * kappa * (1.0 - kappa) * g * ns**2 / nb,
        alice_opa=alice_opt / 2.0,
        in_regime=bool(ns < REGIME_NS_MAX and kappa * nb > REGIME_KAPPA_NB_MIN),
    )
