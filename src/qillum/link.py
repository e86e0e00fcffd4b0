"""Fiber-link planning: loss budgets, mode-pair counts and security margins.

Converts a physical link description (length, fiber loss, source bandwidth,
bit duration) into protocol parameters, sizes the mode-pair number M needed
to hit a target error probability, and summarises the tradeoff between
Alice's error bound and Eve's: longer fiber means a larger M at fixed
source brightness, hence a lower bit rate 1/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import ErrorBounds, _as_float, _real
from .protocol import ProtocolParams
from .receivers import _ALICE, _opa_overlap, _optimum_q_half, alice_optimum_bounds, eve_optimum_bounds, opa_bhattacharyya

__all__ = [
    "LinkBudget",
    "Receiver",
    "SecurityMarginReport",
    "budget_from_fiber",
    "required_m",
    "security_margin",
]

# Per-mode overlaps at least this close to 1 make any target unreachable.
_OVERLAP_CEILING = 1.0 - 1e-15

# Eve's lower bound below this floor makes an operating point insecure.
EVE_FLOOR = 0.25
DEFAULT_ALICE_TARGET = 1e-6


class Receiver(Enum):
    OPTIMUM = "optimum"
    OPA = "opa"


@dataclass(frozen=True)
class LinkBudget:
    """The protocol quantities a fiber link implies.

    kappa = 10**(-length_km * loss_db_per_km / 10), m = floor(W T) (W T
    within 4 ulps of an integer counts as that integer) and
    bit_rate = 1 / T.  kappa = 1 (zero length) is representable here; it is
    rejected only once protocol parameters are built from the budget.
    """

    kappa: float
    m: int
    bit_rate: float


@dataclass(frozen=True)
class SecurityMarginReport:
    """Alice-versus-Eve bound comparison at one operating point.

    ``margin_ratio`` is Eve's lower bound over Alice's OPA (buildable
    receiver) Bhattacharyya upper bound.  ``insecure`` flags Eve's lower
    bound dropping below ``EVE_FLOOR``, ``alice_unusable`` flags Alice's
    OPA bound missing her target.
    """

    alice_optimum: ErrorBounds
    alice_opa: ErrorBounds
    eve: ErrorBounds
    margin_ratio: float
    insecure: bool
    alice_unusable: bool


def budget_from_fiber(
    length_km: float, loss_db_per_km: float, w_hz: float, t_s: float
) -> LinkBudget:
    """Build a link budget from fiber length, loss rate, bandwidth and bit time.

    Requires finite real inputs and a finite W T >= 1 (at least one full mode
    pair per bit); fractional mode pairs are truncated, which is
    conservative for error probability.  A W T within 4 ulps of an integer
    (ulps of the coarser float format of W and T) counts as that integer, so
    decimal inputs such as 1e11 * 3e-8 are not truncated by rounding.  All is
    formed in Python floats, but two Python ints give W T exactly.
    """
    names = ("length_km", "loss_db_per_km", "w_hz", "t_s")
    length_km, loss_db_per_km, w, t = map(_real, names, (length_km, loss_db_per_km, w_hz, t_s))
    product = w_hz * t_s if isinstance(w_hz, int) and isinstance(t_s, int) else w * t
    _real("W T", product)
    if length_km < 0.0 or loss_db_per_km < 0.0:
        raise ValueError("length_km and loss_db_per_km must be nonnegative")
    if w <= 0.0 or t <= 0.0:
        raise ValueError("w_hz and t_s must be positive")
    if product < 1.0:
        raise ValueError(
            f"W T = {product:.3g} < 1: the bit interval holds no full mode pair"
        )
    # A product within 4 ulps of an integer is that integer (1e11 * 3e-8 is
    # 2999.9999999999995); anything further off is truncated.  The ulps are the
    # coarsest input format's: 2**29 times a double's for float32.
    coarser = [2.0 ** (52 - np.finfo(v.dtype).nmant) for v in (w_hz, t_s) if isinstance(v, np.floating)]
    nearest = round(product)
    m = nearest if abs(product - nearest) <= 4.0 * math.ulp(product) * max([1.0, *coarser]) else math.floor(product)
    kappa = 10.0 ** (-length_km * loss_db_per_km / 10.0)
    return LinkBudget(kappa=kappa, m=m, bit_rate=1.0 / t)


def required_m(
    params: ProtocolParams, target_pe: float, receiver: Receiver = Receiver.OPA
) -> int:
    """Smallest mode-pair number M whose upper bound meets ``target_pe``.

    ``params.m`` is ignored; the per-mode overlap q is fixed by the other
    four knobs and the bound 0.5 * q**M is monotone in M, so the answer is
    the closed-form estimate ceil(log(2 target) / log q), stepped up or
    down to the smallest M that meets the target in floating point.  q is
    read directly, with no ``ErrorBounds`` formed: the OPA receiver's
    geometric Bhattacharyya coefficient, or the optimum receiver's
    s-minimised overlap, each from the evaluation the receivers keep for
    the last (ns, kappa, g, nb) asked about.  For the optimum receiver
    that evaluation decomposes Alice's bit-0 state and Eve's in one
    stacked pass, so a first call at fresh knobs also pays for Eve's,
    which ``security_margin`` at the same knobs then reads.

    Raises:
        ValueError: ``receiver`` not a ``Receiver`` member, target outside
            (0, 0.5], per-mode overlap outside (0, 1], or within 1e-15 of 1
            (target unreachable).  Below that ceiling the answer is at most
            about 6.8e17, even for a target of 5e-324.
    """
    target_pe = _as_float("target_pe", target_pe)
    if not 0.0 < target_pe <= 0.5:
        raise ValueError("target_pe must lie in (0, 0.5]")
    if receiver is Receiver.OPA:
        _, q = _opa_overlap(params)
    elif receiver is Receiver.OPTIMUM:
        q = _optimum_q_half(params, _ALICE)
    else:
        raise ValueError(f"receiver must be Receiver.OPA or Receiver.OPTIMUM, not {receiver!r}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"per-mode overlap {q!r} must lie in (0, 1]")
    if q >= _OVERLAP_CEILING:
        raise ValueError(
            f"per-mode overlap {q!r} is too close to 1: target unreachable"
        )
    log_q = math.log(q)

    def bound(m: int) -> float:
        return 0.5 * math.exp(m * log_q)

    # 0.5 q**M <= target at M >= log(2 target) / log q; the float quotient
    # may be off by a few ulps, which the two steps below correct.
    m = max(1, math.ceil(math.log(2.0 * target_pe) / log_q))
    while bound(m) > target_pe:
        m += 1
    while m > 1 and bound(m - 1) <= target_pe:
        m -= 1
    return m


def security_margin(
    params: ProtocolParams, alice_target: float = DEFAULT_ALICE_TARGET
) -> SecurityMarginReport:
    """Compare Alice's achievable error bound against Eve's lower bound.

    The operating point is insecure when Eve's lower bound falls under
    ``EVE_FLOOR`` and unusable when Alice's OPA bound exceeds
    ``alice_target``, which must lie in (0, 0.5] like ``required_m``'s
    ``target_pe``.  A refused evaluation raises the first refusal in the
    order Alice's optimum receiver, Alice's OPA receiver, Eve's receiver.
    """
    alice_target = _as_float("alice_target", alice_target)
    if not 0.0 < alice_target <= 0.5:
        raise ValueError("alice_target must lie in (0, 0.5]")
    alice_opt = alice_optimum_bounds(params)
    alice_opa = opa_bhattacharyya(params)
    eve = eve_optimum_bounds(params)
    alice_upper = alice_opa.bhattacharyya_upper
    eve_lower = eve.lower_bound
    return SecurityMarginReport(
        alice_optimum=alice_opt,
        alice_opa=alice_opa,
        eve=eve,
        margin_ratio=eve_lower / alice_upper if alice_upper > 0.0 else math.inf,
        insecure=bool(eve_lower < EVE_FLOOR),
        alice_unusable=bool(alice_upper > alice_target),
    )
