"""One rule for every count and real knob: the same inputs are accepted or refused at every entry point."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum.gaussian import chernoff_bound, error_bounds_from_overlaps, power_cm, power_overlap, williamson
from qillum.link import Receiver, budget_from_fiber, required_m, security_margin
from qillum.montecarlo import McConfig, ml_threshold
from qillum.protocol import ProtocolParams, alice_pair, source_cm
from qillum.receivers import geometric_bhattacharyya_overlap, opa_model

from conftest import HEADLINE

PARAMS = ProtocolParams(**HEADLINE)
PAIR = alice_pair(PARAMS)
MODEL = opa_model(PARAMS)
LINK = dict(length_km=5, loss_db_per_km=5, w_hz=5, t_s=5)


def _params(name):
    return lambda value: getattr(ProtocolParams(**{**HEADLINE, name: value}), name)


def _link(name):
    return lambda value: budget_from_fiber(**{**LINK, name: value}).m


# (entry, key, kind, a valid value, the call giving what is stored or returned)
ENTRIES = [
    *[("ProtocolParams", name, "real", base, _params(name))
      for name, base in (("ns", 1), ("kappa", 0.5), ("g", 10000), ("nb", 10000))],
    ("ProtocolParams", "m", "count", 5, _params("m")),
    ("McConfig", "trials", "count", 5, lambda value: McConfig(trials=value, seed=1, params=PARAMS).trials),
    ("McConfig", "seed", "count", 5, lambda value: McConfig(trials=5, seed=value, params=PARAMS).seed),
    ("error_bounds_from_overlaps", "m", "count", 5, lambda value: error_bounds_from_overlaps(0.9, 0.9, value, 0.5).m),
    ("error_bounds_from_overlaps", "q_star", "real", 0.5,
     lambda value: error_bounds_from_overlaps(value, 0.9, 5, 0.5).q_star),
    ("error_bounds_from_overlaps", "q_half", "real", 0.5,
     lambda value: error_bounds_from_overlaps(0.25, value, 5, 0.5).q_half),
    ("chernoff_bound", "m", "count", 5, lambda value: chernoff_bound(*PAIR, value).m),
    ("ml_threshold", "m", "count", 5, lambda value: ml_threshold(MODEL, value)),
    ("source_cm", "ns", "real", 1, lambda value: source_cm(value).mat.tolist()),
    *[("budget_from_fiber", name, "real", 5, _link(name)) for name in LINK],
    ("required_m", "target_pe", "real", 0.25, lambda value: required_m(PARAMS, value, Receiver.OPA)),
    ("security_margin", "alice_target", "real", 0.25, lambda value: security_margin(PARAMS, value)),
    ("power_overlap", "s", "real", 0.5, lambda value: power_overlap(*PAIR, value)),
    ("power_cm", "s", "real", 0.5, lambda value: power_cm(williamson(PAIR[0].cm), value).tolist()),
    ("geometric_bhattacharyya_overlap", "n0", "real", 1, lambda value: geometric_bhattacharyya_overlap(value, 0.5)),
    ("geometric_bhattacharyya_overlap", "n1", "real", 1, lambda value: geometric_bhattacharyya_overlap(0.5, value)),
]
IDS = [f"{entry}-{key}" for entry, key, *_ in ENTRIES]
BAD = [True, np.True_, "5", None, 10**400, math.nan, math.inf, -1]


@pytest.mark.parametrize("entry, key, kind, base, call", ENTRIES, ids=IDS)
def test_every_entry_point_applies_one_input_rule(entry, key, kind, base, call):
    for value in BAD + [2.5] * (kind == "count"):
        with pytest.raises(ValueError) as excinfo:
            call(value)
        assert re.search(rf"\b{key}\b", str(excinfo.value)), (value, str(excinfo.value))
    if kind == "count":
        good = [np.int64(base), np.float32(base), Fraction(base), 2.0]
    else:
        good = [np.float32(base), Fraction(base)] + [np.int64(base)] * (base == int(base))
    for value in good:
        # What a numpy or Fraction input gives, the same value as a Python int or float gives.
        out, plain = call(value), call(int(value) if kind == "count" else float(value))
        assert type(out) is type(plain) and out == plain, (value, out, plain)


@settings(max_examples=40, deadline=None)
@given(value=st.one_of(st.booleans(), st.text(), st.none(), st.integers(min_value=2**1024), st.floats()))
def test_an_input_is_accepted_or_refused_with_value_error(value):
    """Never TypeError or OverflowError, whatever the value's type or size."""
    for *_, call in ENTRIES:
        try:
            call(value)
        except ValueError:
            pass
