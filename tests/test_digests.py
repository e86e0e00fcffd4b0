"""Bit-identity digests of the protocol path, pinned as SHA-256 of exact float hex.

The draws are ``bench/workloads.PlanScan``'s, imported read-only, so the
inputs are the benchmark's.  The pin holds on Linux x86_64 with CPython
3.11, numpy 2.4.6 and scipy 1.17.1, both on their bundled scipy-openblas
(OpenBLAS 0.3.31): the engine's last bits depend on that LAPACK build, as
the README sweep's golden digest does.  A change that moves a digest updates its pin
and states in CHANGES.md which values moved, by how much and in which
direction against an oracle.
"""

import dataclasses
import hashlib
import sys

import numpy as np

from qillum import link

from conftest import ROOT

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

PROTOCOL_DRAWS = 3000
PROTOCOL_DIGEST = "c500016c1c8dca7cf9442cd46b44272b43ffa430f7df1d1e7e109103ba251bcb"


def exact(value) -> str:
    """``value`` as text that tells apart any two different floats: float hex, fields of dataclasses in order."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return "(" + ",".join(exact(getattr(value, f.name)) for f in dataclasses.fields(value)) + ")"
    return repr(value)


def required_m_or_refusal(params, receiver) -> str:
    try:
        return repr(link.required_m(params, workloads.TARGET_PE, receiver))
    except ValueError as refusal:
        return f"refused: {refusal}"


def test_protocol_path_digest_is_pinned():
    """Every ``security_margin`` field and both ``required_m`` results (refusals by message) over 3000 plan_scan draws, seed 77."""
    draws = workloads.PlanScan()
    rng = np.random.default_rng(77)
    digest = hashlib.sha256()
    for _ in range(PROTOCOL_DRAWS):
        params = draws.draw(rng)
        line = [exact(link.security_margin(params))]
        line += [required_m_or_refusal(params, receiver) for receiver in (link.Receiver.OPA, link.Receiver.OPTIMUM)]
        digest.update((";".join(line) + "\n").encode())
    assert digest.hexdigest() == PROTOCOL_DIGEST
