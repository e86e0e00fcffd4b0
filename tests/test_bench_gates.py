"""The benchmark's general_pairs correctness gate, run on a fixed sample in the test suite.

``bench/workloads.GeneralPairs`` draws asymmetric random 2-mode pairs, whose
s* is off 1/2, so every op runs the s-search; its ``check`` enforces
0 < lower <= Chernoff <= Bhattacharyya <= 1/2 and 0 < q* <= q_1/2.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def test_general_pairs_gate_holds_on_200_seeded_pairs():
    workload = workloads.GeneralPairs()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        pair = workload.draw(rng)
        workload.check(pair, workload.op(pair))
