"""The benchmark's correctness gates, run on fixed samples in the test suite.

``bench/workloads.GeneralPairs`` draws asymmetric random 2-mode pairs, whose
s* is off 1/2, so every op runs the s-search; its ``check`` enforces
0 < lower <= Chernoff <= Bhattacharyya <= 1/2 and 0 < q* <= q_1/2.
``PlanScan`` runs the planner (``security_margin`` and both ``required_m``
receivers) and tells a correct refusal from a wrong one.  ``CliCold`` runs
the README commands through ``cli.main`` and checks the headline numbers,
the sweep's golden SHA-256 and the plan's required M.  ``tracing.Tracer``
rebinds the traced functions by name, so a traced run breaks when one of
them is renamed or deleted.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_general_pairs_gate_holds_on_200_seeded_pairs():
    workload = workloads.GeneralPairs()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        pair = workload.draw(rng)
        workload.check(pair, workload.op(pair))


def test_plan_scan_gate_holds_on_300_seeded_draws():
    workload = workloads.PlanScan()
    rng = np.random.default_rng(77)
    for _ in range(300):
        params = workload.draw(rng)
        workload.check(params, workload.op(params))


def test_cli_gate_holds_for_each_subcommand(tmp_path):
    workload = workloads.CliCold(str(tmp_path), in_process=True)
    for sub in workload.SUBCOMMANDS:
        item = (sub, workload.argv(sub, mc_seed=7))
        workload.check(item, workload.op(item))


def test_traced_ops_record_spans_across_layers():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        for workload, seed in ((workloads.PlanScan(), 5), (workloads.GeneralPairs(), 6)):
            item = workload.draw(np.random.default_rng(seed))
            workload.check(item, workload.op(item))
    finally:
        tracer.active = False
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # The planner reads both optimum pairs from one stacked decomposition per
    # knob point, which is private, so it books no williamson or pair span.
    assert {
        "link.security_margin", "link.required_m", "receivers.alice_optimum_bounds",
        "receivers.eve_optimum_bounds", "receivers.opa_bhattacharyya", "receivers.opa_model",
        "protocol.derived_coefficients", "gaussian.error_bounds_from_overlaps",
        "gaussian.chernoff_bound", "gaussian.minimize_overlap",
    } <= names


def test_traced_plan_scan_op_forms_one_opa_model():
    """One planner op forms the OPA model and the derived coefficients once each: both pairs and the model share them."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        workload = workloads.PlanScan()
        workload.op(workload.draw(np.random.default_rng(24)))
    finally:
        tracer.active = False
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("receivers.opa_model") == 1
    assert names.count("protocol.derived_coefficients") == 1
