"""Smoke tests for the benchmark: schema, correctness gates, exit codes.

Run with ``python -m pytest bench/test_bench.py``.  Each workload runs at
minimal length (``--seconds 0``: one op, one round of CLI commands); no
assertion here depends on timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert WORKLOADS == ["plan_scan", "general_pairs", "mc_validate", "cli_cold"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_schema_and_gates(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert trace or value["value"] > 0


def bare_copy(tmp_path: Path) -> Path:
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    return copy


def test_exits_nonzero_without_the_program(tmp_path):
    proc = run_bench(bare_copy(tmp_path), "--workload", "plan_scan", "--seconds", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_sweep_output_fails_the_run(tmp_path):
    copy = bare_copy(tmp_path)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "qillum" / "cli.py"
    cli.write_text(cli.read_text().replace("{e_lo:.8e}", "{e_lo:.7e}"))
    proc = run_bench(copy, "--workload", "mc_validate", "--seconds", "0")
    assert proc.returncode == 1
    line = result_line(proc)
    assert line["correct"] is False
    assert "golden" in proc.stdout


def test_bounds_invariants_reject_a_lower_bound_above_chernoff():
    from qillum import ErrorBounds

    good = ErrorBounds(1e-3, 2e-3, 1e-6, 0.4, 0.99, 0.995, 100)
    assert workloads.check_bounds(good, "good") is False
    with pytest.raises(workloads.GateError):
        workloads.check_bounds(ErrorBounds(1e-3, 2e-3, 5e-3, 0.4, 0.99, 0.995, 100), "bad")
    clamped = ErrorBounds(0.49, 0.5, 0.5, 0.9, 0.99999, 1.0, 100)
    assert workloads.check_bounds(clamped, "clamped") is True
    with pytest.raises(workloads.GateError):
        workloads.check_bounds(ErrorBounds(0.0, 2e-3, 0.0, 0.4, 0.99, 0.995, 100), "lost to 0")


def test_required_m_check_is_exact():
    q = 0.999
    m = next(m for m in range(1, 100_000) if 0.5 * q**m <= workloads.TARGET_PE)
    workloads.check_required_m(m, q, "exact")
    for wrong in (m - 1, m + 1):
        with pytest.raises(workloads.GateError):
            workloads.check_required_m(wrong, q, "off by one")


def test_required_m_refusal_check():
    workloads.check_refusal(1.0, "overlap of 1")
    workloads.check_refusal(1.0 - 5e-16, "within 1e-15 of 1")
    with pytest.raises(workloads.GateError):
        workloads.check_refusal(0.999, "reachable")


def test_headline_gate():
    workloads.check_headline(5.0947e-7, 2.2286e-13, 0.2851, 0.4515)
    with pytest.raises(workloads.GateError):
        workloads.check_headline(5.5e-7, 2.2286e-13, 0.2851, 0.4515)
