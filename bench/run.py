"""qillum benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh interpreters with BLAS/OpenMP threads pinned to
1 and ``src/`` on PYTHONPATH; this process imports only the stdlib.  Timings
are scaled to a reference host speed (see ``worker.KERNELS``).  With
``--trace 0`` the last stdout line is one JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric.  The exit code is 0 only when every correctness gate
passed; a checkout without ``src/qillum`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_REPS = 5
# `python -X importtime` runs per traced workload; import.* is their median.
IMPORT_REPS = 3
# Child processes get this long beyond --seconds before they are killed.
GRACE_S = 100.0

# Printed in the report, not in the result line: failed_frac and refused_frac
# are 0 on most workloads, the per-subcommand latencies exist only on
# cli_cold, and the raw timings are the metrics before scaling to the
# reference host speed.
REPORT_UNITS = {
    "failed_frac": "1",
    "refused_frac": "1",
    "clamped_ops": "count",
    "cli_bounds_p50_ms": "ms",
    "cli_sweep_p50_ms": "ms",
    "cli_plan_p50_ms": "ms",
    "cli_mc_p50_ms": "ms",
    "host_slowdown": "x",
    "raw_setup_s": "s",
    "raw_ops_per_s": "1/s",
    "raw_op_p50_ms": "ms",
    "raw_op_tail_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def run_worker(workload: str, mode: str, seed: int, seconds: float, out_dir: Path) -> dict:
    cfg = {"workload": workload, "mode": mode, "seed": seed, "seconds": seconds, "out_dir": str(out_dir)}
    proc = run_child([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(cfg)], seconds + GRACE_S)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict[str, float]:
    """import.{qillum,numpy,scipy}_ms from `python -X importtime`, median of runs.

    Each package's time is the cumulative time of its outermost entries, so
    import.qillum_ms includes the numpy and scipy imports it triggers.
    """
    samples: dict[str, list[float]] = {"qillum": [], "numpy": [], "scipy": []}
    for _ in range(IMPORT_REPS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import qillum, qillum.cli"], GRACE_S)
        totals = dict.fromkeys(samples, 0.0)
        open_depth = dict.fromkeys(samples)  # depth of the outermost entry seen so far
        # importtime prints children before parents, so read it bottom-up.
        for line in reversed(proc.stderr.splitlines()):
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
            for pkg in samples:
                if open_depth[pkg] is not None and depth <= open_depth[pkg]:
                    open_depth[pkg] = None
                if (name == pkg or name.startswith(pkg + ".")) and open_depth[pkg] is None:
                    totals[pkg] += cumulative / 1e3
                    open_depth[pkg] = depth
        for pkg in samples:
            samples[pkg].append(totals[pkg])
    return {f"import.{pkg}_ms": statistics.median(v) for pkg, v in samples.items()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git inside it; 'unknown' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    if trace:
        res = run_worker(name, "trace", seed, seconds, out_dir)
        measured = {**import_times(), **res.pop("layers", {})}
    else:
        setups = [run_worker(name, "setup", seed, 0.0, out_dir) for _ in range(SETUP_REPS - 1)]
        res = run_worker(name, "run", seed, seconds, out_dir)
        setups.append({k: res[k] for k in ("setup_s", "raw_setup_s")})
        for key in ("setup_s", "raw_setup_s"):
            res[key] = statistics.median(s[key] for s in setups)
        res["failed_frac"] = res["failed"] / res["attempted"]
        res["refused_frac"] = res["refused_ops"] / res["attempted"]
        measured = res
    declared = SPEC["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing and res["correct"]:
        raise BenchError(f"{name} did not report {missing}")
    res["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                      for m in declared if m["name"] in measured}
    return res


def report(name: str, res: dict) -> None:
    print(f"== {name}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    if "error" in res:
        print(f"   ERROR {res['error']}")
    for key, metric in res["metrics"].items():
        print(f"   {key:48s} {metric['value']:14.6g} {metric['unit']}")
    for key, unit in REPORT_UNITS.items():
        if key in res:
            print(f"   {key:48s} {res[key]:14.6g} {unit}")
    if "tail_pct" in res:
        print(f"   op_tail_ms is p{res['tail_pct']:g} with {res['tail_samples_beyond']} samples beyond it")
    if "spans_file" in res:
        print(f"   spans written to {res['spans_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qillum" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'qillum'} is missing", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), out_dir)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    first = next(iter(results.values()))
    env.update(numpy=first.get("numpy"), scipy=first.get("scipy"))
    print("environment: " + json.dumps(env, sort_keys=True))

    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "workloads": results, "result": line}, indent=1))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
