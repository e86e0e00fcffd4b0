"""One workload in a fresh interpreter: set-up, the timed loop, the gates.

Started by ``run.py`` as ``python worker.py '<json config>'``; prints one JSON
object as its last stdout line.  Only the stdlib is imported before
``import qillum, qillum.cli`` is timed, so set-up time includes everything
the program's own import pays for (numpy, scipy).

Modes:
  setup  time set-up only (import plus one warm-up op)
  run    set-up, then the untraced loop for ``seconds``
  trace  set-up, then ``seconds / 2`` untraced and ``seconds / 2`` traced,
         over the same op sequence, so the difference is the tracing overhead

Every timing is reported twice: raw, and scaled to the reference host speed
(see ``KERNELS``).  The scaled value is the metric.
"""

from __future__ import annotations

import collections
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from importlib import metadata

# Host-speed probes: after each op the workload's kernel runs once, or for
# this share of the op's time when that is longer.
PROBE_SHARE = 0.02
# An op is scaled by the median of its own probe and the ones before it, so
# a single noisy probe does not reach the tail latency.
RECENT_PROBES = 5
# Stdlib-kernel calls timed before and after set-up.
SETUP_PROBE_CALLS = 20


def stdlib_kernel() -> float:
    """Fixed pure-Python work: loops, float math, dict and list building."""
    acc = 0.0
    for k in range(2000):
        acc += math.sqrt(k + 1.0) * (k % 7) / (1.0 + k)
    table = {str(k): [k, 2.0 * k] for k in range(300)}
    return acc + len(table)


_LINALG_INPUT = [[4.0, 0.3, 0.2, 0.0], [0.3, 3.0, 0.0, 0.1], [0.2, 0.0, 2.0, 0.4], [0.0, 0.1, 0.4, 5.0]]


def linalg_kernel() -> float:
    """Fixed small-matrix numpy work: 4x4 eigh, products and det.

    numpy is imported here, so this kernel only runs after set-up, when the
    program has loaded numpy itself.
    """
    import numpy as np

    a = np.array(_LINALG_INPUT)
    acc = 0.0
    for _ in range(10):
        lam, u = np.linalg.eigh(a)
        root = (u * np.sqrt(lam)) @ u.T
        acc += np.linalg.det(root @ a @ root.T) + sum(math.sqrt(k + 1.0) for k in range(20))
    return acc


# Kernel and its duration on the reference host.  On a shared host the speed
# of a core drifts by up to 2x over tens of seconds while process CPU time
# still tracks wall time: the drift is contention, not descheduling, and no
# run length averages it away.  Each timing is divided by the slowdown of a
# kernel timed right after it.  Which kernel tracks a workload's slowdown
# depends on its work: linalg for the small-matrix gaussian layer, stdlib
# for set-up, sampling and cold processes (chosen by measurement, see
# bench/README.md).  The kernels share no code with the program.
KERNELS = {"stdlib": (stdlib_kernel, 5e-4), "linalg": (linalg_kernel, 4e-4)}


def probe(kernel: str, calls: int) -> list[float]:
    fn = KERNELS[kernel][0]
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def slowdown(kernel: str, times: list[float]) -> float:
    """How much slower than the reference host the host is right now."""
    return statistics.median(times) / KERNELS[kernel][1]


def timed_setup(cfg: dict):
    times = probe("stdlib", SETUP_PROBE_CALLS)
    start = time.perf_counter()
    import qillum  # noqa: F401
    import qillum.cli  # noqa: F401

    import_s = time.perf_counter() - start
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import workloads

    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=cfg["out_dir"])
    wl = workloads.make(cfg["workload"], tmp_dir, in_process=cfg["mode"] == "trace")
    warm_wl = workloads.make(wl.name, tmp_dir, in_process=True)
    warm_item = warm_wl.warmup_item(np.random.default_rng([cfg["seed"], 1]))
    start = time.perf_counter()
    try:
        warm_wl.op(warm_item)
    except workloads.PROGRAM_REFUSALS:
        pass
    raw = import_s + time.perf_counter() - start
    times += probe("stdlib", SETUP_PROBE_CALLS)
    return raw, raw / slowdown("stdlib", times), wl, tmp_dir


def measure(wl, items, seconds: float, min_ops: int, loop: dict, tracer=None) -> dict:
    """Closed loop, one caller: the next op starts when the previous one ends.

    Only the program call is timed; the host probe and the checks on the
    output run between ops.  Counts accumulate in ``loop`` as they happen,
    so a run stopped by a failed check still reports what it attempted.
    Past the deadline the loop goes on until ``min_ops`` ops completed.
    """
    import workloads

    loop.update(attempted=0, failed=0, events=collections.Counter(), busy_raw=0.0, busy=0.0,
                latencies=[], slowdowns=[])
    recent = collections.deque(maxlen=RECENT_PROBES)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (len(loop["latencies"]) < min_ops and loop["attempted"] < 100):
        item = next(items)
        if tracer is not None:
            tracer.op, tracer.active = loop["attempted"], True
        loop["attempted"] += 1
        start = time.perf_counter()
        try:
            out = wl.op(item)
            refused = False
        except workloads.PROGRAM_REFUSALS:
            refused = True
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        calls = max(1, int(PROBE_SHARE * elapsed / KERNELS[wl.kernel][1]))
        recent.append(statistics.median(probe(wl.kernel, calls)))
        factor = slowdown(wl.kernel, recent)
        loop["slowdowns"].append(factor)
        loop["busy_raw"] += elapsed
        loop["busy"] += elapsed / factor
        if refused:
            loop["failed"] += 1
            continue
        loop["latencies"].append((item[0] if wl.name == "cli_cold" else wl.name, elapsed, elapsed / factor))
        loop["events"].update(wl.check(item, out))
    return loop


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def summarize(wl, loop: dict) -> dict:
    completed = len(loop["latencies"])
    out = {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "clamped_ops": loop["events"]["clamped"],
        "refused_ops": loop["events"]["refused"],
        "host_slowdown": statistics.median(loop["slowdowns"]),
        "tail_pct": wl.tail_pct,
        "tail_samples_beyond": completed - math.ceil(wl.tail_pct / 100.0 * completed),
    }
    for prefix, col, busy in (("", 2, loop["busy"]), ("raw_", 1, loop["busy_raw"])):
        lat = sorted(row[col] for row in loop["latencies"])
        out[prefix + "ops_per_s"] = completed / busy if busy else 0.0
        out[prefix + "op_p50_ms"] = 1e3 * statistics.median(lat) if lat else math.nan
        out[prefix + "op_tail_ms"] = 1e3 * nearest_rank(lat, wl.tail_pct) if lat else math.nan
    if wl.name == "cli_cold":
        for sub in wl.SUBCOMMANDS:
            subs = [norm for kind, _, norm in loop["latencies"] if kind == sub]
            out[f"cli_{sub}_p50_ms"] = 1e3 * statistics.median(subs) if subs else math.nan
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    # One core for the worker, its probes and its CLI children, so a probe
    # measures the core the op ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    raw_setup_s, setup_s, wl, tmp_dir = timed_setup(cfg)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if cfg["mode"] == "setup":
        shutil.rmtree(tmp_dir, ignore_errors=True)
        print(json.dumps(result))
        return 0

    import numpy as np
    import tracing
    import workloads

    result["numpy"] = metadata.version("numpy")
    result["scipy"] = metadata.version("scipy")
    min_ops = len(wl.SUBCOMMANDS) if wl.name == "cli_cold" else 1
    tracer = None
    loop: dict = {}
    try:
        if cfg["mode"] == "run":
            measure(wl, wl.stream(np.random.default_rng(cfg["seed"])), cfg["seconds"], min_ops, loop)
            result.update(summarize(wl, loop))
            who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        else:
            half = cfg["seconds"] / 2.0
            plain = measure(wl, wl.stream(np.random.default_rng(cfg["seed"])), half, min_ops, {})
            tracer = tracing.Tracer()
            tracer.install()
            traced = measure(wl, wl.stream(np.random.default_rng(cfg["seed"])), half, min_ops, loop, tracer)
            tracer.uninstall()
            untraced_rate = summarize(wl, plain)["ops_per_s"]
            traced_rate = summarize(wl, traced)["ops_per_s"]
            result.update(attempted=traced["attempted"], failed=traced["failed"])
            result["layers"] = {
                **tracer.layer_metrics(traced["attempted"]),
                "trace.ops": traced["attempted"],
                "gaussian.clamped_ops": traced["events"]["clamped"],
                "link.required_m.refused_ops": traced["events"]["refused"],
                "trace.untraced_ops_per_s": untraced_rate,
                "trace.traced_ops_per_s": traced_rate,
                "trace.overhead_pct": 100.0 * (1.0 - traced_rate / untraced_rate),
            }
        workloads.run_gates(tmp_dir)
        result["correct"] = True
    except workloads.GateError as exc:
        result.update(correct=False, error=f"correctness gate: {exc}")
    except Exception:  # a crash inside the program is a wrong output, not a refusal
        traceback.print_exc()
        result.update(correct=False, error="program raised:\n" + traceback.format_exc(limit=3))
    finally:
        result.setdefault("attempted", max(1, loop.get("attempted", 0)))
        result.setdefault("failed", loop.get("failed", 0))
        if tracer is not None:
            tracer.uninstall()
            spans = os.path.join(cfg["out_dir"], f"spans-{wl.name}-seed{cfg['seed']}.jsonl")
            tracer.dump(spans)
            result["spans_file"] = spans
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
