"""Spans around the program's public functions, recorded from outside the package.

``install`` wraps each traced function and rebinds the wrapper in every
``qillum.*`` namespace that holds the original, because ``link``,
``receivers`` and ``cli`` import names directly (``from .gaussian import
...``) and a rebinding in the defining module alone would miss their calls.
Spans stay in memory (name, start, end, parent id, op index) until the run
writes them out at its end.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public functions traced per module: the layers are the package modules.
TRACED = {
    "gaussian": (
        "williamson", "power_overlap", "power_cm", "minimize_overlap",
        "chernoff_bound", "error_bounds_from_overlaps", "to_unit_vacuum",
    ),
    "protocol": ("alice_pair", "eve_pair", "derived_coefficients"),
    "receivers": ("alice_optimum_bounds", "eve_optimum_bounds", "opa_model", "opa_bhattacharyya"),
    "link": ("security_margin", "required_m", "budget_from_fiber"),
    "montecarlo": ("run_mc", "ml_threshold"),
    "cli": ("main", "sweep_rows"),
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# Bytes of the arrays run_mc allocates per trial at the seed commit: bits
# and totals (int64), means, 1 + means and the success probability
# (float64), and four boolean masks.  A calculation, not a measurement.
MC_BYTES_PER_TRIAL = 2 * 8 + 3 * 8 + 4 * 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.active = False
        self.op = -1
        self.mc_trials = 0
        self.williamson_inputs: set[bytes] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
                if name == "gaussian.williamson":
                    self.williamson_inputs.add(args[0].mat.tobytes())
                elif name == "montecarlo.run_mc":
                    self.mc_trials += args[0].trials

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "qillum" or n.startswith("qillum.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"qillum.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in self._patches:
            setattr(ns, attr, original)
        self._patches.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Calls and self time per traced function, plus the derived ratios.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because every call is synchronous.
        """
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        overlaps_in_search = 0
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] -= end - start
                if name == "gaussian.power_overlap" and pname == "gaussian.minimize_overlap":
                    overlaps_in_search += 1
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = 1e3 * self_s[name]
        n_will = calls["gaussian.williamson"]
        n_search = calls["gaussian.minimize_overlap"]
        out["gaussian.williamson_per_op"] = n_will / ops if ops else 0.0
        out["gaussian.overlaps_per_search"] = overlaps_in_search / n_search if n_search else 0.0
        out["gaussian.williamson_useful_ratio"] = len(self.williamson_inputs) / n_will if n_will else 0.0
        out["montecarlo.bytes_computed"] = self.mc_trials * MC_BYTES_PER_TRIAL
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: one header, then one span per line."""
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "name", "start_us", "end_us", "parent", "op"],
                                     "names": SPAN_NAMES}) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps([sid, names[name], round(1e6 * (start - t0), 3),
                                         round(1e6 * (end - t0), 3), parent, op]) + "\n")
