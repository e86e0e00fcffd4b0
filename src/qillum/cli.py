"""Command-line front end: error bounds, M-sweeps to CSV, link plans, Monte Carlo.

Subcommands: ``bounds | sweep | plan | mc``.  Parameters come from flags or
from a flat ``key = value`` config file (flags win).  Exit codes: 0 ok,
2 invalid input, 3 I/O failure.  ``QILLUM_OUT_DIR`` redirects relative
output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .gaussian import error_bounds_from_overlaps
from .link import Receiver, budget_from_fiber, required_m, security_margin
from .montecarlo import McConfig, run_mc
from .protocol import ProtocolParams
from .receivers import (
    alice_optimum_bounds,
    approx_exponents,
    eve_optimum_bounds,
    opa_bhattacharyya,
    opa_model,
)

OUT_DIR_ENV = "QILLUM_OUT_DIR"
CSV_HEADER = "M,alice_qcb,alice_opa_bhatt,eve_qcb_upper,eve_lower_bound"

# Links this close to lossless make the eavesdropping analysis degenerate.
_KAPPA_PLAN_CEILING = 1.0 - 1e-5


@dataclass(frozen=True)
class SweepSpec:
    """M-grid description for the sweep subcommand."""

    m_min: int
    m_max: int
    points: int
    scale: str
    params: ProtocolParams  # params.m is ignored by the sweep

    def __post_init__(self) -> None:
        if self.m_min < 1:
            raise ValueError("m-min must be >= 1")
        if self.m_max <= self.m_min:
            raise ValueError("m-max must exceed m-min")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.scale not in ("log", "linear"):
            raise ValueError("scale must be 'log' or 'linear'")


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to reproduce one invocation, plus its outputs."""

    command: str
    version: str
    timestamp: str
    params: dict
    outputs: dict

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "timestamp": self.timestamp,
            "params": self.params,
            "outputs": self.outputs,
        }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not 'key = value': {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_DEFAULTS = {"target": 1e-6, "receiver": "opa", "seed": 0}


def _resolve(args: argparse.Namespace, config: dict[str, str], spec: list[tuple[str, type]]):
    """Merge flags over config-file values over built-in defaults."""
    out = {}
    for key, cast in spec:
        value = getattr(args, key, None)
        if value is None and key in config:
            value = config[key]
        if value is None:
            value = _DEFAULTS.get(key)
        if value is None:
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"missing required parameter {flag} (flag or config file)")
        out[key] = cast(value)
    return out


def _protocol_params(resolved: dict) -> ProtocolParams:
    return ProtocolParams(
        ns=resolved["ns"],
        kappa=resolved["kappa"],
        g=resolved["g"],
        nb=resolved["nb"],
        m=resolved["m"],
    )


def _echo(params: dict) -> str:
    return " ".join(f"{k}={params[k]}" for k in params)


def _json_safe(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _emit(record: RunRecord, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(_json_safe(record.as_dict()), indent=2, sort_keys=True, allow_nan=False))
    else:
        print(f"qillum {record.command} v{record.version} ({record.timestamp})")
        print(f"parameters: {_echo(record.params)}")
        for line in lines:
            print(line)


# ----------------------------------------------------------------------
# bounds


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    resolved = _resolve(
        args, config, [("ns", float), ("kappa", float), ("g", float), ("nb", float), ("m", int)]
    )
    params = _protocol_params(resolved)
    alice = alice_optimum_bounds(params)
    opa = opa_bhattacharyya(params)
    eve = eve_optimum_bounds(params)
    approx = approx_exponents(params)
    outputs = {
        "alice_chernoff_upper": alice.chernoff_upper,
        "alice_s_star": alice.s_star,
        "alice_opa_bhattacharyya_upper": opa.bhattacharyya_upper,
        "eve_chernoff_upper": eve.chernoff_upper,
        "eve_lower_bound": eve.lower_bound,
        "eve_s_star": eve.s_star,
        "approx_exponent_alice_optimum": approx.alice_opt,
        "approx_exponent_eve_optimum": approx.eve_opt,
        "approx_exponent_alice_opa": approx.alice_opa,
        "in_low_brightness_high_noise_regime": approx.in_regime,
    }
    record = RunRecord("bounds", __version__, _now(), resolved, outputs)
    _emit(
        record,
        args.json,
        [
            f"Alice optimum receiver:  Pr(e) <= {alice.chernoff_upper:.9e}  (s* = {alice.s_star:.6f})",
            f"Alice OPA receiver:      Pr(e) <= {opa.bhattacharyya_upper:.9e}",
            f"Eve optimum receiver:    {eve.lower_bound:.9e} <= Pr(e) <= {eve.chernoff_upper:.9e}  (s* = {eve.s_star:.6f})",
            f"approx per-mode exponents: alice_opt={approx.alice_opt:.6e} "
            f"eve_opt={approx.eve_opt:.6e} alice_opa={approx.alice_opa:.6e}",
            f"low-brightness high-noise regime: {approx.in_regime}",
        ],
    )
    return 0


# ----------------------------------------------------------------------
# sweep


def _sweep_m_values(spec: SweepSpec) -> list[int]:
    if spec.scale == "log":
        grid = np.logspace(math.log10(spec.m_min), math.log10(spec.m_max), spec.points)
    else:
        grid = np.linspace(spec.m_min, spec.m_max, spec.points)
    return sorted(max(1, int(round(v))) for v in grid)


def sweep_rows(spec: SweepSpec) -> list[tuple[int, float, float, float, float]]:
    """Bound curves over the M grid; per-mode overlaps are computed once."""
    alice = alice_optimum_bounds(spec.params)
    opa = opa_bhattacharyya(spec.params)
    eve = eve_optimum_bounds(spec.params)
    rows = []
    for m in _sweep_m_values(spec):
        a = error_bounds_from_overlaps(alice.q_star, alice.q_half, m, alice.s_star)
        o = error_bounds_from_overlaps(opa.q_star, opa.q_half, m, opa.s_star)
        e = error_bounds_from_overlaps(eve.q_star, eve.q_half, m, eve.s_star)
        rows.append((m, a.chernoff_upper, o.bhattacharyya_upper, e.chernoff_upper, e.lower_bound))
    return rows


def _output_path(path: str) -> str:
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    resolved = _resolve(
        args,
        config,
        [
            ("ns", float),
            ("kappa", float),
            ("g", float),
            ("nb", float),
            ("m_min", int),
            ("m_max", int),
            ("points", int),
            ("scale", str),
            ("out", str),
        ],
    )
    params = ProtocolParams(
        ns=resolved["ns"], kappa=resolved["kappa"], g=resolved["g"], nb=resolved["nb"], m=1
    )
    spec = SweepSpec(
        m_min=resolved["m_min"],
        m_max=resolved["m_max"],
        points=resolved["points"],
        scale=resolved["scale"],
        params=params,
    )
    rows = sweep_rows(spec)
    path = _output_path(resolved["out"])
    echo_keys = {k: resolved[k] for k in ("ns", "kappa", "g", "nb", "m_min", "m_max", "points", "scale")}
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"# qillum sweep {_echo(echo_keys)} version={__version__}\n")
            handle.write(f"# generated: {_now()}\n")
            handle.write(CSV_HEADER + "\n")
            for m, a_qcb, a_opa, e_up, e_lo in rows:
                handle.write(f"{m},{a_qcb:.8e},{a_opa:.8e},{e_up:.8e},{e_lo:.8e}\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    outputs = {"path": path, "rows": len(rows)}
    record = RunRecord("sweep", __version__, _now(), resolved, outputs)
    _emit(record, args.json, [f"wrote {len(rows)} rows to {path}"])
    return 0


# ----------------------------------------------------------------------
# plan


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    resolved = _resolve(
        args,
        config,
        [
            ("km", float),
            ("db_per_km", float),
            ("w", float),
            ("t", float),
            ("ns", float),
            ("g", float),
            ("nb", float),
            ("target", float),
            ("receiver", str),
        ],
    )
    budget = budget_from_fiber(resolved["km"], resolved["db_per_km"], resolved["w"], resolved["t"])
    if budget.kappa > _KAPPA_PLAN_CEILING:
        raise ValueError(
            f"planner note: link is effectively lossless (kappa = {budget.kappa!r}); "
            "the two-way eavesdropping analysis is degenerate at kappa ~ 1"
        )
    params = ProtocolParams(
        ns=resolved["ns"], kappa=budget.kappa, g=resolved["g"], nb=resolved["nb"], m=budget.m
    )
    receiver = Receiver(resolved["receiver"])
    margin = security_margin(params, alice_target=resolved["target"])
    needed = required_m(params, resolved["target"], receiver)
    outputs = {
        "kappa": budget.kappa,
        "m": budget.m,
        "bit_rate_hz": budget.bit_rate,
        "alice_opa_upper": margin.alice_opa.bhattacharyya_upper,
        "alice_optimum_upper": margin.alice_optimum.chernoff_upper,
        "eve_lower": margin.eve_lower,
        "eve_upper": margin.eve.chernoff_upper,
        "margin_ratio": margin.margin_ratio,
        "insecure": margin.insecure,
        "alice_unusable": margin.alice_unusable,
        "required_m_for_target": needed,
        "target": resolved["target"],
        "receiver": receiver.value,
    }
    record = RunRecord("plan", __version__, _now(), resolved, outputs)
    _emit(
        record,
        args.json,
        [
            f"link: kappa = {budget.kappa:.6g}, M = {budget.m}, bit rate = {budget.bit_rate:.6g} bit/s",
            f"Alice OPA receiver:      Pr(e) <= {margin.alice_opa.bhattacharyya_upper:.9e}",
            f"Alice optimum receiver:  Pr(e) <= {margin.alice_optimum.chernoff_upper:.9e}",
            f"Eve optimum receiver:    {margin.eve_lower:.9e} <= Pr(e) <= {margin.eve.chernoff_upper:.9e}",
            f"margin: Eve lower / Alice OPA upper = {margin.margin_ratio:.6g}",
            f"security: {'INSECURE (Eve lower bound below ' + str(margin.eve_floor) + ')' if margin.insecure else 'secure'}",
            f"usability: {'UNUSABLE (Alice bound above target)' if margin.alice_unusable else 'ok'}",
            f"required M for Pr(e) <= {resolved['target']:g} with {receiver.value} receiver: {needed}",
        ],
    )
    return 0


# ----------------------------------------------------------------------
# mc


def _cmd_mc(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    resolved = _resolve(
        args,
        config,
        [
            ("ns", float),
            ("kappa", float),
            ("g", float),
            ("nb", float),
            ("m", int),
            ("trials", int),
            ("seed", int),
        ],
    )
    params = _protocol_params(resolved)
    mc_config = McConfig(trials=resolved["trials"], seed=resolved["seed"], params=params)
    bound = opa_bhattacharyya(params).bhattacharyya_upper
    model = opa_model(params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_mc(mc_config)
    warning_lines = [f"WARNING: {w.message}" for w in caught]
    if result.empirical_error > bound:
        warning_lines.append(
            f"WARNING: empirical error {result.empirical_error:.6e} exceeds the "
            f"analytic bound {bound:.6e}"
        )
    outputs = {
        "empirical_error": result.empirical_error,
        "wilson_ci95": list(result.wilson_ci95),
        "threshold": result.threshold,
        "trials_used": result.trials_used,
        "analytic_bound": bound,
        "n0": model.n0,
        "n1": model.n1,
        "warnings": [str(w.message) for w in caught],
    }
    record = RunRecord("mc", __version__, _now(), resolved, outputs)
    lines = [
        f"OPA photon statistics: n0 = {model.n0:.9e}, n1 = {model.n1:.9e}, "
        f"threshold = {result.threshold:.6f}",
        f"empirical error: {result.empirical_error:.6e} "
        f"(Wilson 95% CI [{result.wilson_ci95[0]:.6e}, {result.wilson_ci95[1]:.6e}])",
        f"analytic Bhattacharyya bound: {bound:.6e}",
    ] + warning_lines
    _emit(record, args.json, lines)
    return 0


# ----------------------------------------------------------------------
# parser


def _add_protocol_flags(parser: argparse.ArgumentParser, with_m: bool = True) -> None:
    parser.add_argument("--ns", type=float, help="mean signal photons per mode")
    parser.add_argument("--kappa", type=float, help="one-way channel transmissivity, in (0, 1)")
    parser.add_argument("--g", type=float, help="amplifier gain, >= 1")
    parser.add_argument("--nb", type=float, help="amplifier noise photon number, >= g - 1")
    if with_m:
        parser.add_argument("--m", type=int, help="signal-idler mode pairs per bit")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat 'key = value' config file; flags override it")
    parser.add_argument("--json", action="store_true", help="emit a JSON run record")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qillum",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"qillum {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    bounds = subparsers.add_parser("bounds", help="error-probability bounds at one operating point")
    _add_protocol_flags(bounds)
    _add_common_flags(bounds)
    bounds.set_defaults(func=_cmd_bounds)

    sweep = subparsers.add_parser("sweep", help="bound curves over a range of M, written as CSV")
    _add_protocol_flags(sweep, with_m=False)
    sweep.add_argument("--m-min", type=int, help="smallest M in the sweep")
    sweep.add_argument("--m-max", type=int, help="largest M in the sweep")
    sweep.add_argument("--points", type=int, help="number of sweep points (>= 2)")
    sweep.add_argument("--scale", choices=("log", "linear"), help="grid spacing")
    sweep.add_argument("--out", help=f"output CSV path (relative paths honour ${OUT_DIR_ENV})")
    _add_common_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    plan = subparsers.add_parser("plan", help="fiber link budget, security margin and required M")
    plan.add_argument("--km", type=float, help="fiber length in km")
    plan.add_argument("--db-per-km", type=float, help="fiber loss in dB/km")
    plan.add_argument("--w", type=float, help="source phase-matching bandwidth in Hz")
    plan.add_argument("--t", type=float, help="bit duration in seconds")
    _add_protocol_flags(plan, with_m=False)
    plan.add_argument("--target", type=float, default=None, help="target error probability (default 1e-6)")
    plan.add_argument(
        "--receiver", choices=("optimum", "opa"), default=None, help="receiver for required-M sizing (default opa)"
    )
    _add_common_flags(plan)
    plan.set_defaults(func=_cmd_plan)

    mc = subparsers.add_parser("mc", help="Monte Carlo of the OPA receiver against its bound")
    _add_protocol_flags(mc)
    mc.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    mc.add_argument("--seed", type=int, help="RNG seed (default 0)")
    _add_common_flags(mc)
    mc.set_defaults(func=_cmd_mc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
