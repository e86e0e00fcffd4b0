"""Command-line front end: error bounds, M-sweeps to CSV, link plans, Monte Carlo.

Subcommands: ``bounds | sweep | plan | mc``.  Parameters come from flags or
from a flat ``key = value`` config file (flags win).  Exit codes: 0 ok,
2 invalid input, 3 I/O failure.  ``QILLUM_OUT_DIR`` redirects relative
output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__
from .link import DEFAULT_ALICE_TARGET, EVE_FLOOR, Receiver, budget_from_fiber, required_m, security_margin
from .montecarlo import McConfig, run_mc
from .protocol import ProtocolParams
from .receivers import approx_exponents

OUT_DIR_ENV = "QILLUM_OUT_DIR"
CSV_HEADER = "M,alice_qcb,alice_opa_bhatt,eve_qcb_upper,eve_lower_bound"

# Links this close to lossless make the eavesdropping analysis degenerate.
_KAPPA_PLAN_CEILING = 1.0 - 1e-5
# Largest sweep bound: np.logspace reaches 10**log10(m_max) in floats, which
# overflows to inf just below the largest double.
_M_MAX = 1e308


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from None
    values: dict[str, str] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, params: tuple[_Param, ...]) -> dict:
    """Merge flags over config-file values over built-in defaults.

    argparse passes flag values through as strings, so every value, from a
    flag, the config file or a default, gets the one cast and choices check
    here, and an error names the key.
    """
    config = _read_config(args.config) if args.config else {}
    out = {}
    for param in params:
        value = getattr(args, param.name)
        if value is None:
            value = config.get(param.name, param.default)
        if value is None:
            raise ValueError(f"missing required parameter {param.flag} (flag or config file)")
        try:
            cast = param.cast(value)
        except ValueError:
            raise ValueError(f"{param.name} must be {param.cast.__name__}, got {value!r}") from None
        if param.choices and cast not in param.choices:
            raise ValueError(f"{param.name} must be one of {', '.join(param.choices)}, got {value!r}")
        out[param.name] = cast
    return out


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


def _emit(command: str, params: dict, outputs: dict, as_json: bool, lines: list[str]) -> None:
    """Print the run record: everything needed to reproduce the run, plus its outputs."""
    record = {
        "command": command,
        "version": __version__,
        "timestamp": _now(),
        "params": params,
        "outputs": outputs,
    }
    if as_json:
        print(json.dumps(_json_safe(record), indent=2, sort_keys=True, allow_nan=False))
    else:
        print(f"qillum {command} v{__version__} ({record['timestamp']})")
        print(f"parameters: {_echo(params)}")
        for line in lines:
            print(line)


# ----------------------------------------------------------------------
# bounds


def _cmd_bounds(p: dict) -> tuple[dict, list[str]]:
    params = ProtocolParams(**p)
    margin = security_margin(params)
    alice, opa, eve = margin.alice_optimum, margin.alice_opa, margin.eve
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
    return outputs, [
        f"Alice optimum receiver:  Pr(e) <= {alice.chernoff_upper:.9e}  (s* = {alice.s_star:.6f})",
        f"Alice OPA receiver:      Pr(e) <= {opa.bhattacharyya_upper:.9e}",
        f"Eve optimum receiver:    {eve.lower_bound:.9e} <= Pr(e) <= {eve.chernoff_upper:.9e}  (s* = {eve.s_star:.6f})",
        f"approx per-mode exponents: alice_opt={approx.alice_opt:.6e} "
        f"eve_opt={approx.eve_opt:.6e} alice_opa={approx.alice_opa:.6e}",
        f"low-brightness high-noise regime: {approx.in_regime}",
    ]


# ----------------------------------------------------------------------
# sweep


def _sweep_m_values(m_min: int, m_max: int, points: int, scale: str) -> list[int]:
    """The distinct M values of a ``points``-point log or linear grid on [m_min, m_max]."""
    if m_min < 1:
        raise ValueError("m-min must be >= 1")
    if m_max <= m_min:
        raise ValueError("m-max must exceed m-min")
    if m_max > _M_MAX:
        raise ValueError(f"m-max must be at most {_M_MAX:g}")
    if points < 2:
        raise ValueError("points must be >= 2")
    try:
        if scale == "log":
            grid = np.logspace(math.log10(m_min), math.log10(m_max), points)
        else:
            # As floats: numpy cannot subtract integers beyond int64.
            grid = np.linspace(float(m_min), float(m_max), points)
    except ValueError:
        # numpy refuses an array beyond its size limit, in words that name no key.
        raise ValueError("points is too large for numpy to allocate the grid") from None
    return sorted({max(1, int(round(v))) for v in grid})


def sweep_rows(params: ProtocolParams, m_values: list[int]) -> list[tuple[int, float, float, float, float]]:
    """Bound curves over ``m_values`` (``params.m`` is ignored); the receivers' knob-point slot evaluates each pair once."""
    margins = (security_margin(dataclasses.replace(params, m=m)) for m in m_values)
    return [(m, r.alice_optimum.chernoff_upper, r.alice_opa.bhattacharyya_upper, r.eve.chernoff_upper, r.eve.lower_bound)
            for m, r in zip(m_values, margins)]


def _cmd_sweep(p: dict) -> tuple[dict, list[str]]:
    params = ProtocolParams(ns=p["ns"], kappa=p["kappa"], g=p["g"], nb=p["nb"], m=1)
    rows = sweep_rows(params, _sweep_m_values(p["m_min"], p["m_max"], p["points"], p["scale"]))
    # os.path.join keeps an absolute --out as it is, and "" adds no directory.
    path = os.path.join(os.environ.get(OUT_DIR_ENV, ""), p["out"])
    echo_keys = {k: v for k, v in p.items() if k != "out"}
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"# qillum sweep {_echo(echo_keys)} version={__version__}\n")
            handle.write(f"# generated: {_now()}\n")
            handle.write(CSV_HEADER + "\n")
            for m, a_qcb, a_opa, e_up, e_lo in rows:
                handle.write(f"{m},{a_qcb:.8e},{a_opa:.8e},{e_up:.8e},{e_lo:.8e}\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None
    return {"path": path, "rows": len(rows)}, [f"wrote {len(rows)} rows to {path}"]


# ----------------------------------------------------------------------
# plan


def _cmd_plan(p: dict) -> tuple[dict, list[str]]:
    budget = budget_from_fiber(p["km"], p["db_per_km"], p["w"], p["t"])
    if budget.kappa > _KAPPA_PLAN_CEILING:
        raise ValueError(
            f"planner note: link is effectively lossless (kappa = {budget.kappa!r}); "
            "the two-way eavesdropping analysis is degenerate at kappa ~ 1"
        )
    params = ProtocolParams(ns=p["ns"], kappa=budget.kappa, g=p["g"], nb=p["nb"], m=budget.m)
    receiver = Receiver(p["receiver"])
    margin = security_margin(params, alice_target=p["target"])
    needed = required_m(params, p["target"], receiver)
    outputs = {
        "kappa": budget.kappa,
        "m": budget.m,
        "bit_rate_hz": budget.bit_rate,
        "alice_opa_upper": margin.alice_opa.bhattacharyya_upper,
        "alice_optimum_upper": margin.alice_optimum.chernoff_upper,
        "eve_lower": margin.eve.lower_bound,
        "eve_upper": margin.eve.chernoff_upper,
        "margin_ratio": margin.margin_ratio,
        "insecure": margin.insecure,
        "alice_unusable": margin.alice_unusable,
        "required_m_for_target": needed,
        "target": p["target"],
        "receiver": receiver.value,
    }
    return outputs, [
        f"link: kappa = {budget.kappa:.6g}, M = {budget.m}, bit rate = {budget.bit_rate:.6g} bit/s",
        f"Alice OPA receiver:      Pr(e) <= {margin.alice_opa.bhattacharyya_upper:.9e}",
        f"Alice optimum receiver:  Pr(e) <= {margin.alice_optimum.chernoff_upper:.9e}",
        f"Eve optimum receiver:    {margin.eve.lower_bound:.9e} <= Pr(e) <= {margin.eve.chernoff_upper:.9e}",
        f"margin: Eve lower / Alice OPA upper = {margin.margin_ratio:.6g}",
        f"security: {'INSECURE (Eve lower bound below ' + str(EVE_FLOOR) + ')' if margin.insecure else 'secure'}",
        f"usability: {'UNUSABLE (Alice bound above target)' if margin.alice_unusable else 'ok'}",
        f"required M for Pr(e) <= {p['target']:g} with {receiver.value} receiver: {needed}",
    ]


# ----------------------------------------------------------------------
# mc


def _cmd_mc(p: dict) -> tuple[dict, list[str]]:
    params = ProtocolParams(ns=p["ns"], kappa=p["kappa"], g=p["g"], nb=p["nb"], m=p["m"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_mc(McConfig(trials=p["trials"], seed=p["seed"], params=params))
    model, bound = result.model, result.analytic_bound
    notes = [str(w.message) for w in caught]
    if result.empirical_error > bound:
        notes.append(f"empirical error {result.empirical_error:.6e} exceeds the analytic bound {bound:.6e}")
    outputs = {
        "empirical_error": result.empirical_error,
        "wilson_ci95": list(result.wilson_ci95),
        "threshold": result.threshold,
        "trials_used": result.trials_used,
        "analytic_bound": bound,
        "n0": model.n0,
        "n1": model.n1,
        "warnings": notes,
    }
    return outputs, [
        f"OPA photon statistics: n0 = {model.n0:.9e}, n1 = {model.n1:.9e}, "
        f"threshold = {result.threshold:.6f}",
        f"empirical error: {result.empirical_error:.6e} "
        f"(Wilson 95% CI [{result.wilson_ci95[0]:.6e}, {result.wilson_ci95[1]:.6e}])",
        f"analytic Bhattacharyya bound: {bound:.6e}",
    ] + [f"WARNING: {note}" for note in notes]


# ----------------------------------------------------------------------
# parser


class _Param(NamedTuple):
    """One parameter: config key ``name``, flag ``--name`` with ``_`` -> ``-``."""

    name: str
    cast: type
    help: str
    default: object = None
    choices: tuple | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_NS = _Param("ns", float, "mean signal photons per mode")
_KAPPA = _Param("kappa", float, "one-way channel transmissivity, in (0, 1)")
_G = _Param("g", float, "amplifier gain, >= 1")
_NB = _Param("nb", float, "amplifier noise photon number, >= g - 1")
_M = _Param("m", int, "signal-idler mode pairs per bit")

# Each subcommand's runner, --help line and parameters in echo order: the one
# place a parameter is stated.  build_parser makes the flags from it and main
# resolves the values against it.  A runner takes the resolved values and
# returns its outputs and human-readable lines; main alone prints them.
_SUBCOMMANDS = {
    "bounds": (_cmd_bounds, "error-probability bounds at one operating point", (_NS, _KAPPA, _G, _NB, _M)),
    "sweep": (
        _cmd_sweep,
        "bound curves over a range of M, written as CSV",
        (
            _NS, _KAPPA, _G, _NB,
            _Param("m_min", int, "smallest M in the sweep"),
            _Param("m_max", int, "largest M in the sweep"),
            _Param("points", int, "number of sweep points (>= 2)"),
            _Param("scale", str, "grid spacing", choices=("log", "linear")),
            _Param("out", str, f"output CSV path (relative paths honour ${OUT_DIR_ENV})"),
        ),
    ),
    "plan": (
        _cmd_plan,
        "fiber link budget, security margin and required M",
        (
            _Param("km", float, "fiber length in km"),
            _Param("db_per_km", float, "fiber loss in dB/km"),
            _Param("w", float, "source phase-matching bandwidth in Hz"),
            _Param("t", float, "bit duration in seconds"),
            _NS, _G, _NB,
            # Python writes 1e-6 as 1e-06; the help keeps the short exponent.
            _Param("target", float, f"target error probability (default {DEFAULT_ALICE_TARGET:g})".replace("e-0", "e-"),
                   DEFAULT_ALICE_TARGET),
            _Param("receiver", str, f"receiver for required-M sizing (default {Receiver.OPA.value})",
                   Receiver.OPA.value, tuple(r.value for r in Receiver)),
        ),
    ),
    "mc": (
        _cmd_mc,
        "Monte Carlo of the OPA receiver against its bound",
        (
            _NS, _KAPPA, _G, _NB, _M,
            _Param("trials", int, "number of Monte Carlo trials"),
            _Param("seed", int, "RNG seed (default 0)", 0),
        ),
    ),
}

# A config file may hold any subcommand's keys, so that one file serves several.
_CONFIG_KEYS = {param.name for _, _, params in _SUBCOMMANDS.values() for param in params}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qillum",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"qillum {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, params) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(command, help=summary)
        for param in params:
            # No type= or choices=: _resolve casts and checks every value, and
            # the metavar keeps the help text argparse prints for choices.
            metavar = "{" + ",".join(param.choices) + "}" if param.choices else None
            sub.add_argument(param.flag, metavar=metavar, help=param.help)
        sub.add_argument("--config", help="flat 'key = value' config file; flags override it")
        sub.add_argument("--json", action="store_true", help="emit a JSON run record")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print its record; exit 2 on invalid input, 3 on an I/O failure."""
    args = build_parser().parse_args(argv)
    run, _, params = _SUBCOMMANDS[args.command]
    try:
        resolved = _resolve(args, params)
        outputs, lines = run(resolved)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    except MemoryError as exc:
        print(f"error: the run needs more memory than can be allocated: {exc}", file=sys.stderr)
        return 2
    _emit(args.command, resolved, outputs, args.json, lines)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
