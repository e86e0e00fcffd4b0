"""CLI contract: subcommands, exit codes, CSV format, config precedence."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qillum import ProtocolParams, alice_pair, eve_pair
from qillum.cli import CSV_HEADER, OUT_DIR_ENV, main

import knob_oracle
from conftest import HEADLINE, src_env

HEADLINE_FLAGS = ["--ns", "0.004", "--kappa", "0.1", "--g", "1e4", "--nb", "1e4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, (json.loads(out) if code == 0 else None), err


# ----------------------------------------------------------------------
# bounds


def test_bounds_headline_point(capsys):
    code, record, _ = run_json(capsys, "bounds", *HEADLINE_FLAGS, "--m", "20000")
    assert code == 0
    outputs = record["outputs"]
    assert outputs["alice_opa_bhattacharyya_upper"] == pytest.approx(5.09e-7, rel=0.05)
    assert 0.442 <= outputs["eve_chernoff_upper"] <= 0.460
    assert 0.279 <= outputs["eve_lower_bound"] <= 0.291
    assert outputs["in_low_brightness_high_noise_regime"] is True
    # full parameter echo
    assert record["params"] == {
        "ns": 0.004,
        "kappa": 0.1,
        "g": 1e4,
        "nb": 1e4,
        "m": 20000,
    }


def test_bounds_decomposes_two_matrices(capsys, williamson_calls):
    """An in-process ``qillum bounds`` decomposes bit 0 of Alice's pair and of Eve's in one stacked pass: bit 1 is each one's mirror."""
    code, _, _ = run_cli(capsys, "bounds", *HEADLINE_FLAGS, "--m", "20000")
    assert code == 0
    params = ProtocolParams(**HEADLINE)
    bit0 = [pair(params)[0].cm.mat for pair in (alice_pair, eve_pair)]
    assert [len(stack) for stack in williamson_calls] == [2]
    assert np.array_equal(williamson_calls[0], bit0)


def test_cold_bounds_skips_the_scipy_linalg_package_init(capsys):
    """A fresh ``qillum bounds`` imports no scipy.linalg package init and none of what it pulls in."""
    argv = ["bounds", *HEADLINE_FLAGS, "--m", "20000", "--json"]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qillum", *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "qillum.gaussian" in imported
    banned = ("scipy.linalg", "scipy._lib", "numpy.f2py", "numpy.testing")
    assert [name for name in imported if any(name == b or name.startswith(b + ".") for b in banned)] == []
    code, record, _ = run_json(capsys, *argv[:-1])
    assert code == 0
    assert json.loads(proc.stdout)["outputs"] == record["outputs"]


# Runs each CLI argv of the JSON list in argv[1], in one fresh interpreter,
# and reports as its last stdout line how many routines gaussian's dgees
# loader holds and whether scipy's _flapack is mapped, after the import and
# after each run, and how often the loader searched for LAPACK's dgees.
_LAPACK_BINDING = """
import json, sys
import qillum, qillum.cli
from qillum import gaussian

def state():
    with open("/proc/self/maps") as maps:
        return [gaussian._load_dgees.cache_info().currsize, any("_flapack" in line for line in maps)]

states = [state()]
for argv in json.loads(sys.argv[1]):
    assert qillum.cli.main(argv) == 0
    states.append(state())
print(json.dumps({"states": states, "loads": gaussian._load_dgees.cache_info().misses}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_lapack_is_bound_at_the_first_decomposition_only():
    """``import qillum, qillum.cli`` and ``qillum mc`` bind nothing; ``qillum bounds`` binds dgees once; _flapack is never mapped."""
    runs = [["mc", *MC_FLAGS], ["bounds", *HEADLINE_FLAGS, "--m", "20000"], ["bounds", *HEADLINE_FLAGS, "--m", "200"]]
    proc = subprocess.run(
        [sys.executable, "-c", _LAPACK_BINDING, json.dumps(runs)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["states"] == [[0, False], [0, False], [1, False], [1, False]]
    assert report["loads"] == 1


# Runs the CLI argv of the JSON list in argv[1] in one fresh interpreter and
# prints the shared objects it then maps whose path names an OpenBLAS, scipy's
# bundled libraries or its LAPACK extension.
_MAPPED_LAPACK = """
import json, sys
from qillum.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if len(line.split()) == 6}
print(json.dumps(sorted(p for p in paths if any(key in p.lower() for key in ("openblas", "scipy.libs", "_flapack")))))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_bounds_sweep_and_plan_map_one_lapack(tmp_path):
    """After ``bounds``, ``sweep`` and ``plan`` in one process, numpy's OpenBLAS is its only LAPACK: no scipy.libs, no _flapack."""
    runs = [
        ["bounds", *HEADLINE_FLAGS, "--m", "20000"],
        ["sweep", *SWEEP_FLAGS, "--out", str(tmp_path / "sweep.csv")],
        ["plan", *PLAN_FLAGS],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _MAPPED_LAPACK, json.dumps(runs)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    mapped = json.loads(proc.stdout.splitlines()[-1])
    assert len(mapped) == 1 and "openblas" in mapped[0].lower() and "scipy.libs" not in mapped[0], mapped


# Runs the CLI on argv[2:] in a fresh interpreter whose path finder cannot see
# scipy, as where scipy is not installed; a non-empty argv[1] replaces the
# symbol gaussian looks up in numpy's OpenBLAS, as on a numpy without it, and
# then the Schur step must be ``_eigh_schur``.  No run may map scipy's _flapack.
_NO_SCIPY = """
import importlib.machinery, os, sys

class NoScipy(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        return None if name.partition(".")[0] == "scipy" else super().find_spec(name, path, target)

sys.meta_path[sys.meta_path.index(importlib.machinery.PathFinder)] = NoScipy
from qillum import gaussian
from qillum.cli import main
if sys.argv[1]:
    gaussian._NUMPY_DGEES = sys.argv[1]
code = main(sys.argv[2:])
if sys.argv[1]:
    assert gaussian._load_dgees() is gaussian._eigh_schur
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as maps:
        assert "_flapack" not in maps.read()
sys.exit(code)
"""


def run_without_scipy(*argv, numpy_dgees=""):
    return subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, numpy_dgees, *argv], env=src_env(), capture_output=True, text=True, timeout=120,
    )


def readme_argv(command: str) -> list[str]:
    """The README's run of ``command``; the sweep writes ``curves.csv`` under ``QILLUM_OUT_DIR``."""
    return {
        "bounds": ["bounds", *HEADLINE_FLAGS, "--m", "20000"],
        "sweep": ["sweep", *SWEEP_FLAGS, "--out", "curves.csv"],
        "plan": ["plan", *PLAN_FLAGS, "--target", "1e-6"],
        "mc": ["mc", *HEADLINE_FLAGS, "--m", "2000", "--trials", "1000000", "--seed", "7"],
    }[command]


def stable_output(record: dict, out_dir) -> tuple[dict, list[str] | None]:
    """A run's JSON record without its timestamp, and the lines of the sweep CSV in ``out_dir`` but its "# generated:" line."""
    del record["timestamp"]
    csv = out_dir / "curves.csv"
    return record, [line for line in csv.read_text().splitlines() if not line.startswith("# generated:")] if csv.exists() else None


@pytest.mark.parametrize("command", ["bounds", "sweep", "plan", "mc"])
def test_readme_commands_run_without_scipy(command, capsys, tmp_path, monkeypatch):
    """With scipy hidden, each README command gives the default run's JSON record and sweep CSV, but for the timestamps."""
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    proc = run_without_scipy(*readme_argv(command), "--json")
    assert proc.returncode == 0, proc.stderr
    blocked = stable_output(json.loads(proc.stdout), tmp_path)
    code, record, _ = run_json(capsys, *readme_argv(command))
    assert code == 0
    assert stable_output(record, tmp_path) == blocked
    assert (blocked[1] is not None) == (command == "sweep")


def test_bounds_without_numpy_dgees_or_scipy_takes_the_eigh_schur_step():
    """Without scipy and numpy's dgees, ``bounds`` runs on ``_eigh_schur``: its three optimum numbers lie within 1e-6 of the knob-exact golden.

    Measured: Eve's lower bound is the worst, 1.4e-7 relative off; on the
    dgees route it is 1.1e-7 off.
    """
    proc = run_without_scipy("bounds", *HEADLINE_FLAGS, "--m", "20000", "--json", numpy_dgees="no_such_dgees_64_")
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    bounds_line = knob_oracle.GOLDEN.read_text(encoding="utf-8").splitlines()[1]
    golden = dict(pair.split("=") for pair in bounds_line.partition(": ")[2].split())
    assert list(golden) == ["alice_chernoff_upper", "eve_lower_bound", "eve_chernoff_upper"]
    for name, exact in golden.items():
        assert outputs[name] == pytest.approx(float(exact), rel=1e-6, abs=0.0), name


def test_bounds_human_output_echoes_parameters(capsys):
    code, out, _ = run_cli(capsys, "bounds", *HEADLINE_FLAGS, "--m", "100")
    assert code == 0
    assert "ns=0.004" in out and "kappa=0.1" in out and "m=100" in out
    assert "Alice OPA receiver" in out


def test_bounds_rejects_kappa_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--ns", "0.004", "--kappa", "1.5", "--g", "1e4", "--nb", "1e4", "--m", "10"
    )
    assert code == 2
    assert "kappa" in err and "(0, 1)" in err


def test_bounds_rejects_amplifier_noise_below_gain(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--ns", "0.004", "--kappa", "0.1", "--g", "1e4", "--nb", "1", "--m", "10"
    )
    assert code == 2
    assert "nb >= g - 1" in err


def test_bounds_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "bounds", "--ns", "0.004")
    assert code == 2
    assert "--kappa" in err


# ----------------------------------------------------------------------
# config files


def test_config_file_supplies_parameters(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    body = "ns = 0.004\nkappa = 0.1\ng = 1e4\nnb = 1e4\nm = 100\n"
    # Blank and comment-only lines are skipped, and a trailing comment is cut.
    for text in (body, "# headline link\n\n" + body.replace("m = 100", "m = 100  # modes per bit")):
        cfg.write_text(text)
        code, record, _ = run_json(capsys, "bounds", "--config", str(cfg))
        assert code == 0
        assert record["params"]["m"] == 100


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ns = 0.5\nkappa = 0.1\ng = 1e4\nnb = 1e4\nm = 100\n")
    code, record, _ = run_json(capsys, "bounds", "--config", str(cfg), "--ns", "0.004")
    assert code == 0
    assert record["params"]["ns"] == 0.004


def test_config_rejects_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ns 0.004\n")
    code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
    assert code == 2
    assert "key = value" in err


@pytest.mark.parametrize("name", [".", "absent.cfg"])
def test_config_that_cannot_be_read_exits_2(capsys, tmp_path, name):
    path = str(tmp_path / name)  # a directory, then a missing file
    code, _, err = run_cli(capsys, "bounds", *HEADLINE_FLAGS, "--m", "100", "--config", path)
    assert code == 2
    assert f"cannot read config file {path!r}" in err


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("recevier = optimum\n")
    code, _, err = run_cli(capsys, "plan", *PLAN_FLAGS, "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'recevier'" in err


def test_config_may_hold_other_subcommands_keys(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("ns = 0.004\nkappa = 0.1\ng = 1e4\nnb = 1e4\nm = 100\ntrials = 5000\n")
    code, record, _ = run_json(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert "trials" not in record["params"]
    code, record, _ = run_json(capsys, "plan", *PLAN_FLAGS, "--config", str(cfg))
    assert code == 0
    assert record["outputs"]["kappa"] == 0.1  # from the link budget, not the file


# 10**15 elements is an 8 PB request, beyond the x86-64 user address space,
# so numpy refuses it before any memory is touched.  An mc run draws its
# totals in fixed-size chunks, so no trial count is too large to allocate.
@pytest.mark.parametrize("argv", [
    ["sweep", *HEADLINE_FLAGS, "--m-min", "1000", "--m-max", "100000", "--points", str(10**15),
     "--scale", "log", "--out", "curves.csv"],
], ids=["sweep"])
def test_run_too_large_to_allocate_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the run needs more memory than can be allocated: ")


# ----------------------------------------------------------------------
# sweep


SWEEP_FLAGS = HEADLINE_FLAGS + [
    "--m-min", "1000", "--m-max", "100000", "--points", "50", "--scale", "log",
]


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for line in lines:
        if line.startswith("#"):
            comments.append(line)
        else:
            rows.append(line)
    return comments, rows[0], rows[1:]


def test_sweep_csv_format_and_monotonicity(capsys, tmp_path):
    out = tmp_path / "curves.csv"
    code, _, _ = run_cli(capsys, "sweep", *SWEEP_FLAGS, "--out", str(out))
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 50
    data = np.array([[float(f) for f in row.split(",")] for row in rows])
    m_values = data[:, 0]
    assert np.all(np.diff(m_values) >= 0)
    for col in range(1, 5):
        assert np.all(np.diff(data[:, col]) <= 1e-15), f"column {col} not nonincreasing"
    # scientific notation with 9 significant digits
    sample = rows[0].split(",")[1]
    mantissa, _, _ = sample.partition("e")
    assert len(mantissa.replace("-", "").replace(".", "")) == 9


def test_sweep_csv_round_trips_losslessly(capsys, tmp_path):
    out = tmp_path / "curves.csv"
    run_cli(capsys, "sweep", *SWEEP_FLAGS, "--out", str(out))
    _, _, rows = read_csv(out)
    for row in rows:
        m, *floats = row.split(",")
        rebuilt = ",".join([m] + [f"{float(f):.8e}" for f in floats])
        assert rebuilt == row


def test_sweep_two_points(capsys, tmp_path):
    out = tmp_path / "two.csv"
    code, _, _ = run_cli(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "1000", "--m-max", "2000", "--points", "2", "--scale", "linear",
        "--out", str(out),
    )
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0].startswith("1000,") and rows[1].startswith("2000,")


def test_sweep_writes_each_m_once(capsys, tmp_path):
    # 12 linear points over M = 1..5 round to 1 1 2 2 2 3 3 4 4 4 5 5
    out = tmp_path / "dense.csv"
    code, record, _ = run_json(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "1", "--m-max", "5", "--points", "12", "--scale", "linear",
        "--out", str(out),
    )
    assert code == 0
    _, _, rows = read_csv(out)
    assert [int(row.split(",")[0]) for row in rows] == [1, 2, 3, 4, 5]
    assert record["outputs"]["rows"] == 5


def test_sweep_is_deterministic_modulo_timestamp(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "sweep", *SWEEP_FLAGS, "--out", str(first))
    run_cli(capsys, "sweep", *SWEEP_FLAGS, "--out", str(second))

    def stable_bytes(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("# generated")]

    assert stable_bytes(first) == stable_bytes(second)


def test_readme_sweep_matches_golden_digest(capsys, tmp_path):
    """The README sweep, byte for byte: any change to the float path shows here."""
    out = tmp_path / "curves.csv"
    code, _, _ = run_cli(capsys, "sweep", *SWEEP_FLAGS, "--out", str(out))
    assert code == 0
    with open(out, encoding="utf-8", newline="") as handle:
        kept = "".join(line for line in handle if not line.startswith("# generated:"))
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "ae5fbbb2c3640b0d084065400115432e2f0eae23a04764c30ad5bc899686b267"
    )


def test_sweep_unwritable_path_exits_3(capsys, tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    out = blocker / "curves.csv"  # parent is a file: open() raises OSError
    code, _, err = run_cli(capsys, "sweep", *SWEEP_FLAGS, "--out", str(out))
    assert code == 3
    assert "cannot write" in err


def test_sweep_honours_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "10", "--m-max", "20", "--points", "2", "--scale", "linear",
        "--out", "rel.csv",
    )
    assert code == 0
    assert (tmp_path / "rel.csv").exists()
    # An absolute --out is kept as it is.
    absolute = tmp_path / "abs.csv"
    code, _, _ = run_cli(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "10", "--m-max", "20", "--points", "2", "--scale", "linear",
        "--out", str(absolute),
    )
    assert code == 0
    assert absolute.exists()


def test_sweep_validates_spec(capsys, tmp_path):
    for m_min, m_max, points, message in (
        ("100", "50", "10", "m-max must exceed m-min"),
        ("0", "50", "10", "m-min must be >= 1"),
        ("1", "50", "1", "points must be >= 2"),
    ):
        code, _, err = run_cli(
            capsys, "sweep", *HEADLINE_FLAGS,
            "--m-min", m_min, "--m-max", m_max, "--points", points, "--scale", "log",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert message in err


@pytest.mark.parametrize("scale", ["log", "linear"])
def test_sweep_refuses_m_max_beyond_float_range(capsys, tmp_path, scale):
    code, _, err = run_cli(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "1", "--m-max", "1" + "0" * 320, "--points", "3", "--scale", scale,
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "m-max must be at most 1e+308" in err


def test_linear_sweep_takes_m_max_beyond_int64(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, _ = run_cli(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "1", "--m-max", str(10**20), "--points", "3", "--scale", "linear", "--out", str(out),
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[3:]] == ["1", str(5 * 10**19), str(10**20)]


@pytest.mark.parametrize("points", [10**20, 10**400], ids=["1e20", "1e400"])
@pytest.mark.parametrize("scale", ["log", "linear"])
def test_sweep_refuses_points_beyond_numpy_arrays_by_name(capsys, tmp_path, points, scale):
    """numpy's own refusal, ``Maximum allowed size exceeded``, names no key."""
    code, out, err = run_cli(
        capsys, "sweep", *HEADLINE_FLAGS,
        "--m-min", "1", "--m-max", "10", "--points", str(points), "--scale", scale, "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err == "error: points is too large for numpy to allocate the grid\n"


# ----------------------------------------------------------------------
# plan


PLAN_FLAGS = [
    "--km", "50", "--db-per-km", "0.2", "--w", "1e12", "--t", "20e-9",
    "--ns", "0.004", "--g", "1e4", "--nb", "1e4",
]


def test_plan_headline_link(capsys):
    code, record, _ = run_json(capsys, "plan", *PLAN_FLAGS)
    assert code == 0
    outputs = record["outputs"]
    assert outputs["kappa"] == 0.1
    assert outputs["m"] == 20000
    assert outputs["bit_rate_hz"] == 5e7
    assert outputs["insecure"] is False
    assert outputs["alice_unusable"] is False
    assert outputs["alice_opa_upper"] == pytest.approx(5.09e-7, rel=0.05)
    assert outputs["required_m_for_target"] <= 20000


def test_plan_checks_usability_against_the_target(capsys):
    # Alice's OPA bound at the headline link is 5.09e-7: fine for 1e-6, not for 1e-9.
    code, record, _ = run_json(capsys, "plan", *PLAN_FLAGS, "--target", "1e-9")
    assert code == 0
    assert record["outputs"]["alice_unusable"] is True
    assert record["outputs"]["required_m_for_target"] > 20000
    code, out, _ = run_cli(capsys, "plan", *PLAN_FLAGS, "--target", "1e-9")
    assert code == 0
    assert "usability: UNUSABLE" in out


@pytest.mark.parametrize(
    "flag, value, name",
    [("--w", "inf", "w_hz"), ("--w", "nan", "w_hz"), ("--km", "inf", "length_km"), ("--t", "nan", "t_s")],
)
def test_plan_rejects_non_finite_link_inputs(capsys, flag, value, name):
    code, _, err = run_cli(capsys, "plan", *PLAN_FLAGS, flag, value)
    assert code == 2
    assert f"{name} must be finite" in err


@pytest.mark.parametrize("target", ["0.7", "nan", "0"])
def test_plan_rejects_a_target_outside_the_unit_half_interval(capsys, target):
    code, _, err = run_cli(capsys, "plan", *PLAN_FLAGS, "--target", target)
    assert code == 2
    assert "must lie in (0, 0.5]" in err


def test_plan_json_writes_non_finite_values_as_null(capsys):
    # At M = 1e18 Alice's bound underflows to 0, so Eve / Alice is infinite.
    code, out, _ = run_cli(capsys, "plan", *PLAN_FLAGS, "--w", "1e18", "--t", "1", "--json")
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    record = json.loads(out, parse_constant=reject)
    assert record["outputs"]["alice_opa_upper"] == 0.0
    assert record["outputs"]["margin_ratio"] is None


def test_plan_rejects_effectively_lossless_link(capsys):
    code, _, err = run_cli(
        capsys, "plan", "--km", "0.0001", "--db-per-km", "0.2", "--w", "1e12",
        "--t", "20e-9", "--ns", "0.004", "--g", "1e4", "--nb", "1e4",
    )
    assert code == 2
    assert "lossless" in err


def test_plan_rejects_sub_unit_mode_count(capsys):
    code, _, err = run_cli(
        capsys, "plan", "--km", "50", "--db-per-km", "0.2", "--w", "1e12",
        "--t", "1e-13", "--ns", "0.004", "--g", "1e4", "--nb", "1e4",
    )
    assert code == 2
    assert "W T" in err



def test_plan_has_no_kappa_flag(capsys):
    # kappa comes from the fiber length and loss.
    with pytest.raises(SystemExit) as exc:
        main(["plan", *PLAN_FLAGS, "--kappa", "0.5"])
    assert exc.value.code == 2
    assert "--kappa" in capsys.readouterr().err

# ----------------------------------------------------------------------
# mc


MC_FLAGS = HEADLINE_FLAGS + ["--m", "2000", "--trials", "100000", "--seed", "7"]


def test_mc_respects_bound(capsys):
    code, record, _ = run_json(capsys, "mc", *MC_FLAGS)
    assert code == 0
    outputs = record["outputs"]
    assert outputs["empirical_error"] <= outputs["analytic_bound"]
    assert outputs["analytic_bound"] == pytest.approx(0.1258, abs=1e-3)


def test_mc_is_reproducible(capsys):
    _, first, _ = run_json(capsys, "mc", *MC_FLAGS)
    _, second, _ = run_json(capsys, "mc", *MC_FLAGS)
    assert first["outputs"] == second["outputs"]


def test_mc_warns_on_low_trial_count(capsys):
    code, record, _ = run_json(
        capsys, "mc", *HEADLINE_FLAGS, "--m", "2000", "--trials", "100", "--seed", "1"
    )
    assert code == 0
    assert any("low statistical power" in w for w in record["outputs"]["warnings"])


def test_mc_human_output_contains_warning_line(capsys):
    code, out, _ = run_cli(
        capsys, "mc", *HEADLINE_FLAGS, "--m", "2000", "--trials", "100", "--seed", "1"
    )
    assert code == 0
    assert "WARNING" in out


def test_mc_seed_defaults_to_zero(capsys):
    code, record, _ = run_json(capsys, "mc", *HEADLINE_FLAGS, "--m", "500", "--trials", "20000")
    assert code == 0
    assert record["params"]["seed"] == 0


def test_mc_refuses_opa_means_beyond_the_overlap_range(capsys):
    code, _, err = run_cli(
        capsys, "mc", "--ns", "1e150", "--kappa", "0.5", "--g", "1e4", "--nb", "1e4", "--m", "10", "--trials", "10"
    )
    assert code == 2
    assert "at most 1e+120" in err


def test_mc_keeps_its_threshold_at_bright_means(capsys):
    # Both likelihood ratios of the ML threshold round to 1 at these means.
    code, record, _ = run_json(
        capsys, "mc", "--ns", "0.004", "--kappa", "0.1", "--g", "1e30", "--nb", "1e30", "--m", "20", "--trials", "100"
    )
    assert code == 0
    assert math.isfinite(record["outputs"]["threshold"])


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bounds", *HEADLINE_FLAGS, "--m", "1" + "0" * 400], "m"),
        (["mc", *HEADLINE_FLAGS, "--m", "20", "--trials", "1" + "0" * 400], "trials"),
    ],
    ids=["bounds-m", "mc-trials"],
)
def test_a_count_beyond_the_float_range_exits_2_naming_its_key(capsys, argv, name):
    """A count too large for a float is bad input (exit 2), not an OverflowError traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err == f"error: {name} must be a positive integer\n"


def test_mc_refuses_trials_beyond_int64_by_name(capsys):
    """numpy samples at most 2**63 - 1 trials; a larger count is refused by name, not by numpy's OverflowError."""
    code, out, err = run_cli(capsys, "mc", *HEADLINE_FLAGS, "--m", "20", "--trials", str(10**22))
    assert code == 2
    assert out == "" and err == "error: trials must be at most 2**63 - 1, the largest count numpy samples\n"


def test_mc_refuses_an_outcome_count_beyond_int64_by_name(capsys):
    """Means of about 3.8e20 at M = 1 need more Bernoulli outcomes per decision than numpy samples: exit 2, no traceback."""
    code, out, err = run_cli(capsys, "mc", "--ns", "1e10", "--kappa", "0.1", "--g", "1e4", "--nb", "1e4", "--m", "1", "--trials", "10")
    assert code == 2
    assert out == ""
    assert re.fullmatch(
        r"error: ceil\(threshold\) \+ m - 1 = \d+ Bernoulli outcomes per decision exceeds 2\*\*63 - 1, "
        r"the largest count numpy samples\n",
        err,
    )


def test_mc_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "mc", *HEADLINE_FLAGS, "--m", "500", "--trials", "100", "--seed", "-1")
    assert code == 2
    assert "seed must be a non-negative integer" in err


def test_mc_json_lists_every_warning_the_text_prints(capsys):
    # Seed 2 is the smallest seed whose 20 trials at M = 1 exceed the bound of 0.4997: 10 errors.
    argv = ["mc", *HEADLINE_FLAGS, "--m", "1", "--trials", "20", "--seed", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    printed = [line.removeprefix("WARNING: ") for line in out.splitlines() if line.startswith("WARNING: ")]
    assert printed == [
        "low statistical power: 20 trials against an error bound of 4.997e-01; expect a noisy estimate",
        "empirical error 5.000000e-01 exceeds the analytic bound 4.996552e-01",
    ]
    _, record, _ = run_json(capsys, *argv)
    assert record["outputs"]["warnings"] == printed


# ----------------------------------------------------------------------
# flag and config values get one cast and check, and errors name the key


SWEEP_SPEC = ["--m-min", "10", "--m-max", "20", "--points", "2", "--out", "x.csv"]


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["plan", *PLAN_FLAGS], "receiver = bogus", "receiver must be one of optimum, opa, got 'bogus'"),
        (["bounds", *HEADLINE_FLAGS], "m = 2.5", "m must be int, got '2.5'"),
        (["sweep", *HEADLINE_FLAGS, *SWEEP_SPEC], "scale = cubic", "scale must be one of log, linear, got 'cubic'"),
        (["plan", *PLAN_FLAGS, "--receiver", "bogus"], "", "receiver must be one of optimum, opa, got 'bogus'"),
        (["bounds", *HEADLINE_FLAGS, "--m", "2.5"], "", "m must be int, got '2.5'"),
        (["sweep", *HEADLINE_FLAGS, *SWEEP_SPEC, "--scale", "cubic"], "", "scale must be one of log, linear, got 'cubic'"),
    ],
    ids=["receiver", "m", "scale", "receiver-flag", "m-flag", "scale-flag"],
)
def test_bad_config_value_names_its_key(capsys, tmp_path, argv, line, message):
    """A bad value fails the same way from the config file and from a flag: exit 2, the key named."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"
