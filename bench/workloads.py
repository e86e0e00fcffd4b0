"""Seeded inputs, the timed operation and the correctness checks of each workload.

Imported only after the worker has timed ``import qillum, qillum.cli``, so
that numpy is first loaded by the program under test, never pre-loaded here.
Program functions are looked up through their module at call time
(``link.security_margin``, not a name bound at import), so the tracer's
rebinding of module attributes reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np

from qillum import cli, gaussian, link, montecarlo, protocol, receivers


HEADLINE = dict(ns=0.004, kappa=0.1, g=1e4, nb=1e4)
HEADLINE_FLAGS = ["--ns", "0.004", "--kappa", "0.1", "--g", "1e4", "--nb", "1e4"]
TARGET_PE = 1e-6
MC_TRIALS = 200_000
MC_M_CHOICES = (1000, 2000, 5000)

# SHA-256 of the README sweep CSV with its "# generated:" line removed,
# recorded at the seed commit.
SWEEP_GOLDEN_SHA256 = "ae5fbbb2c3640b0d084065400115432e2f0eae23a04764c30ad5bc899686b267"
SWEEP_ARGS = [
    "sweep", *HEADLINE_FLAGS,
    "--m-min", "1000", "--m-max", "100000", "--points", "50", "--scale", "log",
]

# log(smallest positive double): a bound whose log lies below this may
# underflow to exactly 0.0 without being wrong.
_LOG_TINY = math.log(5e-324) + 1.0
_REL = 1e-12


class GateError(AssertionError):
    """A program output broke a correctness invariant."""


class Refused(Exception):
    """The CLI rejected its input (exit 2) or could not write (exit 3)."""


# What the program raises on purpose for inputs it refuses: a failed op, not
# a crash.  IllConditionedMatrixError is a ValueError subclass.
PROGRAM_REFUSALS = (ValueError, Refused)

# required_m documents that it refuses a point whose per-mode overlap lies
# within 1e-15 of 1, or whose answer would exceed 2**62: the target is
# unreachable there, so the refusal is the correct output.
REQUIRED_M_CEILING = 1.0 - 1e-15
REQUIRED_M_LIMIT = 2**62


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


# ----------------------------------------------------------------------
# invariants shared by several workloads


def check_bounds(b, label: str) -> bool:
    """0 < lower <= Chernoff <= Bhattacharyya <= 1/2 on one ErrorBounds.

    A bound may read exactly 0.0 only when its log-domain value lies below
    the smallest double, i.e. it underflowed rather than being lost.

    Returns True for the one known defect this gate lets through: the
    s = 1/2 overlap clamped to exactly 1 (``power_overlap`` caps q at 1
    when cancellation pushes it above), which makes the lower bound read
    1/2 above a Chernoff bound found elsewhere on the noisy s-curve.  Such
    ops are counted and reported, not hidden; any other ordering failure
    fails the gate.
    """
    require(0.0 < b.q_star <= b.q_half <= 1.0, f"{label}: need 0 < q* <= q_1/2 <= 1, got {b}")
    require(0.0 < b.s_star < 1.0, f"{label}: s* outside (0, 1): {b.s_star}")
    log_chernoff = math.log(0.5) + b.m * math.log(b.q_star)
    log_lower = math.log(0.25) + 2.0 * b.m * math.log(b.q_half)
    require(b.chernoff_upper > 0.0 or log_chernoff < _LOG_TINY, f"{label}: Chernoff bound lost to 0: {b}")
    require(b.lower_bound > 0.0 or log_lower < _LOG_TINY, f"{label}: lower bound lost to 0: {b}")
    require(
        b.lower_bound <= b.bhattacharyya_upper * (1 + _REL)
        and b.chernoff_upper <= b.bhattacharyya_upper * (1 + _REL)
        and b.bhattacharyya_upper <= 0.5,
        f"{label}: need lower, Chernoff <= Bhattacharyya <= 1/2, got {b}",
    )
    clamped = bool(b.q_half == 1.0)
    require(clamped or b.lower_bound <= b.chernoff_upper * (1 + _REL), f"{label}: lower bound above Chernoff: {b}")
    return clamped


def check_required_m(m: int, q: float, label: str) -> None:
    """M meets the target bound 0.5 q^M <= TARGET_PE while M - 1 does not."""
    log_q = math.log(q)
    require(m >= 1 and 0.5 * math.exp(m * log_q) <= TARGET_PE, f"{label}: M = {m} misses the target")
    require(m == 1 or 0.5 * math.exp((m - 1) * log_q) > TARGET_PE, f"{label}: M - 1 = {m - 1} already meets it")


def check_refusal(q: float, label: str) -> None:
    """A required_m refusal is correct only where the target is unreachable."""
    unreachable = q >= REQUIRED_M_CEILING or math.log(2.0 * TARGET_PE) / math.log(q) > REQUIRED_M_LIMIT
    require(unreachable, f"{label}: refused although the overlap {q!r} reaches the target")


def check_headline(opa_upper: float, optimum_upper: float, eve_lower: float, eve_upper: float) -> None:
    """The paper's headline numbers at the acceptance suite's tolerances."""
    require(abs(opa_upper - 5.09e-7) <= 0.05 * 5.09e-7, f"OPA bound {opa_upper} is not 5.09e-7 +/- 5%")
    require(abs(optimum_upper - 2.2e-13) <= 0.05 * 2.2e-13, f"optimum bound {optimum_upper} is not 2.2e-13 +/- 5%")
    require(0.279 <= eve_lower <= 0.291, f"Eve lower bound {eve_lower} outside [0.279, 0.291]")
    require(0.442 <= eve_upper <= 0.460, f"Eve upper bound {eve_upper} outside [0.442, 0.460]")


def sweep_digest(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as handle:
        kept = [line for line in handle if not line.startswith("# generated:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def run_gates(tmp_dir: str) -> None:
    """Headline numbers and the byte-identical README sweep, in-process."""
    params = protocol.ProtocolParams(**HEADLINE, m=20000)
    opa = receivers.opa_bhattacharyya(params)
    alice = receivers.alice_optimum_bounds(params)
    eve = receivers.eve_optimum_bounds(params)
    check_headline(opa.bhattacharyya_upper, alice.chernoff_upper, eve.lower_bound, eve.chernoff_upper)
    out = os.path.join(tmp_dir, "gate_sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(SWEEP_ARGS + ["--out", out])
    require(code == 0, f"sweep exited {code}")
    require(sweep_digest(out) == SWEEP_GOLDEN_SHA256, "sweep CSV differs from the golden SHA-256")


# ----------------------------------------------------------------------
# workloads: stream(rng) yields op inputs, op(item) is the timed call into
# the program, check(item, out) runs untimed on every completed op, raises
# GateError on a wrong output and returns counts of the notable outcomes the
# op had: "clamped" when it hit the known overlap clamp (see check_bounds),
# "refused" when required_m correctly refused an unreachable target.


class _Drawn:
    def stream(self, rng: np.random.Generator):
        while True:
            yield self.draw(rng)

    def warmup_item(self, rng: np.random.Generator):
        return self.draw(rng)


class PlanScan(_Drawn):
    """security_margin + required_m(OPA) + required_m(OPTIMUM) at a seeded point."""

    name = "plan_scan"
    kernel = "linalg"
    tail_pct = 90.0

    def draw(self, rng: np.random.Generator):
        # The documented box, with ns log-uniform down to 1e-7 so dim-source
        # points where required_m refuses stay in the mix.
        while True:
            ns = 10.0 ** rng.uniform(-7, 0)
            kappa = rng.uniform(0.01, 0.99)
            g = 10.0 ** rng.uniform(0, 6)
            nb = rng.uniform(max(g - 1.0, 0.0), 1e6)
            m = int(round(10.0 ** rng.uniform(2, 6)))
            try:
                return protocol.ProtocolParams(ns=ns, kappa=kappa, g=g, nb=nb, m=m)
            except ValueError:
                continue

    def op(self, params):
        report = link.security_margin(params)
        m_opa = self._required_m(params, link.Receiver.OPA)
        m_opt = self._required_m(params, link.Receiver.OPTIMUM)
        return report, m_opa, m_opt

    @staticmethod
    def _required_m(params, receiver):
        """required_m, or None where it refuses; check() tells a right refusal from a wrong one."""
        try:
            return link.required_m(params, TARGET_PE, receiver)
        except ValueError:
            return None

    def check(self, params, out) -> dict:
        report, m_opa, m_opt = out
        for m, q, label in ((m_opa, report.alice_opa.q_half, "required_m(OPA)"),
                            (m_opt, report.alice_optimum.q_star, "required_m(OPTIMUM)")):
            if m is None:
                check_refusal(q, label)
            else:
                check_required_m(m, q, label)
        require(not check_bounds(report.alice_opa, "alice OPA"), "alice OPA: overlap of 1 with n0 > n1")
        clamped = check_bounds(report.alice_optimum, "alice optimum")
        clamped = check_bounds(report.eve, "eve") or clamped
        return {"clamped": int(clamped), "refused": int(m_opa is None or m_opt is None)}


def random_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Random 2-mode symplectic from rotations, squeezers and a beam splitter.

    Ordering (x1, p1, x2, p2).  Each factor is symplectic, so the product is.
    """

    def rotations():
        s = np.zeros((4, 4))
        for k, theta in enumerate(rng.uniform(0.0, 2.0 * math.pi, 2)):
            c, sn = math.cos(theta), math.sin(theta)
            s[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, sn], [-sn, c]]
        return s

    r = rng.uniform(-0.6, 0.6, 2)
    squeeze = np.diag(np.exp([-r[0], r[0], -r[1], r[1]]))
    phi = rng.uniform(0.0, math.pi)
    c, sn = math.cos(phi), math.sin(phi)
    splitter = np.block([[c * np.eye(2), sn * np.eye(2)], [-sn * np.eye(2), c * np.eye(2)]])
    return rotations() @ squeeze @ rotations() @ splitter @ rotations()


class GeneralPairs(_Drawn):
    """chernoff_bound on a seeded pair of unrelated random physical 2-mode states."""

    name = "general_pairs"
    kernel = "linalg"
    tail_pct = 90.0

    def _state(self, rng):
        sp = random_symplectic(rng)
        nu = 1.0 + rng.uniform(0.0, 3.0, 2)
        v = sp @ np.diag(np.repeat(nu, 2)) @ sp.T
        return gaussian.GaussianState(gaussian.CovMat((v + v.T) / 2.0, gaussian.Convention.UNIT_VACUUM))

    def draw(self, rng: np.random.Generator):
        m = int(round(10.0 ** rng.uniform(0, 3)))
        return self._state(rng), self._state(rng), m

    def op(self, pair):
        s0, s1, m = pair
        return gaussian.chernoff_bound(s0, s1, m)

    def check(self, pair, out) -> dict:
        return {"clamped": int(check_bounds(out, "general pair"))}


class McValidate(_Drawn):
    """run_mc at the headline link with M from {1000, 2000, 5000} and a per-op seed."""

    name = "mc_validate"
    kernel = "stdlib"
    tail_pct = 90.0

    def __init__(self):
        self._bound = {}

    def draw(self, rng: np.random.Generator):
        params = protocol.ProtocolParams(**HEADLINE, m=int(rng.choice(MC_M_CHOICES)))
        return montecarlo.McConfig(trials=MC_TRIALS, seed=int(rng.integers(2**63)), params=params)

    def op(self, config):
        return montecarlo.run_mc(config)

    def check(self, config, out) -> dict:
        require(montecarlo.run_mc(config) == out, "run_mc is not deterministic for a fixed seed")
        m = config.params.m
        if m not in self._bound:
            self._bound[m] = receivers.opa_bhattacharyya(config.params).bhattacharyya_upper
        lo, hi = out.wilson_ci95
        require(out.trials_used == config.trials, "run_mc used a different trial count")
        require(0.0 <= lo <= out.empirical_error <= hi <= 1.0, f"malformed Wilson interval {out}")
        require(lo <= self._bound[m], f"Wilson lower end {lo} exceeds the analytic bound {self._bound[m]}")
        return {}


class CliCold:
    """One fresh ``python -m qillum ... --json`` process, round-robin over the README commands.

    In a traced run the same commands go through ``cli.main`` in-process,
    because spans can only be recorded in the benchmark's own process.
    """

    name = "cli_cold"
    kernel = "stdlib"
    tail_pct = 75.0
    SUBCOMMANDS = ("bounds", "sweep", "plan", "mc")

    def __init__(self, tmp_dir: str, in_process: bool = False):
        self.tmp_dir = tmp_dir
        self.in_process = in_process
        self._mc_first = {}

    def argv(self, sub: str, mc_seed: int) -> list[str]:
        if sub == "bounds":
            args = ["bounds", *HEADLINE_FLAGS, "--m", "20000"]
        elif sub == "sweep":
            args = SWEEP_ARGS + ["--out", "curves.csv"]
        elif sub == "plan":
            args = ["plan", "--km", "50", "--db-per-km", "0.2", "--w", "1e12", "--t", "20e-9",
                    "--ns", "0.004", "--g", "1e4", "--nb", "1e4", "--target", "1e-6"]
        else:
            args = ["mc", *HEADLINE_FLAGS, "--m", "2000", "--trials", "1000000", "--seed", str(mc_seed)]
        return args + ["--json"]

    def stream(self, rng: np.random.Generator):
        """Round-robin from a seeded start; the mc seed comes from the run seed."""
        start = int(rng.integers(4))
        mc_seed = int(rng.integers(2**31))
        for i in itertools.count(start):
            sub = self.SUBCOMMANDS[i % 4]
            yield sub, self.argv(sub, mc_seed)

    def warmup_item(self, rng: np.random.Generator):
        """Always ``bounds``: a seeded subcommand would make set-up time depend on the seed."""
        return "bounds", self.argv("bounds", 0)

    def op(self, item):
        sub, argv = item
        if self.in_process:
            buf = io.StringIO()
            saved = os.environ.get(cli.OUT_DIR_ENV)
            os.environ[cli.OUT_DIR_ENV] = self.tmp_dir
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            finally:
                if saved is None:
                    del os.environ[cli.OUT_DIR_ENV]
                else:
                    os.environ[cli.OUT_DIR_ENV] = saved
            stdout, stderr = buf.getvalue(), ""
        else:
            env = dict(os.environ, **{cli.OUT_DIR_ENV: self.tmp_dir})
            proc = subprocess.run(
                [sys.executable, "-m", "qillum", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code in (2, 3):
            raise Refused(stderr.strip())
        require(code == 0, f"qillum {sub} exited {code}: {stderr.strip()[-500:]}")
        return stdout

    def check(self, item, out) -> dict:
        sub, _ = item
        o = json.loads(out)["outputs"]
        if sub == "bounds":
            check_headline(o["alice_opa_bhattacharyya_upper"], o["alice_chernoff_upper"],
                           o["eve_lower_bound"], o["eve_chernoff_upper"])
        elif sub == "sweep":
            require(o["rows"] == 50, f"sweep wrote {o['rows']} rows")
            require(sweep_digest(o["path"]) == SWEEP_GOLDEN_SHA256, "sweep CSV differs from the golden SHA-256")
        elif sub == "plan":
            check_headline(o["alice_opa_upper"], o["alice_optimum_upper"], o["eve_lower"], o["eve_upper"])
            require(abs(o["kappa"] - 0.1) < 1e-12 and o["m"] == 20000, f"plan budget {o}")
            q_opa = math.exp(math.log(2.0 * o["alice_opa_upper"]) / o["m"])
            check_required_m(o["required_m_for_target"], q_opa, "plan required M")
        else:
            first = self._mc_first.setdefault(json.dumps(item[1]), o)
            require(o == first, "mc output differs between runs with one seed")
            lo = o["wilson_ci95"][0]
            require(lo <= o["analytic_bound"], f"Wilson lower end {lo} exceeds the analytic bound")
        return {}


def make(name: str, tmp_dir: str, in_process: bool):
    """The workload called ``name``; ``in_process`` runs cli_cold through cli.main."""
    if name == "cli_cold":
        return CliCold(tmp_dir, in_process=in_process)
    classes = {"plan_scan": PlanScan, "general_pairs": GeneralPairs, "mc_validate": McValidate}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}")
    return classes[name]()
