"""Bit-identity digests, pinned as SHA-256: the protocol path and general pairs as exact float hex, and the README commands' output.

The draws are ``bench/workloads.PlanScan``'s and ``GeneralPairs``',
imported read-only, so the inputs are the benchmark's.  The pins hold on
Linux x86_64 with CPython 3.11 and numpy 2.4.6 on its bundled
scipy-openblas (OpenBLAS 0.3.31), which gives both ``eigh`` and the
Schur solver ``dgees`` (scipy 1.17.1 bundles OpenBLAS 0.3.30 and is not
loaded): the engine's last bits depend on that LAPACK build, as the
README sweep's golden digest does,
and the ``mc`` command's on numpy's generator.  They do not depend on
the Python version's float ``sum``: a general pair's Q_s adds its 19
determinant terms with explicit left-to-right ``+=`` (CPython 3.12's
``sum`` compensates its rounding, 3.11's does not).  A numpy that exports
no dgees takes ``gaussian._eigh_schur`` instead, whose last bits differ,
so the pins do not hold there.  A change that moves a
digest updates its pin and states in CHANGES.md which values moved, by
how much and in which direction against an oracle.
"""

import dataclasses
import hashlib
import re
import shlex
import sys

import numpy as np

from qillum import gaussian, link
from qillum.cli import OUT_DIR_ENV, main

from conftest import ROOT

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

PROTOCOL_DRAWS = 3000
PROTOCOL_DIGEST = "c500016c1c8dca7cf9442cd46b44272b43ffa430f7df1d1e7e109103ba251bcb"
GENERAL_DRAWS = 300
GENERAL_DIGEST = "53ef70ac01bc745ed883ee348e0530ceea38e53ef3af696bdfbe55e359453bb1"
HEADLINE = ["--ns", "0.004", "--kappa", "0.1", "--g", "1e4", "--nb", "1e4"]
# The four commands of the README's CLI section, each run as text and as --json.
README_COMMANDS = [
    ["bounds", *HEADLINE, "--m", "20000"],
    ["sweep", *HEADLINE, "--m-min", "1000", "--m-max", "100000", "--points", "50", "--scale", "log", "--out", "curves.csv"],
    ["plan", "--km", "50", "--db-per-km", "0.2", "--w", "1e12", "--t", "20e-9",
     "--ns", "0.004", "--g", "1e4", "--nb", "1e4", "--target", "1e-6"],
    ["mc", *HEADLINE, "--m", "2000", "--trials", "1000000", "--seed", "7"],
]
README_DIGEST = "e95db4c74d65722273eebc30141bf62456830703ae5fab4930aa241d2521cc35"
TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00")


def exact(value) -> str:
    """``value`` as text that tells apart any two different floats: float hex, fields of dataclasses in order."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return "(" + ",".join(exact(getattr(value, f.name)) for f in dataclasses.fields(value)) + ")"
    return repr(value)


def required_m_or_refusal(params, receiver) -> str:
    try:
        return repr(link.required_m(params, workloads.TARGET_PE, receiver))
    except ValueError as refusal:
        return f"refused: {refusal}"


def test_protocol_path_digest_is_pinned():
    """Every ``security_margin`` field and both ``required_m`` results (refusals by message) over 3000 plan_scan draws, seed 77."""
    draws = workloads.PlanScan()
    rng = np.random.default_rng(77)
    digest = hashlib.sha256()
    for _ in range(PROTOCOL_DRAWS):
        params = draws.draw(rng)
        line = [exact(link.security_margin(params))]
        line += [required_m_or_refusal(params, receiver) for receiver in (link.Receiver.OPA, link.Receiver.OPTIMUM)]
        digest.update((";".join(line) + "\n").encode())
    assert digest.hexdigest() == PROTOCOL_DIGEST


def test_general_pair_digest_is_pinned():
    """Every ``chernoff_bound`` field over 300 general_pairs draws, seed 4242: the s-search on pairs that are not parity pairs."""
    draws = workloads.GeneralPairs()
    rng = np.random.default_rng(4242)
    digest = hashlib.sha256()
    for _ in range(GENERAL_DRAWS):
        digest.update((exact(gaussian.chernoff_bound(*draws.draw(rng))) + "\n").encode())
    assert digest.hexdigest() == GENERAL_DIGEST


def test_readme_commands_digest_is_pinned(capsys, monkeypatch, tmp_path):
    """Exit code, stdout and stderr of the README commands as text and --json, and the sweep CSV, timestamps masked."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    text = []
    for argv in README_COMMANDS:
        for extra in ([], ["--json"]):
            code = main(argv + extra)
            out, err = capsys.readouterr()
            text.append(f"{code}\n{out}\n{err}\n")
    text.append((tmp_path / "curves.csv").read_text(encoding="utf-8"))
    masked = TIMESTAMP.sub("<timestamp>", "".join(text))
    assert hashlib.sha256(masked.encode()).hexdigest() == README_DIGEST


def fenced_blocks(text: str, language: str) -> list[str]:
    """The bodies of the fenced ``language`` code blocks in ``text``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_code_blocks_are_the_ones_tier1_runs(capsys):
    """README's ``qillum`` commands, continuations joined, are ``README_COMMANDS``; its Library block runs, and each value it prints rounds to its comment."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in fenced_blocks(readme, "sh") for line in block.replace("\\\n", " ").splitlines()]
    assert [shlex.split(line)[1:] for line in lines if line.startswith("qillum ")] == README_COMMANDS

    library = fenced_blocks(readme.partition("\n## Library\n")[2], "python")[0]
    exec(compile(library, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    comments = re.findall(r"^print\(.*\)\s+# (\S+)$", library, flags=re.M)
    assert len(printed) == len(comments) == 2
    for value, comment in zip(printed, comments):
        decimals = len(comment.partition("e")[0].partition(".")[2])
        assert format(float(value), f".{decimals}{'e' if 'e' in comment else 'f'}") == comment, (value, comment)
