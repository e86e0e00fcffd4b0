"""Knob-exact oracle for the protocol pairs' optimum overlap and the README sweep.

Every number here is formed in mpmath at ``DPS`` digits straight from the
knobs (ns, kappa, g, nb), each float knob taken as the exact binary value
it holds, by the recipe the package ships (``qillum._recipe``, run with
``mpmath.sqrt``).  No other qillum code reaches the result.

Sharing the recipe is a trade: the 60-digit run checks the float run's
rounding, not the formulas.  Those are checked by code they do not share:
conftest's matrix-level ``parity_pair_q_half_gap``, the sympy identities
of ``tests/test_recipe_identities.py`` and the literal entries in
``tests/test_protocol.py``'s ``test_coefficients_at_headline_point``.
The same holds for the OPA column: its means (``_recipe.opa_means``) are
checked by the matrix propagation ``opa_output_photons_oracle`` of
``tests/test_receivers.py``, and its overlap excess (``_recipe.opa_excess``)
by that file's 400-digit textbook references and by a sympy identity.

Run as a script, it rewrites the golden ``tests/data/readme_sweep_oracle.csv``:
the README sweep's rows as ``qillum sweep`` prints them, each cell rounded
once from its mpmath value, and a comment line with the three optimum
numbers of the README ``qillum bounds`` run.

    PYTHONPATH=src python tests/knob_oracle.py
"""

from pathlib import Path

import mpmath

from qillum._recipe import alice_entries, alice_gap, eve_entries, eve_gap, opa_excess, opa_means

DPS = 60
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_sweep_oracle.csv"

# The README's knob point, and its sweep (--m-min 1000 --m-max 100000
# --points 50 --scale log) and bounds (--m 20000) runs.
README_KNOBS = (0.004, 0.1, 1e4, 1e4)
README_SWEEP = (1000, 100000, 50)
README_BOUNDS_M = 20000
CSV_HEADER = "M,alice_qcb,alice_opa_bhatt,eve_qcb_upper,eve_lower_bound"


def _knobs(ns: float, kappa: float, g: float, nb: float) -> tuple:
    return tuple(mpmath.mpf(float(k)) for k in (ns, kappa, g, nb))


def gaps(ns: float, kappa: float, g: float, nb: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Alice's and Eve's 1 - Q_1/2 at the float knobs, at ``DPS`` digits."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        return +alice_gap(*knobs, mpmath.sqrt), +eve_gap(*knobs, mpmath.sqrt)


def bit0_matrices(ns: float, kappa: float, g: float, nb: float) -> tuple[mpmath.matrix, mpmath.matrix]:
    """Alice's and Eve's bit-0 covariance matrices in (x_1, p_1, x_2, p_2) order, built at ``DPS`` digits from the knobs."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        (a, b, c), (d, e, c_e) = alice_entries(*knobs, mpmath.sqrt), eve_entries(*knobs, mpmath.sqrt)
        return (mpmath.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]]),
                mpmath.matrix([[d, 0, c_e, 0], [0, d, 0, c_e], [c_e, 0, e, 0], [0, c_e, 0, e]]))


def opa_overlap(ns, kappa, g, nb):
    """The OPA receiver's per-mode Bhattacharyya overlap, 1 / (1 + ``opa_excess``) at ``opa_means``' thermal means n0, n1."""
    _, n0, n1 = opa_means(ns, kappa, g, nb, mpmath.sqrt)
    return 1 / (1 + opa_excess(n0, n1, mpmath.sqrt))


def scientific(x: mpmath.mpf, decimals: int) -> str:
    """``x`` > 0 as Python's ``f"{x:.{decimals}e}"`` prints a float, rounded once from the mpmath value.

    Refuses a value within 1e-20 of a rounding tie, where ``DPS`` digits
    could not tell the rounding direction.
    """
    with mpmath.workdps(DPS):
        exponent = int(mpmath.floor(mpmath.log10(x)))
        scaled = x * mpmath.mpf(10) ** (decimals - exponent)
        if scaled >= 10 ** (decimals + 1):  # log10 rounded down across a power of ten
            exponent, scaled = exponent + 1, scaled / 10
        elif scaled < 10**decimals:  # or up across one
            exponent, scaled = exponent - 1, scaled * 10
        if abs(scaled - mpmath.floor(scaled) - mpmath.mpf(0.5)) < mpmath.mpf(10) ** -20:
            raise ValueError(f"{x} is too close to a rounding tie at {decimals} decimals")
        digits = int(mpmath.nint(scaled))
        if digits == 10 ** (decimals + 1):
            exponent, digits = exponent + 1, digits // 10
    text = str(digits)
    return f"{text[0]}.{text[1:]}e{exponent:+03d}"


def log_grid(m_min: int, m_max: int, points: int) -> list[int]:
    """The distinct M of ``qillum sweep``'s log grid: m_min 10**(k/(points - 1) log10(m_max/m_min)), rounded, k = 0..points-1."""
    with mpmath.workdps(DPS):
        ratio = mpmath.mpf(m_max) / m_min
        return sorted({max(1, int(mpmath.nint(m_min * ratio ** (mpmath.mpf(k) / (points - 1))))) for k in range(points)})


def sweep_rows(ns: float, kappa: float, g: float, nb: float, m_values: list[int]) -> list[str]:
    """The sweep's data lines, as ``qillum sweep`` writes them: M, 0.5 q_A**M, 0.5 q_OPA**M, 0.5 q_E**M and Eve's lower bound."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        q_alice, q_eve, q_opa = 1 - alice_gap(*knobs, mpmath.sqrt), 1 - eve_gap(*knobs, mpmath.sqrt), opa_overlap(*knobs)
        rows = []
        for m in m_values:
            cells = (q_alice**m / 2, q_opa**m / 2, q_eve**m / 2, (1 - mpmath.sqrt(1 - q_eve ** (2 * m))) / 2)
            rows.append(",".join([str(m)] + [scientific(cell, 8) for cell in cells]))
        return rows


def bounds_line(ns: float, kappa: float, g: float, nb: float, m: int) -> str:
    """The three optimum numbers ``qillum bounds`` prints (``%.9e``), as one golden comment line."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        q_alice, q_eve = 1 - alice_gap(*knobs, mpmath.sqrt), 1 - eve_gap(*knobs, mpmath.sqrt)
        numbers = {
            "alice_chernoff_upper": q_alice**m / 2,
            "eve_lower_bound": (1 - mpmath.sqrt(1 - q_eve ** (2 * m))) / 2,
            "eve_chernoff_upper": q_eve**m / 2,
        }
    return f"# bounds m={m}: " + " ".join(f"{name}={scientific(value, 9)}" for name, value in numbers.items())


def golden_text() -> str:
    """The golden file: a comment naming the run, the bounds comment line, the CSV header and the sweep's data lines."""
    knobs = " ".join(f"{k}={v!r}" for k, v in zip(("ns", "kappa", "g", "nb"), README_KNOBS))
    m_min, m_max, points = README_SWEEP
    lines = [
        f"# knob_oracle at {DPS} digits: {knobs} m_min={m_min} m_max={m_max} points={points} scale=log",
        bounds_line(*README_KNOBS, README_BOUNDS_M),
        CSV_HEADER,
        *sweep_rows(*README_KNOBS, log_grid(*README_SWEEP)),
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text(), encoding="utf-8", newline="\n")
    print(f"wrote {GOLDEN}")
