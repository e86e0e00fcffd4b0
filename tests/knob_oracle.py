"""Knob-exact oracle for the protocol pairs' optimum overlap and the README sweep.

Every number here is formed in mpmath at ``DPS`` digits straight from the
knobs (ns, kappa, g, nb), each float knob taken as the exact binary value
it holds.  Nothing is imported from qillum, so no float code of the engine
reaches the result.

Each protocol pair is a parity pair whose states have no x-p
correlations, so s* = 1/2 and 1 - Q_1/2 = c_h**2 / (a_h b_h), with
a_h, b_h and c_h the x-block entries of V_h, the covariance matrix of
sqrt(rho) / tr sqrt(rho) (ROADMAP item 1).  ``eve_gap`` and ``alice_gap``
follow item 1's recipe, which forms every symplectic excess nu - 1 as a
product of nonnegative knob terms.  The recipe functions use only
arithmetic and the ``sqrt`` they are given, so
``tests/test_recipe_identities.py`` runs the same code on sympy symbols.

Run as a script, it rewrites the golden ``tests/data/readme_sweep_oracle.csv``:
the README sweep's rows as ``qillum sweep`` prints them, each cell rounded
once from its mpmath value, and a comment line with the three optimum
numbers of the README ``qillum bounds`` run.

    python tests/knob_oracle.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath

DPS = 60
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_sweep_oracle.csv"

# The README's knob point, and its sweep (--m-min 1000 --m-max 100000
# --points 50 --scale log) and bounds (--m 20000) runs.
README_KNOBS = (0.004, 0.1, 1e4, 1e4)
README_SWEEP = (1000, 100000, 50)
README_BOUNDS_M = 20000
CSV_HEADER = "M,alice_qcb,alice_opa_bhatt,eve_qcb_upper,eve_lower_bound"


def alice_entries(ns, kappa, g, nb, sqrt=mpmath.sqrt):
    """Alice's bit-0 x block [[a, c], [c, b]]: a, b = s_diag and c = c_a, as ``protocol.derived_coefficients`` defines them."""
    return 2 * kappa**2 * g * ns + 2 * kappa * nb + 1, 2 * ns + 1, kappa * sqrt(g) * 2 * sqrt(ns * (ns + 1))


def eve_entries(ns, kappa, g, nb, sqrt=mpmath.sqrt):
    """Eve's bit-0 x block [[d, c_e], [c_e, e]], as ``protocol.derived_coefficients`` defines it."""
    d = 2 * (1 - kappa) * ns + 1
    e = 2 * (1 - kappa) * kappa * g * ns + 2 * (1 - kappa) * nb + 1
    return d, e, 2 * (1 - kappa) * sqrt(kappa * g) * ns


def eve_shifted(ns, kappa, g, nb):
    """Eve's d - 1 and e - 1, each a product of nonnegative knob terms."""
    return 2 * (1 - kappa) * ns, 2 * (1 - kappa) * (kappa * g * ns + nb)


def eve_excess_product(ns, kappa, g, nb):
    """(lambda+ - 1)(lambda- - 1) = (d - 1)(e - 1) - c_e**2 = 4 (1 - kappa)**2 ns nb."""
    return 4 * (1 - kappa) ** 2 * ns * nb


def alice_excess_products(ns, kappa, g, nb):
    """p1 = (nu_a - 1)(nu_b + 1) = ab - c**2 + a - b - 1 and p2 = (nu_a + 1)(nu_b - 1) = ab - c**2 - a + b - 1."""
    return 4 * kappa * nb * (ns + 1), 4 * ns * ((1 - kappa) * (1 + kappa * g) + kappa * (nb - g + 1))


def alice_r_factor(ns, kappa, g, nb, sqrt=mpmath.sqrt):
    """a + b - 2c = 2 delta**2 + 2 kappa nb, with delta = kappa sqrt(g ns) - sqrt(ns + 1) formed without cancellation."""
    delta = (kappa**2 * g * ns - ns - 1) / (kappa * sqrt(g * ns) + sqrt(ns + 1))
    return 2 * delta**2 + 2 * kappa * nb


def _root_excess(x, sqrt):
    """h(nu) = nu + sqrt(nu**2 - 1), the symplectic eigenvalue of sqrt(rho) / tr sqrt(rho), from the excess x = nu - 1."""
    return 1 + x + sqrt(x * (x + 2))


def eve_gap(ns, kappa, g, nb, sqrt=mpmath.sqrt):
    """1 - Q_1/2 of Eve's pair by item 1's recipe.

    Her state is phase insensitive (V_p = V_x), so its symplectic
    eigenvalues are the eigenvalues lambda+- of the x block, and V_h's x
    block is (1 + beta) V_x + alpha I with the two-point interpolation
    sqrt(V_x**2 - I) = beta V_x + alpha I.
    """
    d, e, c_e = eve_entries(ns, kappa, g, nb, sqrt)
    d1, e1 = eve_shifted(ns, kappa, g, nb)
    plus1 = (d1 + e1) / 2 + sqrt(((d1 - e1) / 2) ** 2 + c_e**2)
    minus1 = eve_excess_product(ns, kappa, g, nb) / plus1
    plus, minus = plus1 + 1, minus1 + 1
    r_plus, r_minus = sqrt(plus1 * (plus + 1)), sqrt(minus1 * (minus + 1))
    beta = (plus + minus) / (r_plus + r_minus)
    alpha = -(plus + minus) / (plus * r_minus + minus * r_plus)
    a_h, b_h, c_h = (1 + beta) * d + alpha, (1 + beta) * e + alpha, (1 + beta) * c_e
    return c_h**2 / (a_h * b_h)


def alice_gap(ns, kappa, g, nb, sqrt=mpmath.sqrt):
    """1 - Q_1/2 of Alice's pair by item 1's recipe.

    Her state is two-mode squeezed thermal: V = S(r) diag(nu_a, nu_a, nu_b,
    nu_b) S(r)^T, with nu_a + nu_b = R = sqrt((a + b)**2 - 4 c**2) and
    nu_a - nu_b = a - b; V_h is S(r) diag(h_a, h_a, h_b, h_b) S(r)^T.
    """
    a, b, c = alice_entries(ns, kappa, g, nb, sqrt)
    p1, p2 = alice_excess_products(ns, kappa, g, nb)
    big_r = sqrt(alice_r_factor(ns, kappa, g, nb, sqrt) * (a + b + 2 * c))
    if a >= b:
        nu_a = (big_r + a - b) / 2
        nu_b1 = p2 / (nu_a + 1)
        nu_a1 = p1 / (nu_b1 + 2)
    else:
        nu_b = (big_r - a + b) / 2
        nu_a1 = p1 / (nu_b + 1)
        nu_b1 = p2 / (nu_a1 + 2)
    sinh2 = 2 * c**2 / (big_r * (a + b + big_r))
    cosh2 = 1 + sinh2
    h_a, h_b = _root_excess(nu_a1, sqrt), _root_excess(nu_b1, sqrt)
    a_h, b_h, c_h = cosh2 * h_a + sinh2 * h_b, sinh2 * h_a + cosh2 * h_b, c / big_r * (h_a + h_b)
    return c_h**2 / (a_h * b_h)


def _knobs(ns: float, kappa: float, g: float, nb: float) -> tuple:
    return tuple(mpmath.mpf(float(k)) for k in (ns, kappa, g, nb))


def gaps(ns: float, kappa: float, g: float, nb: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Alice's and Eve's 1 - Q_1/2 at the float knobs, at ``DPS`` digits."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        return +alice_gap(*knobs), +eve_gap(*knobs)


def bit0_matrices(ns: float, kappa: float, g: float, nb: float) -> tuple[mpmath.matrix, mpmath.matrix]:
    """Alice's and Eve's bit-0 covariance matrices in (x_1, p_1, x_2, p_2) order, built at ``DPS`` digits from the knobs."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        (a, b, c), (d, e, c_e) = alice_entries(*knobs), eve_entries(*knobs)
        return (mpmath.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]]),
                mpmath.matrix([[d, 0, c_e, 0], [0, d, 0, c_e], [c_e, 0, e, 0], [0, c_e, 0, e]]))


def opa_overlap(ns, kappa, g, nb):
    """The OPA receiver's per-mode Bhattacharyya overlap: thermal counts n0, n1 from the gain excess x = ns / sqrt(kappa nb)."""
    a, _, c = alice_entries(ns, kappa, g, nb)
    x = ns / mpmath.sqrt(kappa * nb)
    common = (1 + x) * ns + x * (a + 1) / 2
    shift = mpmath.sqrt((1 + x) * x) * c
    n0, n1 = common + shift, common - shift
    return 1 / (mpmath.sqrt((n0 + 1) * (n1 + 1)) - mpmath.sqrt(n0 * n1))


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
        q_alice, q_eve, q_opa = 1 - alice_gap(*knobs), 1 - eve_gap(*knobs), opa_overlap(*knobs)
        rows = []
        for m in m_values:
            cells = (q_alice**m / 2, q_opa**m / 2, q_eve**m / 2, (1 - mpmath.sqrt(1 - q_eve ** (2 * m))) / 2)
            rows.append(",".join([str(m)] + [scientific(cell, 8) for cell in cells]))
        return rows


def bounds_line(ns: float, kappa: float, g: float, nb: float, m: int) -> str:
    """The three optimum numbers ``qillum bounds`` prints (``%.9e``), as one golden comment line."""
    with mpmath.workdps(DPS):
        knobs = _knobs(ns, kappa, g, nb)
        q_alice, q_eve = 1 - alice_gap(*knobs), 1 - eve_gap(*knobs)
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
