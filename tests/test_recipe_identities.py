"""Item 1's recipe, proved: each cancellation-free form ``knob_oracle`` uses is an identity in the knobs.

Each residual below is the oracle's closed form less its definition from
the matrix entries (as ``protocol.derived_coefficients`` defines them),
run on sympy symbols through the oracle's own functions, and must cancel
to 0 for every positive (ns, kappa, g, nb).  Alice's R**2 takes
u = sqrt(g ns) and v = sqrt(ns + 1) in place of g and ns, which makes it
rational.  Two steps hold for any entries tied by a square root, so they
run on free symbols, and their numerators cancel once each root's square
is reduced by its definition: Eve's interpolation coefficients beta and
alpha meet beta lambda+- + alpha = r+- wherever r+-**2 = lambda+-**2 - 1,
and Alice's sinh(r)**2 = 2 c**2 / (R (a + b + R)) is (a + b - R) / (2 R)
wherever R**2 = (a + b)**2 - 4 c**2.

Not proved here: 1 - Q_1/2 = c_h**2 / (a_h b_h) itself.
"""

import types

import pytest
import sympy

import knob_oracle

NS, KAPPA, G, NB, U, V = sympy.symbols("ns kappa g nb u v", positive=True)
KNOBS = (NS, KAPPA, G, NB)
PLUS, MINUS, R_PLUS, R_MINUS = sympy.symbols("lambda_plus lambda_minus r_plus r_minus", positive=True)
A, B, C, R = sympy.symbols("a b c R", positive=True)


def reduced(residual, *roots) -> sympy.Expr:
    """The numerator of ``residual`` with each (root, its square) pair's root**2 replaced by that square, in turn."""
    numerator = sympy.fraction(sympy.together(residual))[0]
    for root, square in roots:
        numerator = sympy.rem(sympy.expand(numerator), root**2 - square, root)
    return numerator


def residuals(recipe) -> dict[str, sympy.Expr]:
    """Each recipe step of ``recipe`` (the oracle module, or a mutant of it) as closed form less definition."""
    a, b, c = recipe.alice_entries(*KNOBS, sympy.sqrt)
    d, e, c_e = recipe.eve_entries(*KNOBS, sympy.sqrt)
    d1, e1 = recipe.eve_shifted(*KNOBS)
    p1, p2 = recipe.alice_excess_products(*KNOBS)
    r_squared = (a + b) ** 2 - 4 * c**2 - recipe.alice_r_factor(*KNOBS, sympy.sqrt) * (a + b + 2 * c)
    beta, alpha = recipe.eve_interpolation(PLUS, MINUS, R_PLUS, R_MINUS)
    eve_roots = ((R_PLUS, PLUS**2 - 1), (R_MINUS, MINUS**2 - 1))
    return {
        "p1 = ab - c^2 + a - b - 1": p1 - (a * b - c**2 + a - b - 1),
        "p2 = ab - c^2 - a + b - 1": p2 - (a * b - c**2 - a + b - 1),
        "d - 1": d1 - (d - 1),
        "e - 1": e1 - (e - 1),
        "(d - 1)(e - 1) - c_e^2": recipe.eve_excess_product(*KNOBS) - ((d - 1) * (e - 1) - c_e**2),
        "R^2 = (a + b)^2 - 4 c^2": r_squared.subs(G, U**2 / NS).subs(NS, V**2 - 1),
        "beta lambda+ + alpha = r+": reduced(beta * PLUS + alpha - R_PLUS, *eve_roots),
        "beta lambda- + alpha = r-": reduced(beta * MINUS + alpha - R_MINUS, *eve_roots),
        "sinh^2 r = (a + b - R) / (2 R)": reduced(recipe.alice_sinh2(A, B, C, R) - (A + B - R) / (2 * R), (R, (A + B) ** 2 - 4 * C**2)),
    }


def vanishing(recipe) -> dict[str, bool]:
    return {name: sympy.cancel(sympy.together(residual)) == 0 for name, residual in residuals(recipe).items()}


def test_every_recipe_step_is_an_identity():
    assert vanishing(knob_oracle) == dict.fromkeys(residuals(knob_oracle), True)


def mutant(**functions) -> types.SimpleNamespace:
    """The oracle with ``functions`` in place of its own."""
    return types.SimpleNamespace(**{**vars(knob_oracle), **functions})


# Each mutant flips one sign in one closed form.
MUTANTS = {
    "p2 with 1 - kappa g": mutant(alice_excess_products=lambda ns, kappa, g, nb: (
        4 * kappa * nb * (ns + 1), 4 * ns * ((1 - kappa) * (1 - kappa * g) + kappa * (nb - g + 1)))),
    "p1 with ns - 1": mutant(alice_excess_products=lambda ns, kappa, g, nb: (
        4 * kappa * nb * (ns - 1), 4 * ns * ((1 - kappa) * (1 + kappa * g) + kappa * (nb - g + 1)))),
    "delta with - ns + 1": mutant(alice_r_factor=lambda ns, kappa, g, nb, sqrt: (
        2 * ((kappa**2 * g * ns - ns + 1) / (kappa * sqrt(g * ns) + sqrt(ns + 1))) ** 2 + 2 * kappa * nb)),
    "e - 1 with kappa g ns - nb": mutant(eve_shifted=lambda ns, kappa, g, nb: (
        2 * (1 - kappa) * ns, 2 * (1 - kappa) * (kappa * g * ns - nb))),
    "Eve's product with 1 + kappa": mutant(eve_excess_product=lambda ns, kappa, g, nb: 4 * (1 + kappa) ** 2 * ns * nb),
    "alpha with + (lambda+ + lambda-)": mutant(eve_interpolation=lambda plus, minus, r_plus, r_minus: (
        (plus + minus) / (r_plus + r_minus), (plus + minus) / (plus * r_minus + minus * r_plus))),
    "sinh^2 r with a + b - R": mutant(alice_sinh2=lambda a, b, c, big_r: 2 * c**2 / (big_r * (a + b - big_r))),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_recipe_with_one_sign_flipped_fails_an_identity(name):
    assert not all(vanishing(MUTANTS[name]).values())
