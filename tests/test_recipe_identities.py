"""Item 1's recipe, proved: each cancellation-free form of ``qillum._recipe`` is an identity in the knobs.

Each residual below is the recipe's closed form less its definition from
the matrix entries (as ``_recipe.alice_entries`` and ``eve_entries`` give
them), run on sympy symbols through the very functions the package ships
and ``tests/knob_oracle.py`` runs at 60 digits.  Each must cancel to 0 for
every positive (ns, kappa, g, nb).  Alice's R**2 takes
u = sqrt(g ns) and v = sqrt(ns + 1) in place of g and ns, which makes it
rational.  Two steps hold for any entries tied by a square root, so they
run on free symbols, and their numerators cancel once each root's square
is reduced by its definition: Eve's interpolation coefficients beta and
s = alpha + beta meet beta (lambda+- - 1) + s = r+- wherever
r+-**2 = lambda+-**2 - 1, and Alice's sinh(r)**2 = 2 c**2 / (R (a + b + R))
is (a + b - R) / (2 R) wherever R**2 = (a + b)**2 - 4 c**2.  The OPA
receiver's excess is proved the same way: ``opa_excess(a**2, b**2)`` is
1/q - 1 = AB - ab - 1 wherever A**2 = a**2 + 1 and B**2 = b**2 + 1.

Not proved here: 1 - Q_1/2 = c_h**2 / (a_h b_h) itself, nor the entries
themselves, which ``tests/test_protocol.py`` pins by literal values.
"""
import types

import pytest
import sympy

from qillum import _recipe

NS, KAPPA, G, NB, U, V = sympy.symbols("ns kappa g nb u v", positive=True)
KNOBS = (NS, KAPPA, G, NB)
PLUS1, MINUS1, R_PLUS, R_MINUS = sympy.symbols("lambda_plus1 lambda_minus1 r_plus r_minus", positive=True)
A, B, C, R = sympy.symbols("a b c R", positive=True)
BIG_A, BIG_B = sympy.symbols("A B", positive=True)


def reduced(residual, *roots) -> sympy.Expr:
    """The numerator of ``residual`` with each (root, its square) pair's root**2 replaced by that square, in turn."""
    numerator = sympy.fraction(sympy.together(residual))[0]
    for root, square in roots:
        numerator = sympy.rem(sympy.expand(numerator), root**2 - square, root)
    return numerator


def residuals(recipe) -> dict[str, sympy.Expr]:
    """Each recipe step of ``recipe`` (``_recipe``, or a mutant of it) as closed form less definition."""
    a, b, c = recipe.alice_entries(*KNOBS, sympy.sqrt)
    d, e, c_e = recipe.eve_entries(*KNOBS, sympy.sqrt)
    d1, e1 = recipe.eve_shifted(*KNOBS)
    p1, p2 = recipe.alice_excess_products(*KNOBS)
    r_squared = (a + b) ** 2 - 4 * c**2 - recipe.alice_r_factor(*KNOBS, sympy.sqrt) * (a + b + 2 * c)
    beta, s = recipe.eve_interpolation(PLUS1, MINUS1, R_PLUS, R_MINUS)
    eve_roots = ((R_PLUS, (PLUS1 + 1) ** 2 - 1), (R_MINUS, (MINUS1 + 1) ** 2 - 1))
    opa_roots = {A**2: A, B**2: B, A**2 + 1: BIG_A, B**2 + 1: BIG_B}
    return {
        "p1 = ab - c^2 + a - b - 1": p1 - (a * b - c**2 + a - b - 1),
        "p2 = ab - c^2 - a + b - 1": p2 - (a * b - c**2 - a + b - 1),
        "d - 1": d1 - (d - 1),
        "e - 1": e1 - (e - 1),
        "(d - 1)(e - 1) - c_e^2": recipe.eve_excess_product(*KNOBS) - ((d - 1) * (e - 1) - c_e**2),
        "R^2 = (a + b)^2 - 4 c^2": r_squared.subs(G, U**2 / NS).subs(NS, V**2 - 1),
        "beta (lambda+ - 1) + s = r+": reduced(beta * PLUS1 + s - R_PLUS, *eve_roots),
        "beta (lambda- - 1) + s = r-": reduced(beta * MINUS1 + s - R_MINUS, *eve_roots),
        "sinh^2 r = (a + b - R) / (2 R)": reduced(recipe.alice_sinh2(A, B, C, R) - (A + B - R) / (2 * R), (R, (A + B) ** 2 - 4 * C**2)),
        "1/q - 1 = AB - ab - 1": reduced(recipe.opa_excess(A**2, B**2, opa_roots.__getitem__) - (BIG_A * BIG_B - A * B - 1),
                                         (BIG_A, A**2 + 1), (BIG_B, B**2 + 1)),
    }


def vanishing(recipe) -> dict[str, bool]:
    return {name: sympy.cancel(sympy.together(residual)) == 0 for name, residual in residuals(recipe).items()}


def test_every_recipe_step_is_an_identity():
    assert vanishing(_recipe) == dict.fromkeys(residuals(_recipe), True)


def mutant(**functions) -> types.SimpleNamespace:
    """``_recipe`` with ``functions`` in place of its own."""
    return types.SimpleNamespace(**{**vars(_recipe), **functions})


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
    "s with (lambda+ - 1) r- - (lambda- - 1) r+": mutant(eve_interpolation=lambda plus1, minus1, r_plus, r_minus: (
        (plus1 + minus1 + 2) / (r_plus + r_minus),
        (plus1 + minus1 + 2) * (plus1 * r_minus - minus1 * r_plus) / ((r_plus + r_minus) * ((plus1 + 1) * r_minus + (minus1 + 1) * r_plus)))),
    "OPA excess with 1/(A + a) - 1/(B + b)": mutant(opa_excess=lambda n0, n1, sqrt: (
        (n0 - n1) ** 2 / 2 * (1 / (sqrt(n0 + 1) + sqrt(n0)) - 1 / (sqrt(n1 + 1) + sqrt(n1)))
        * (sqrt(n0 + 1) + sqrt(n1 + 1) + sqrt(n0) + sqrt(n1)) / ((sqrt(n0) + sqrt(n1)) ** 2 * (sqrt(n0 + 1) + sqrt(n1 + 1)) ** 2))),
    "sinh^2 r with a + b - R": mutant(alice_sinh2=lambda a, b, c, big_r: 2 * c**2 / (big_r * (a + b - big_r))),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_recipe_with_one_sign_flipped_fails_an_identity(name):
    assert not all(vanishing(MUTANTS[name]).values())
