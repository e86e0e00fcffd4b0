"""The knob recipe: each covariance entry, 1 - Q_1/2 of each protocol pair and the OPA receiver's counts, from the knobs (ns, kappa, g, nb).

The functions use only arithmetic and the ``sqrt`` they are given, so one
source runs on floats (``protocol``, ``receivers``), mpmath
(``tests/knob_oracle.py``) and sympy (``tests/test_recipe_identities.py``).
The module imports nothing, and ``sqrt`` has no default: ``math.sqrt``
would round an mpmath number.

Each protocol pair is a parity pair with no x-p correlations, so s* = 1/2
and 1 - Q_1/2 = c_h**2 / (a_h b_h), with a_h, b_h and c_h the x-block
entries of V_h, the covariance matrix of sqrt(rho) / tr sqrt(rho).
Nothing in the gaps cancels: each symplectic excess nu - 1, Alice's
R = nu_a + nu_b and sinh(r)**2, and V_h's entries a_h, b_h and c_h are
each a sum or product of nonnegative terms.

Alice's OPA receiver has two closed forms: ``opa_means``, its gain excess
and output means n0 and n1, and ``opa_excess``, 1/q - 1 of their overlap,
also formed without cancellation.
"""


def source_entries(ns, sqrt):
    """The source's diagonal s_diag = 2 ns + 1 and correlation c_q = 2 sqrt(ns (ns + 1))."""
    return 2 * ns + 1, 2 * sqrt(ns * (ns + 1))


def alice_entries(ns, kappa, g, nb, sqrt):
    """Alice's bit-0 x block [[a, c], [c, b]]: a = 2 kappa**2 g ns + 2 kappa nb + 1, b = s_diag and c = c_a = kappa sqrt(g) c_q."""
    s_diag, c_q = source_entries(ns, sqrt)
    return 2 * kappa**2 * g * ns + 2 * kappa * nb + 1, s_diag, kappa * sqrt(g) * c_q


def eve_entries(ns, kappa, g, nb, sqrt):
    """Eve's bit-0 x block [[d, c_e], [c_e, e]]: d = 2 (1 - kappa) ns + 1, e = 2 (1 - kappa) kappa g ns + 2 (1 - kappa) nb + 1, c_e = 2 (1 - kappa) sqrt(kappa g) ns."""
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


def alice_r_factor(ns, kappa, g, nb, sqrt):
    """a + b - 2c = 2 delta**2 + 2 kappa nb, with delta = kappa sqrt(g ns) - sqrt(ns + 1) formed without cancellation."""
    delta = (kappa**2 * g * ns - ns - 1) / (kappa * sqrt(g * ns) + sqrt(ns + 1))
    return 2 * delta**2 + 2 * kappa * nb


def _root_excess(x, sqrt):
    """h(nu) = nu + sqrt(nu**2 - 1), the symplectic eigenvalue of sqrt(rho) / tr sqrt(rho), from the excess x = nu - 1."""
    return 1 + x + sqrt(x * (x + 2))


def eve_interpolation(plus1, minus1, r_plus, r_minus):
    """beta and s = alpha + beta of sqrt(V_x**2 - I) = beta V_x + alpha I, from V_x's excesses lambda+- - 1 and r+- = sqrt(lambda+-**2 - 1).

    beta (lambda+- - 1) + s = r+-.  s is a product of nonnegative terms,
    while alpha alone nearly cancels beta once lambda- - 1 is small.
    """
    plus, minus = plus1 + 1, minus1 + 1
    return (plus + minus) / (r_plus + r_minus), (plus + minus) * (plus1 * r_minus + minus1 * r_plus) / ((r_plus + r_minus) * (plus * r_minus + minus * r_plus))


def alice_sinh2(a, b, c, big_r):
    """sinh(r)**2 = (a + b - R) / (2 R), formed without cancellation as 2 c**2 / (R (a + b + R))."""
    return 2 * c**2 / (big_r * (a + b + big_r))


def eve_gap(ns, kappa, g, nb, sqrt):
    """1 - Q_1/2 of Eve's pair.

    Her state is phase insensitive (V_p = V_x), so its symplectic
    eigenvalues are the eigenvalues lambda+- of the x block, and V_h's x
    block is (1 + beta) V_x + alpha I with the two-point interpolation
    sqrt(V_x**2 - I) = beta V_x + alpha I.  Its diagonal is formed as
    d + beta (d - 1) + s and e + beta (e - 1) + s, sums of nonnegative
    terms (``eve_interpolation``).
    """
    d, e, c_e = eve_entries(ns, kappa, g, nb, sqrt)
    d1, e1 = eve_shifted(ns, kappa, g, nb)
    plus1 = (d1 + e1) / 2 + sqrt(((d1 - e1) / 2) ** 2 + c_e**2)
    minus1 = eve_excess_product(ns, kappa, g, nb) / plus1
    r_plus, r_minus = sqrt(plus1 * (plus1 + 2)), sqrt(minus1 * (minus1 + 2))
    beta, s = eve_interpolation(plus1, minus1, r_plus, r_minus)
    a_h, b_h, c_h = d + beta * d1 + s, e + beta * e1 + s, (1 + beta) * c_e
    return c_h**2 / (a_h * b_h)


def alice_gap(ns, kappa, g, nb, sqrt):
    """1 - Q_1/2 of Alice's pair.

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
    sinh2 = alice_sinh2(a, b, c, big_r)
    cosh2 = 1 + sinh2
    h_a, h_b = _root_excess(nu_a1, sqrt), _root_excess(nu_b1, sqrt)
    a_h, b_h, c_h = cosh2 * h_a + sinh2 * h_b, sinh2 * h_a + cosh2 * h_b, c / big_r * (h_a + h_b)
    return c_h**2 / (a_h * b_h)


def opa_means(ns, kappa, g, nb, sqrt):
    """The OPA gain excess x = ns / sqrt(kappa nb) and the thermal means n_k = (1 + x) ns + x (a + 1) / 2 + (-1)**k sqrt((1 + x) x) c_a, k = 0, 1."""
    a, _, c_a = alice_entries(ns, kappa, g, nb, sqrt)
    x = ns / sqrt(kappa * nb)
    common = (1 + x) * ns + x * (a + 1) / 2
    shift = sqrt((1 + x) * x) * c_a
    return x, common + shift, common - shift


def opa_excess(n0, n1, sqrt):
    """1/q - 1 = AB - ab - 1 of two thermal counts' overlap q (n0 != n1), with a, A = sqrt(n0), sqrt(n0 + 1) and b, B alike, formed without cancellation."""
    a, b, big_a, big_b = sqrt(n0), sqrt(n1), sqrt(n0 + 1), sqrt(n1 + 1)
    return (n0 - n1) ** 2 / 2 * (1 / (big_a + a) + 1 / (big_b + b)) * (big_a + big_b + a + b) / ((a + b) ** 2 * (big_a + big_b) ** 2)
