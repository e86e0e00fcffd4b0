"""Protocol parameter validation and covariance-matrix construction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qillum import (
    IllConditionedMatrixError,
    ProtocolParams,
    alice_pair,
    derived_coefficients,
    eve_pair,
    power_overlap,
    source_cm,
    validate_physicality,
)
from qillum.gaussian import _PARITY_SIGNS, Convention, CovMat, GaussianState, minimize_overlap

from conftest import HEADLINE, random_valid_params


# ----------------------------------------------------------------------
# parameter validation


def test_valid_params_accepted(headline_params):
    assert headline_params.m == 20000


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(ns=0.0), "ns"),
        (dict(ns=-1.0), "ns"),
        (dict(kappa=0.0), "kappa"),
        (dict(kappa=1.0), "kappa"),
        (dict(kappa=1.5), "(0, 1)"),
        (dict(g=0.5), "g"),
        (dict(nb=1.0), "nb >= g - 1"),
        (dict(m=0), "m"),
        (dict(m=1.5), "m"),
        (dict(ns=float("nan")), "finite"),
        (dict(m=float("inf")), "m"),
        (dict(m=float("nan")), "m"),
        (dict(ns=True), "ns must be a finite number"),
        (dict(ns=np.True_), "ns must be a finite number"),
        (dict(kappa="0.1"), "kappa must be a finite number"),
        (dict(g=None), "g must be a finite number"),
        (dict(m=True), "m must be an integer"),
        (dict(m="20000"), "m must be an integer"),
        (dict(g=10**400, nb=10**401), "g must be finite"),
    ],
)
def test_invalid_params_rejected_with_named_invariant(overrides, fragment):
    values = dict(HEADLINE)
    values.update(overrides)
    with pytest.raises(ValueError, match=None) as excinfo:
        ProtocolParams(**values)
    assert fragment in str(excinfo.value)


def test_params_accept_real_knobs_and_store_python_numbers():
    params = ProtocolParams(ns=np.float32(0.004), kappa=np.float64(0.1), g=10000, nb=Fraction(10000), m=np.int64(20000))
    assert [type(getattr(params, name)) for name in ("ns", "kappa", "g", "nb", "m")] == [float] * 4 + [int]
    assert (params.ns, params.kappa, params.g, params.nb, params.m) == (float(np.float32(0.004)), 0.1, 1e4, 1e4, 20000)
    as_numpy = ProtocolParams(**{name: np.float64(value) for name, value in HEADLINE.items()})
    assert derived_coefficients(as_numpy) == derived_coefficients(ProtocolParams(**HEADLINE))


def test_no_amplifier_limit():
    # g = 1 forces nb = 0; nb > 0 without gain is inconsistent
    params = ProtocolParams(ns=0.01, kappa=0.3, g=1.0, nb=0.0, m=10)
    coeffs = derived_coefficients(params)
    assert coeffs.a == 2 * 0.3**2 * 0.01 + 1.0
    with pytest.raises(ValueError, match="nb must be 0 when g = 1"):
        ProtocolParams(ns=0.01, kappa=0.3, g=1.0, nb=0.5, m=10)


def test_kappa_limits_are_usable():
    for kappa in (1e-6, 1.0 - 1e-6):
        ProtocolParams(ns=0.004, kappa=kappa, g=1e4, nb=1e4, m=10)


# ----------------------------------------------------------------------
# derived coefficients


def test_coefficients_at_headline_point(headline_params):
    c = derived_coefficients(headline_params)
    assert c.s_diag == 1.008
    assert c.c_q == pytest.approx(0.12674383614203888, rel=1e-15)
    assert c.a == 2001.8
    assert c.c_a == pytest.approx(1.2674383614203888, rel=1e-15)
    assert c.d == 1.0072
    assert c.c_e == pytest.approx(0.22768399153212332, rel=1e-15)
    # e = 2 (1 - kappa) kappa g ns + 2 (1 - kappa) nb + 1 = 7.2 + 18000 + 1
    assert c.e == pytest.approx(18008.2, abs=1e-9)


def test_coefficient_recomputation_is_bit_identical(headline_params):
    c1 = derived_coefficients(headline_params)
    c2 = derived_coefficients(headline_params)
    assert c1 == c2


def test_matrix_entries_equal_coefficients_exactly(headline_params):
    c = derived_coefficients(headline_params)
    alice0, _ = alice_pair(headline_params)
    mat0 = alice0.cm.mat
    assert mat0[0, 0] == c.a and mat0[1, 1] == c.a
    assert mat0[2, 2] == c.s_diag and mat0[3, 3] == c.s_diag
    assert mat0[0, 2] == c.c_a and mat0[1, 3] == -c.c_a
    eve0, _ = eve_pair(headline_params)
    emat0 = eve0.cm.mat
    assert emat0[0, 0] == c.d and emat0[2, 2] == c.e
    assert emat0[0, 2] == c.c_e and emat0[1, 3] == c.c_e


# ----------------------------------------------------------------------
# source state


def test_source_cm_unit_entries():
    cm = source_cm(0.004)
    assert cm.convention is Convention.UNIT_VACUUM
    assert np.allclose(np.diag(cm.mat), 1.008)
    assert cm.mat[0, 2] == pytest.approx(0.1267438, abs=1e-7)
    assert cm.mat[1, 3] == pytest.approx(-0.1267438, abs=1e-7)


def test_source_cm_rejects_nonpositive_ns():
    for ns in (0.0, -0.1):
        with pytest.raises(ValueError):
            source_cm(ns)


# ----------------------------------------------------------------------
# hypothesis pairs


@pytest.mark.parametrize("pair", [alice_pair, eve_pair], ids=lambda f: f.__name__)
@settings(max_examples=100, deadline=None)
@given(
    log_ns=st.floats(-7.0, 0.0),
    kappa=st.floats(0.01, 0.99),
    log_g=st.floats(0.0, 6.0),
    nb_fraction=st.floats(0.0, 1.0),
)
@example(log_ns=-7.0, kappa=0.5, log_g=3.0, nb_fraction=0.5)
@example(log_ns=-2.0, kappa=0.3, log_g=0.0, nb_fraction=0.0)  # g = 1, nb = 0
def test_pair_sign_symmetry(pair, log_ns, kappa, log_g, nb_fraction):
    """Bit 1 is bit 0 mirrored by P, bit for bit, over the documented box with ns down to 1e-7.

    The engine decomposes only bit 0 of such a pair (``gaussian.minimize_overlap``).
    """
    g = 10.0**log_g
    nb_lo = max(g - 1.0, 0.0)
    try:
        params = ProtocolParams(ns=10.0**log_ns, kappa=kappa, g=g, nb=nb_lo + nb_fraction * (1e6 - nb_lo), m=1)
    except ValueError:
        assume(False)
    state0, state1 = pair(params)
    assert np.array_equal(state1.cm.mat, state0.cm.mat * _PARITY_SIGNS)


def _two_mode(diag_a, diag_b, corr_x, corr_p):
    """The two-mode layout written out here, so the expected bit-1 matrix is not built by the code under test."""
    mat = np.array(
        [
            [diag_a, 0.0, corr_x, 0.0],
            [0.0, diag_a, 0.0, corr_p],
            [corr_x, 0.0, diag_b, 0.0],
            [0.0, corr_p, 0.0, diag_b],
        ]
    )
    return CovMat(mat, Convention.UNIT_VACUUM)


# Bit 1's matrix as a separately validated CovMat builds it from the (..., -c) entries.
VALIDATED_BIT1 = {
    alice_pair: lambda c: _two_mode(c.a, c.s_diag, -c.c_a, c.c_a),
    eve_pair: lambda c: _two_mode(c.d, c.e, -c.c_e, -c.c_e),
}


@pytest.mark.parametrize("pair", [alice_pair, eve_pair], ids=lambda f: f.__name__)
def test_pair_validates_each_matrix_and_mirrors_bit0(pair, monkeypatch, headline_params):
    """Two CovMat validations per pair, bit 0's and bit 1's; bit 1 is a new read-only array equal to the validated (..., -c) matrix."""
    validated = []
    original = CovMat.__post_init__

    def counting(self):
        validated.append(self)
        original(self)

    monkeypatch.setattr(CovMat, "__post_init__", counting)
    state0, state1 = pair(headline_params)
    assert len(validated) == 2 and validated[0] is state0.cm and validated[1] is state1.cm
    monkeypatch.undo()
    mat0, mat1 = state0.cm.mat, state1.cm.mat
    assert not mat1.flags.writeable and not np.shares_memory(mat0, mat1)
    assert state1.cm.convention is state0.cm.convention
    with pytest.raises(ValueError):
        mat1[0, 0] = 2.0
    # Equal as values: the mirror's zeros off the diagonal blocks are -0.0.
    assert np.array_equal(mat1, VALIDATED_BIT1[pair](derived_coefficients(headline_params)).mat)


@pytest.mark.parametrize("pair", [alice_pair, eve_pair], ids=lambda f: f.__name__)
def test_mirrored_pair_overlaps_as_the_validated_pair(pair):
    """minimize_overlap gives the same floats, to the bit, on the mirrored and the separately validated bit 1."""
    rng = np.random.default_rng(2009)
    for _ in range(40):
        params = random_valid_params(rng)
        state0, state1 = pair(params)
        validated = GaussianState(VALIDATED_BIT1[pair](derived_coefficients(params)))
        mirrored, separate = minimize_overlap(state0, state1), minimize_overlap(state0, validated)
        assert [float(v).hex() for v in (mirrored.q_s, mirrored.s, mirrored.q_half)] == [
            float(v).hex() for v in (separate.q_s, separate.s, separate.q_half)
        ], params


def test_alice_pair_is_phase_sensitive(headline_params):
    mat = alice_pair(headline_params)[0].cm.mat
    assert mat[0, 2] == -mat[1, 3]  # opposite signs on x-x and p-p


def test_eve_pair_is_phase_insensitive(headline_params):
    mat = eve_pair(headline_params)[0].cm.mat
    assert mat[0, 2] == mat[1, 3]  # same sign on both quadratures


def test_pairs_share_diagonal_blocks(headline_params):
    for state0, state1 in (alice_pair(headline_params), eve_pair(headline_params)):
        m0, m1 = state0.cm.mat, state1.cm.mat
        assert np.array_equal(np.diag(m0), np.diag(m1))


def test_eve_correlation_vanishes_as_kappa_to_one():
    params = ProtocolParams(ns=0.004, kappa=1.0 - 1e-6, g=1e4, nb=1e4, m=10)
    c = derived_coefficients(params)
    assert c.c_e == pytest.approx(0.0, abs=1e-5)
    assert c.d == pytest.approx(1.0, abs=1e-7)
    # her two hypotheses then essentially coincide
    q = power_overlap(*eve_pair(params), 0.5)
    assert q == pytest.approx(1.0, abs=1e-9)


def test_eve_correlation_vanishes_with_signal():
    params = ProtocolParams(ns=1e-9, kappa=0.1, g=1e4, nb=1e4, m=10)
    assert derived_coefficients(params).c_e == pytest.approx(0.0, abs=1e-6)


# ----------------------------------------------------------------------
# physicality


def test_protocol_states_are_physical(headline_params):
    assert validate_physicality(source_cm(headline_params.ns)).ok
    for pair in (alice_pair(headline_params), eve_pair(headline_params)):
        for state in pair:
            report = validate_physicality(state.cm)
            assert report.ok
            assert np.all(report.nu >= 1.0)
            # the same state handed in at quarter-vacuum scale
            quarter = validate_physicality(CovMat(0.25 * state.cm.mat, Convention.QUARTER_VACUUM))
            assert np.array_equal(quarter.nu, report.nu)


def test_source_physicality_reports_pure_spectrum():
    report = validate_physicality(source_cm(0.25))
    assert report.ok
    assert np.allclose(report.nu, [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("ns", [1e6, 1e8])
def test_source_physicality_refuses_ill_conditioned_source(ns):
    # Condition number (2 ns + 1 + 2 sqrt(ns (ns + 1)))**2 ~ 16 ns**2 > 1e7,
    # where a float eigen-solve misreads the pure source (nu = 0.99984 at
    # ns = 1e6, nu ~ 2.09 at ns = 1e8): refused rather than reported.
    with pytest.raises(IllConditionedMatrixError):
        validate_physicality(source_cm(ns))


@pytest.mark.parametrize("schur_step", ["dgees", "eigh_schur"])
def test_source_physicality_never_gives_a_wrong_verdict(schur_step, request):
    """The pure source over ns in [1e-9, 1e8] is reported ok or refused, never unphysical, on either Schur step.

    Refused means an IllConditionedMatrixError from validate_physicality
    (condition number above 1e7, from ns about 794), or, from ns about 2.5e7,
    source_cm's own ValueError once the matrix rounds to singular.
    ``eigh_schur`` is the step of a numpy that exports no dgees.
    """
    if schur_step == "eigh_schur":
        request.getfixturevalue("eigh_schur")
    grid = np.logspace(-9, 8, 3401)
    verdicts = []
    for ns in grid:
        try:
            verdicts.append(validate_physicality(source_cm(float(ns))).ok)
        except ValueError:
            verdicts.append(None)
    assert False not in verdicts
    first_refusal = verdicts.index(None)
    assert 700 < grid[first_refusal] < 900
    assert set(verdicts[first_refusal:]) == {None}


def test_sub_vacuum_matrix_fails_without_raising():
    report = validate_physicality(CovMat(0.5 * np.eye(4), Convention.UNIT_VACUUM))
    assert not report.ok
    assert np.allclose(report.nu, [0.5, 0.5])


def test_physicality_sweep_over_random_parameters():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        params = random_valid_params(rng)
        assert validate_physicality(source_cm(params.ns)).ok
        for state0, state1 in (alice_pair(params), eve_pair(params)):
            assert validate_physicality(state0.cm).ok
            assert validate_physicality(state1.cm).ok


def test_alice_overlap_monotone_in_signal_brightness():
    # more signal photons never make Alice's discrimination harder
    previous = 2.0
    for ns in np.logspace(-4, -2, 7):
        params = ProtocolParams(ns=float(ns), kappa=0.1, g=1e4, nb=1e4, m=1)
        q = power_overlap(*alice_pair(params), 0.5)
        assert q <= previous + 1e-12
        previous = q
