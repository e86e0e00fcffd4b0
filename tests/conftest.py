"""Shared fixtures and random-state generators for the test suite."""

import os
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

import qillum.gaussian as gaussian
import qillum.receivers as receivers
from qillum import OMEGA, Convention, CovMat, GaussianState, ProtocolParams
from qillum.gaussian import NU_PURE_TOL

# Operating point used throughout: ns = 0.004, kappa = 0.1, g = nb = 1e4,
# M = 2e4 (the 50 km / 0.2 dB/km / 1 THz / 20 ns link).
HEADLINE = dict(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=20000)

ROOT = Path(__file__).resolve().parents[1]

# Tier-1 gives one verdict per tree: by default every property test draws the
# same examples on every run and reads no saved failure.  The "explore"
# profile keeps hypothesis's random draws and its example database, for
# looking for new failures: pytest --hypothesis-profile=explore
# [--hypothesis-seed=N].
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("deterministic")


def src_env() -> dict[str, str]:
    """This process's environment, with the repository's src/ first on PYTHONPATH for a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def parity_pair_q_half_gap(cm: np.ndarray, dps: int = 50) -> mpmath.mpf:
    """1 - Q_1/2 of the parity pair (rho, P rho P) whose bit-0 covariance matrix is ``cm``.

    Independent of the engine: no Williamson form and no s-search.  The
    covariance matrix of sqrt(rho) / tr sqrt(rho) is
    V_h = [I + sqrtm(I + (V Omega)^-2)] V, and tr sqrt(rho) is the product of
    t(nu_k, 1/2) = sqrt 2 / (sqrt(nu_k + 1) - sqrt(nu_k - 1)) over the two
    symplectic eigenvalues, here from the invariants
    nu^2 = (D +- sqrt(D^2 - 4 det V)) / 2 with D = det A + det B + 2 det C.
    P V_h P has the off-diagonal blocks of V_h negated, so
    Q_1/2 = prod_k t(nu_k, 1/2)^2 / sqrt(det A_h det B_h), with A_h and B_h
    the diagonal 2 x 2 blocks of V_h.  mpmath's sqrtm does not converge on a
    pure mode, so ``cm`` must have both nu > 1.
    """
    with mpmath.workdps(dps):
        v = mpmath.matrix(cm.tolist())
        eye = mpmath.eye(4)
        inv = (v * mpmath.matrix(OMEGA.tolist())) ** -1
        v_h = (eye + mpmath.sqrtm(eye + inv * inv)) * v
        assert max(abs(mpmath.im(x)) for row in v_h.tolist() for x in row) < mpmath.mpf(10) ** -40
        v_h = v_h.apply(mpmath.re)

        def block_det(m, r, c):
            return m[r, c] * m[r + 1, c + 1] - m[r, c + 1] * m[r + 1, c]

        d = block_det(v, 0, 0) + block_det(v, 2, 2) + 2 * block_det(v, 0, 2)
        root = mpmath.sqrt(d**2 - 4 * mpmath.det(v))
        trace = 1
        for nu in (mpmath.sqrt((d + root) / 2), mpmath.sqrt((d - root) / 2)):
            trace *= mpmath.sqrt(2) / (mpmath.sqrt(nu + 1) - mpmath.sqrt(nu - 1))
        return 1 - trace**2 / mpmath.sqrt(block_det(v_h, 0, 0) * block_det(v_h, 2, 2))


def oracle_overlap(state0: GaussianState, state1: GaussianState, s: float, dps: int = 50) -> mpmath.mpf:
    """Q_s = tr(rho0**s rho1**(1-s)) at ``dps`` digits from the two covariance matrices, independent of the engine.

    No Williamson form, no s-search and no code shared with ``gaussian``
    (Pirandola and Lloyd, PRA 78, 012331 (2008)).  For a unit-vacuum V the
    matrix i Omega V has the eigenvalues +-nu_k, and with the odd function
    f_p(x) = sign(x) [(|x| + 1)**p + (|x| - 1)**p] / [(|x| + 1)**p - (|x| - 1)**p]
    the covariance matrix of rho**p / tr rho**p is V_p = i Omega f_p(i Omega V),
    f_p taken through ``mpmath.eig``, while tr rho**p is the product over
    the positive eigenvalues of 2**p / [(nu + 1)**p - (nu - 1)**p].  Then
    Q_s = 4 tr rho0**s tr rho1**(1-s) / sqrt(det(V0_s + V1_(1-s))).

    Pure modes are taken as the engine takes them: an eigenvalue with
    nu - 1 <= ``NU_PURE_TOL`` counts as exactly 1, so f_p gives +-1 and
    the trace factor 1 (a float matrix with a pure mode has nu within a few
    ulps of 1, either side).  s and 1 - s are exact at this precision.
    """
    with mpmath.workdps(dps):
        i_omega = 1j * mpmath.matrix(OMEGA.tolist())

        def power(state, p):
            eigenvalues, vectors = mpmath.eig(i_omega * mpmath.matrix(state.cm.mat.tolist()))
            trace = mpmath.mpf(1)
            values = []
            for eigenvalue in eigenvalues:
                nu = abs(mpmath.re(eigenvalue))
                if nu - 1 <= NU_PURE_TOL:
                    nu = mpmath.mpf(1)
                plus, minus = (nu + 1) ** p, (nu - 1) ** p
                values.append(mpmath.sign(mpmath.re(eigenvalue)) * (plus + minus) / (plus - minus))
                if mpmath.re(eigenvalue) > 0:
                    trace *= 2**p / (plus - minus)
            v_p = i_omega * vectors * mpmath.diag(values) * mpmath.inverse(vectors)
            return v_p.apply(mpmath.re), trace

        s = mpmath.mpf(s)
        v0, trace0 = power(state0, s)
        v1, trace1 = power(state1, 1 - s)
        return 4 * trace0 * trace1 / mpmath.sqrt(mpmath.det(v0 + v1))


@pytest.fixture
def headline_params() -> ProtocolParams:
    return ProtocolParams(**HEADLINE)


@pytest.fixture(autouse=True)
def no_earlier_knob_point():
    """Empty the receivers' knob-point slot before every test, so that no test reads a record an earlier one left."""
    receivers._last = (None, None)


@pytest.fixture
def eigh_schur(monkeypatch):
    """Decompose through ``gaussian._eigh_schur``, as on a numpy that exports no dgees; the loader binds afresh after the test."""
    monkeypatch.setattr(gaussian, "_NUMPY_DGEES", "no_such_dgees_64_")
    gaussian._load_dgees.cache_clear()
    assert gaussian._load_dgees() is gaussian._eigh_schur
    yield
    gaussian._load_dgees.cache_clear()


@pytest.fixture
def williamson_calls(monkeypatch) -> list:
    """Record every stack of covariance matrices that ``gaussian._williamson_stack`` decomposes.

    Each call is one entry, the (n, 4, 4) array it was given, not a copy:
    ``williamson`` is a stack of one, a general pair's evaluator stacks
    both states, and the receivers' knob-point record stacks Alice's bit 0
    and Eve's.
    """
    calls = []
    original = gaussian._williamson_stack

    def counting(mats, *args):
        calls.append(mats)
        return original(mats, *args)

    for module in (gaussian, receivers):
        monkeypatch.setattr(module, "_williamson_stack", counting)
    return calls


@pytest.fixture
def overlap_evaluations(monkeypatch) -> list:
    """Record every s at which an evaluator from ``gaussian._overlap_evaluator`` computes Q_s."""
    calls = []
    original = gaussian._overlap_evaluator

    def counting(state0, state1):
        q, end = original(state0, state1)

        def recording(s):
            calls.append(s)
            return q(s)

        return recording, end

    monkeypatch.setattr(gaussian, "_overlap_evaluator", counting)
    return calls


def random_unit_state(
    rng: np.random.Generator, nu_max: float = 4.0, pure_modes: int = 0
) -> GaussianState:
    """Random physical two-mode state: thermal spectrum conjugated by a random symplectic.

    The first ``pure_modes`` symplectic eigenvalues are set to exactly 1.
    """
    h = rng.normal(size=(4, 4))
    h = 0.3 * (h + h.T) / 2.0
    sp = expm(OMEGA @ h)
    nu = 1.0 + rng.uniform(0.0, nu_max - 1.0, 2)
    nu[:pure_modes] = 1.0
    v = sp @ np.diag(np.repeat(nu, 2)) @ sp.T
    return GaussianState(CovMat((v + v.T) / 2.0, Convention.UNIT_VACUUM))


def random_valid_params(rng: np.random.Generator, m: int = 1) -> ProtocolParams:
    """Draw protocol knobs from the documented ranges, rejecting invalid combos."""
    while True:
        ns = 10.0 ** rng.uniform(-4, 0)
        kappa = rng.uniform(0.01, 0.99)
        g = 10.0 ** rng.uniform(0, 6)
        nb = rng.uniform(max(g - 1.0, 0.0), 1e6)
        try:
            return ProtocolParams(ns=ns, kappa=kappa, g=g, nb=nb, m=m)
        except ValueError:
            continue


def thermal_state(mean_photons: float) -> GaussianState:
    """A unit-vacuum thermal mode beside a vacuum mode: diag(2 N + 1, 2 N + 1, 1, 1).

    Q_s factorises over modes and the vacuum pair contributes 1, so two such
    states overlap exactly as their thermal modes do.
    """
    v = 2.0 * mean_photons + 1.0
    return GaussianState(CovMat(np.diag([v, v, 1.0, 1.0]), Convention.UNIT_VACUUM))
