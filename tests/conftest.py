"""Shared fixtures and random-state generators for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import qillum.gaussian as gaussian
import qillum.receivers as receivers
from qillum import OMEGA, Convention, CovMat, GaussianState, ProtocolParams

# Operating point used throughout: ns = 0.004, kappa = 0.1, g = nb = 1e4,
# M = 2e4 (the 50 km / 0.2 dB/km / 1 THz / 20 ns link).
HEADLINE = dict(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=20000)

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict[str, str]:
    """This process's environment, with the repository's src/ first on PYTHONPATH for a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def headline_params() -> ProtocolParams:
    return ProtocolParams(**HEADLINE)


@pytest.fixture
def williamson_calls(monkeypatch) -> list:
    """Record every covariance matrix passed to ``gaussian.williamson``.

    Empties the receivers' pair-overlap memo first, so that pairs an earlier
    test evaluated are decomposed (and counted) again.
    """
    receivers._pair_overlaps.cache_clear()
    calls = []
    original = gaussian.williamson

    def counting(cm):
        calls.append(cm)
        return original(cm)

    monkeypatch.setattr(gaussian, "williamson", counting)
    return calls


@pytest.fixture
def overlap_evaluations(monkeypatch) -> list:
    """Record every s at which an evaluator from ``gaussian._overlap_evaluator`` computes Q_s."""
    calls = []
    original = gaussian._overlap_evaluator

    def counting(state0, state1):
        q = original(state0, state1)

        def recording(s):
            calls.append(s)
            return q(s)

        return recording

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
