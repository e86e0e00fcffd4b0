"""Protocol states for two-way quantum-illumination communication.

Alice distributes entangled signal/idler mode pairs from a downconversion
source; Bob phase-flips, amplifies and returns the signal through the same
lossy channel; Eve passively collects every photon lost on both legs.  Each
observer then faces a binary hypothesis test between two zero-mean Gaussian
states that differ only in the sign of a correlation block.  This module
builds those covariance matrices from the five protocol knobs and checks
their physicality.

Every matrix is built in the unit-vacuum convention the Gaussian engine
works in, so its entries are the ``DerivedCoefficients`` themselves and it
goes to the engine as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .gaussian import _PARITY_SIGNS, Convention, CovMat, GaussianState, IllConditionedMatrixError, _count, _real, to_unit_vacuum, williamson

__all__ = [
    "ProtocolParams",
    "DerivedCoefficients",
    "PhysicalityReport",
    "derived_coefficients",
    "source_cm",
    "alice_pair",
    "eve_pair",
    "validate_physicality",
]


@dataclass(frozen=True)
class ProtocolParams:
    """The five protocol knobs: ns, kappa, g and nb stored as float, m as int (see ``gaussian._real``, ``_count``).

    ns:    mean signal (and idler) photon number per mode, > 0
    kappa: one-way channel transmissivity, strictly inside (0, 1)
    g:     Bob's amplifier gain, >= 1 (g = 1 means no amplifier, nb = 0)
    nb:    amplifier noise photon number, nb >= g - 1
    m:     signal-idler mode pairs per bit, integer >= 1
    """

    ns: float
    kappa: float
    g: float
    nb: float
    m: int

    def __post_init__(self) -> None:
        for name in ("ns", "kappa", "g", "nb"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.ns <= 0:
            raise ValueError("ns must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(
                "kappa must lie strictly inside (0, 1): kappa = 0 and kappa = 1 "
                "degenerate Eve's or Alice's hypothesis test"
            )
        if self.g < 1.0:
            raise ValueError("g must be at least 1")
        if self.nb < self.g - 1.0:
            raise ValueError(
                "nb must satisfy nb >= g - 1 (amplifier mode occupation "
                "nb / (g - 1) cannot drop below 1)"
            )
        if self.g == 1.0 and self.nb != 0.0:
            raise ValueError("nb must be 0 when g = 1 (no amplifier, no added noise)")
        object.__setattr__(self, "m", _count("m", self.m))


@dataclass(frozen=True)
class DerivedCoefficients:
    """Covariance-matrix entries implied by the protocol knobs.

    s_diag = 2 ns + 1 and c_q = 2 sqrt(ns (ns + 1)) describe the source;
    a = 2 kappa^2 g ns + 2 kappa nb + 1 and c_a = kappa sqrt(g) c_q describe
    Alice's return/idler state; d = 2 (1 - kappa) ns + 1,
    c_e = 2 (1 - kappa) sqrt(kappa g) ns and
    e = 2 (1 - kappa) kappa g ns + 2 (1 - kappa) nb + 1 describe Eve's
    tapped pair.
    """

    s_diag: float
    c_q: float
    a: float
    c_a: float
    d: float
    c_e: float
    e: float


@dataclass(frozen=True)
class PhysicalityReport:
    """Symplectic spectrum of a covariance matrix and its verdict ``ok`` (all nu >= 1)."""

    nu: NDArray[np.float64]
    ok: bool


# Which observer's pair a caller means: its row of ``_bit0_stack``.
_ALICE, _EVE = 0, 1


def _source_entries(ns: float) -> tuple[float, float]:
    """The source's diagonal s_diag = 2 ns + 1 and correlation c_q = 2 sqrt(ns (ns + 1))."""
    return 2.0 * ns + 1.0, 2.0 * math.sqrt(ns * (ns + 1.0))


def derived_coefficients(params: ProtocolParams) -> DerivedCoefficients:
    """Evaluate every covariance-matrix coefficient from the protocol knobs.

    The unit-vacuum matrix builders below place these exact values as their
    entries, so recomputing here reproduces the matrices bit for bit.
    """
    ns, kappa, g, nb = params.ns, params.kappa, params.g, params.nb
    s_diag, c_q = _source_entries(ns)
    return DerivedCoefficients(
        s_diag=s_diag,
        c_q=c_q,
        a=2.0 * kappa**2 * g * ns + 2.0 * kappa * nb + 1.0,
        c_a=kappa * math.sqrt(g) * c_q,
        d=2.0 * (1.0 - kappa) * ns + 1.0,
        c_e=2.0 * (1.0 - kappa) * math.sqrt(kappa * g) * ns,
        e=2.0 * (1.0 - kappa) * kappa * g * ns + 2.0 * (1.0 - kappa) * nb + 1.0,
    )


def _two_mode(diag_a: float, diag_b: float, corr_x: float, corr_p: float) -> list[list[float]]:
    """Two-mode unit-vacuum layout, ordering (x_1, p_1, x_2, p_2): x-x correlation ``corr_x``, p-p ``corr_p``, no x-p entries."""
    return [[diag_a, 0.0, corr_x, 0.0], [0.0, diag_a, 0.0, corr_p], [corr_x, 0.0, diag_b, 0.0], [0.0, corr_p, 0.0, diag_b]]


def source_cm(ns: float) -> CovMat:
    """Signal/idler covariance matrix of the downconversion source.

    Unit-vacuum convention, ordering (x_S, p_S, x_I, p_I): diagonal
    s_diag = 2 ns + 1 with phase-sensitive corners +/- c_q.  The state is
    pure: both symplectic eigenvalues equal 1.
    """
    if (ns := _real("ns", ns)) <= 0.0:
        raise ValueError("ns must be positive")
    s_diag, c_q = _source_entries(ns)
    return CovMat(np.array(_two_mode(s_diag, s_diag, c_q, -c_q)), Convention.UNIT_VACUUM)


def _bit0_stack(c: DerivedCoefficients) -> NDArray[np.float64]:
    """Bit 0's matrix of Alice's pair (row ``_ALICE``, see ``alice_pair``) and of Eve's (row ``_EVE``, see ``eve_pair``): one (2, 4, 4) unit-vacuum array, not validated.

    Each row is symmetric by construction, so ``CovMat``'s copy, symmetry
    check and symmetrisation are exact no-ops on it.
    """
    return np.array([_two_mode(c.a, c.s_diag, c.c_a, -c.c_a), _two_mode(c.d, c.e, c.c_e, c.c_e)])


def _parity_pair(params: ProtocolParams, row: int) -> tuple[GaussianState, GaussianState]:
    """Row ``row`` of ``_bit0_stack`` as bit 0 and its mirror by P, exactly V0 * ``_PARITY_SIGNS``, as bit 1; each is validated as a ``CovMat``."""
    bit0 = CovMat(_bit0_stack(derived_coefficients(params))[row], Convention.UNIT_VACUUM)
    return GaussianState(bit0), GaussianState(CovMat(bit0.mat * _PARITY_SIGNS, Convention.UNIT_VACUUM))


def alice_pair(params: ProtocolParams) -> tuple[GaussianState, GaussianState]:
    """Alice's return/idler states ``(state_bit0, state_bit1)`` for Bob's bit k = 0, 1.

    Unit-vacuum convention, ordering (x_R, p_R, x_I, p_I): diagonal
    (a, a, s_diag, s_diag).  The correlation is phase sensitive: the x-x
    entry carries (-1)^k c_a and the p-p entry the opposite sign.  Bit 1's
    matrix is bit 0's with both idler quadratures negated (``_parity_pair``).
    """
    return _parity_pair(params, _ALICE)


def eve_pair(params: ProtocolParams) -> tuple[GaussianState, GaussianState]:
    """Eve's tapped signal/return states ``(state_bit0, state_bit1)`` for Bob's bit k = 0, 1.

    Unit-vacuum convention, ordering (x_S', p_S', x_R', p_R') for the two
    tapped modes: diagonal (d, d, e, e).  Unlike Alice's pair the
    correlation here is phase insensitive: (-1)^k c_e multiplies both the
    x-x and the p-p entry.  Bit 1's matrix is bit 0's with both return
    quadratures negated (``_parity_pair``).
    """
    return _parity_pair(params, _EVE)


def validate_physicality(cm: CovMat) -> PhysicalityReport:
    """Report the symplectic spectrum and whether the matrix is a physical state.

    Accepts either convention (quarter-vacuum input is rescaled first) and
    does not raise on unphysical input; the verdict is ``ok = all nu >= 1``,
    where ``williamson`` has already lifted any nu within 1e-9 below 1 to 1.

    Raises:
        IllConditionedMatrixError: condition number above 1e7, where the
            spectrum is too inexact for that verdict (the source from about
            ns = 800 up).
    """
    unit = cm if cm.convention is Convention.UNIT_VACUUM else to_unit_vacuum(cm)
    lo, hi = np.linalg.eigvalsh(unit.mat)[[0, -1]].tolist()
    cond = hi / lo if lo > 0.0 else math.inf
    # williamson's own limit is 1e12, but from about 1.7e7 (the source at ns
    # about 1e3) the pure source's spectrum reads nu < 1 beyond its 1e-9 lift.
    if not cond <= 1e7:
        raise IllConditionedMatrixError(f"covariance matrix condition number {cond:.3e} exceeds 1e7")
    nu, _ = williamson(unit)
    return PhysicalityReport(nu=nu, ok=bool(np.all(nu >= 1.0)))
