"""Gaussian-state covariance algebra and binary-discrimination error bounds.

Everything here works on zero-mean two-mode Gaussian states described by
their real 4 x 4 quadrature covariance matrices in the ordering
(x_1, p_1, x_2, p_2).  Two variance conventions coexist in the literature,
so every matrix carries an explicit tag:

* ``UNIT_VACUUM``    : vacuum covariance matrix equals the identity.  All
  spectral machinery below (symplectic eigenvalues, Williamson form, state
  overlaps) requires this convention, and the protocol states are built
  in it.
* ``QUARTER_VACUUM`` : vacuum quadrature variance 1/4, the tag for matrices
  that come from outside in that convention; ``to_unit_vacuum`` converts
  them.

The discrimination engine computes ``tr(rho0**s rho1**(1-s))`` for two
zero-mean Gaussian states from their Williamson decompositions, then turns
the s-minimised overlap into quantum Chernoff / Bhattacharyya upper bounds
and the matching lower bound for an M-copy binary hypothesis test.  Two
states are decomposed in one stacked pass (one ``eigh`` over both
matrices, stacked matmuls, one Schur solve each), which gives each state
the bits ``williamson`` gives it alone.  The determinant in the overlap is
then a polynomial in the four powered symplectic eigenvalues whose 19
nonnegative coefficients (Cauchy-Binet, by Laplace expansion over two
8 x 8 tables of 2 x 2 minors of [S0 | S1]) are formed once per pair, so
each evaluation during the s-search is straight-line arithmetic on
Python floats.  A pure state makes Q_s monotone in s, so the search
takes the matching end of its bracket without iterating.  A parity
pair, whose state1 is state0 mirrored, needs no search: its one Q_{1/2}
is taken from state0 alone, with LAPACK's determinant of the 4 x 4 sum;
the protocol path takes Alice's and Eve's from one (2, 4, 4) array, no
``CovMat``, in one stacked decomposition, V(1/2) and determinant.

The one routine not reached through numpy's API is LAPACK's real Schur
solver ``dgees``.  It is called through ``ctypes`` from the OpenBLAS that
numpy's own ``linalg`` extension links (``scipy-openblas64``, which exports
the ILP64 symbol ``scipy_dgees_64_``), so a decomposing process maps one
LAPACK, numpy's.  A numpy build that exports no such symbol (conda's, or
Accelerate on macOS arm64) takes the Schur form from numpy's ``eigh`` of
the Hermitian i a instead (``_eigh_schur``), so numpy is the one runtime
dependency.  Either way the step is bound at the first decomposition and
kept by ``functools.cache`` on ``_load_dgees``, so ``import qillum`` and
``qillum mc`` bind nothing.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import numbers
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Convention",
    "CovMat",
    "GaussianState",
    "OverlapResult",
    "ErrorBounds",
    "IllConditionedMatrixError",
    "OMEGA",
    "to_unit_vacuum",
    "williamson",
    "power_cm",
    "power_overlap",
    "minimize_overlap",
    "error_bounds_from_overlaps",
    "chernoff_bound",
]

# Symplectic eigenvalues this close below 1 are treated as exactly 1
# (pure-state fuzz from finite-precision eigensolves); a state with one
# further below 1 is unphysical.
NU_CLAMP_TOL = 1e-9
# Below this distance from 1, the closed forms for nu = 1 are used instead
# of evaluating (nu - 1)**s.
NU_PURE_TOL = 1e-12

_SYMMETRY_ATOL = 1e-12
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
_ENTRY_MAX = float(np.finfo(float).max) / 2.0  # so that m + m.T cannot overflow
# The s-search bracket, kept 1e-6 inside (0, 1) where Q_s is singular for
# mixed states, and the absolute part of its stopping tolerance (see
# ``minimize_overlap``).
_S_LO = 1e-6
_S_HI = 1.0 - 1e-6
_S_TOL = 1e-6
# Brent's golden-section fraction (3 - sqrt 5) / 2, for steps where a
# parabolic step is refused, and the relative part of the tolerance.
_BRENT_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))


class IllConditionedMatrixError(ValueError):
    """Raised when a covariance matrix is too ill-conditioned to decompose."""


class Convention(Enum):
    """Vacuum-variance convention of a covariance matrix."""

    QUARTER_VACUUM = "quarter_vacuum"
    UNIT_VACUUM = "unit_vacuum"


# The symplectic form for (x_1, p_1, x_2, p_2), shared and read-only.
OMEGA = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
OMEGA.setflags(write=False)
# The sign pattern of P V P, P negating both quadratures of mode 2: the
# symplectic matrix of a pi phase shift on that mode.
_PARITY_SIGNS = np.outer([1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0])
_PARITY_SIGNS.setflags(write=False)


# The ILP64 dgees that numpy's bundled OpenBLAS exports, and the workspace
# dgees takes for a 4 x 4 matrix: LWORK = 3 N.
_NUMPY_DGEES = "scipy_dgees_64_"
_LWORK = 12


class _SchurWorkspace(threading.local):
    """One thread's arguments for ``dgees`` on a 4 x 4 matrix, made at that thread's first call.

    One 60-double buffer holds A (overwritten with T), VS, WR, WI, WORK,
    the unreferenced BWORK and the int64 scalars N (= LDA = LDVS), LWORK,
    SDIM and INFO; ``args`` is the ctypes argument list over it: JOBVS
    ``V``, SORT ``N``, a NULL SELECT, and the two gfortran string lengths.
    ``slots`` holds A^T's C-order view, ``args``, T, VS and INFO, read with
    one attribute lookup per call.
    """

    def __init__(self) -> None:
        buffer = np.zeros(60)
        a_t, vs_t = buffer[:16].reshape(4, 4), buffer[16:32].reshape(4, 4)
        ints = buffer[56:60].view(np.int64)
        ints[:2] = 4, _LWORK  # N and LWORK; SDIM and INFO are outputs
        address = buffer.ctypes.data
        n, lwork, sdim, info = (ctypes.c_void_p(address + 8 * k) for k in range(56, 60))
        a, vs, wr, wi, work, bwork = (ctypes.c_void_p(address + 8 * k) for k in (0, 16, 32, 36, 40, 52))
        one = ctypes.c_size_t(1)
        args = (b"V", b"N", None, n, a, n, sdim, wr, wi, vs, n, work, lwork, bwork, info, one, one)
        # Column-major A and VS seen as matrices: the transposes of their C-order views.
        self.slots = (a_t, args, a_t.T, vs_t.T, ints[3:])


def _eigh_schur(a: NDArray) -> tuple[NDArray, NDArray]:
    """A real Schur form (T, Z) of a nonsingular antisymmetric 4 x 4 ``a``, from numpy's ``eigh`` alone.

    The Hermitian i a has eigenvalues -l_2 <= -l_1 < 0 < l_1 <= l_2.  An
    eigenvector v at l > 0 is orthogonal to its conjugate, the eigenvector
    at -l, so sqrt 2 (Re v, Im v) are orthonormal real columns spanning a
    plane a keeps, and T = Z^T a Z carries -l and +l in its 2 x 2 block.
    """
    _, v = np.linalg.eigh(1j * a)
    z = math.sqrt(2.0) * np.ascontiguousarray(v[:, 2:]).view(np.float64)
    return z.T @ a @ z, z


@functools.cache
def _load_dgees() -> Callable[[NDArray], tuple[NDArray, NDArray]]:
    """The Schur step ``schur(a) -> (T, Z)``, a = Z T Z^T for a 4 x 4 antisymmetric ``a``: LAPACK ``dgees`` where numpy links one.

    ``dlsym`` on a handle to ``numpy.linalg._umath_linalg`` reaches the
    OpenBLAS that extension links, already mapped.  A call copies ``a``
    into its thread's ``_SchurWorkspace`` and returns views of that
    workspace, valid until the thread's next call; it raises
    ``numpy.linalg.LinAlgError`` when dgees reports failure.  Where numpy
    exports no ``scipy_dgees_64_`` (conda's build, Accelerate), returns
    ``_eigh_schur``.  ``functools.cache`` keeps the step from the first
    decomposition on.
    """
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), _NUMPY_DGEES)
    except (OSError, AttributeError):
        return _eigh_schur
    # No argtypes: each argument in ``args`` is a ctypes object, bytes or None,
    # which fixes its C type itself, and a per-argument conversion would add
    # about 0.3 us to a 5 us call (x86_64, OpenBLAS 0.3.31).
    routine.restype = None
    workspace = _SchurWorkspace()

    def schur(a):
        a_t, args, t, vs, info = workspace.slots
        a_t[...] = a.T
        routine(*args)
        if info[0]:
            raise np.linalg.LinAlgError(f"Schur form not found (dgees info = {info[0]})")
        return t, vs

    return schur


@dataclass(frozen=True)
class CovMat:
    """A real, symmetric, positive-definite two-mode quadrature covariance matrix.

    Construction validates real 4 x 4 input, finite entries, symmetry to within
    1e-12 absolute and positive definiteness, then freezes the underlying
    array.  Physicality (symplectic eigenvalues >= 1) is *not* enforced here;
    diagnostics on unphysical matrices must stay possible.
    """

    mat: NDArray[np.float64]
    convention: Convention

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.mat):
            raise ValueError("covariance matrix must be real, not complex")
        m = np.array(self.mat, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4 x 4 (two modes), not shape {m.shape}")
        if not isinstance(self.convention, Convention):
            raise ValueError("convention must be a Convention member")
        if not np.abs(m).max() <= _ENTRY_MAX:  # false for NaN and inf too
            raise ValueError("covariance matrix entries must be finite and at most 8.9e307 in size")
        if np.max(np.abs(m - m.T)) > _SYMMETRY_ATOL:
            raise ValueError("covariance matrix must be symmetric to 1e-12")
        m = (m + m.T) / 2.0
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("covariance matrix must be positive definite") from None
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class GaussianState:
    """A zero-mean two-mode Gaussian state, fixed by its covariance matrix alone."""

    cm: CovMat


@dataclass(frozen=True)
class OverlapResult:
    """The s-minimised overlap q_s = tr(rho0**s rho1**(1-s)), its s, and q_half at s = 1/2."""

    q_s: float
    s: float
    q_half: float


@dataclass(frozen=True)
class ErrorBounds:
    """Error-probability bounds for an M-copy binary hypothesis test.

    ``chernoff_upper`` is 0.5 * q_star**M with q_star the s-minimised
    single-copy overlap, ``bhattacharyya_upper`` the same at s = 1/2, and
    ``lower_bound`` the standard two-state lower bound
    0.5 * (1 - sqrt(1 - q_half**(2M))), formed without cancellation.  All
    M-fold powers are taken in the log domain.
    """

    chernoff_upper: float
    bhattacharyya_upper: float
    lower_bound: float
    s_star: float
    q_star: float
    q_half: float
    m: int


def to_unit_vacuum(cm: CovMat) -> CovMat:
    """Rescale a quarter-vacuum covariance matrix to the unit-vacuum convention.

    Multiplies the matrix by 4 so the vacuum state maps to the identity.
    Rejects input already tagged ``UNIT_VACUUM`` to guard against double
    scaling.
    """
    if cm.convention is Convention.UNIT_VACUUM:
        raise ValueError("covariance matrix is already in the unit-vacuum convention")
    return CovMat(4.0 * cm.mat, Convention.UNIT_VACUUM)


def _williamson_stack(mats: NDArray, conventions: tuple[Convention, ...], labels: tuple[str, ...] = ()) -> tuple[list[tuple[float, float]], NDArray]:
    """Williamson decompositions of an (n, 4, 4) stack of covariance matrices, in one pass: each (nu_1, nu_2), and the (n, 4, 4) stack of S.

    Each matrix is symmetric positive definite, as a ``CovMat`` holds it,
    in convention ``conventions[k]``.  One ``eigh`` over the stack, V^{1/2},
    V^{-1/2} and V^{-1/2} Omega V^{-1/2} as stacked matmuls, one Schur step
    (``_load_dgees``) per matrix and S for the whole stack; every float
    operation is the one a lone matrix takes, so each result is the same to
    the bit at any stack size.  The bookkeeping reads only the 2 x 2
    diagonal blocks of T, in either orientation, so it serves dgees's T and
    ``_eigh_schur``'s alike.  Matrix k is checked in full (convention,
    conditioning, and with ``labels`` physicality, refused as
    ``labels[k]``) before matrix k + 1, and no matrix from the first
    refused one on is inverted.
    """
    lam, u = np.linalg.eigh(mats)
    refusal = None
    for n, (convention, spectrum) in enumerate(zip(conventions, lam.tolist())):
        if convention is not Convention.UNIT_VACUUM:
            refusal = ValueError("williamson requires the unit-vacuum convention")
            break
        # V is symmetric positive definite, so its 2-norm condition number is
        # lam[-1] / lam[0] (eigh sorts ascending).  A subnormal lam[0] counts as
        # ill-conditioned: it would overflow V^{-1/2} Omega V^{-1/2} below.
        cond = spectrum[-1] / spectrum[0] if spectrum[0] >= _TINY else math.inf
        if not cond <= 1e12:
            refusal = IllConditionedMatrixError(f"covariance matrix condition number {cond:.3e} exceeds 1e12")
            break
    else:
        n = len(conventions)
    if n < len(conventions):
        lam, u = lam[:n], u[:n]
    u_t = u.transpose(0, 2, 1)
    root_lam = np.sqrt(lam)[:, np.newaxis, :]
    root = (u * root_lam) @ u_t
    inv_root = (u / root_lam) @ u_t
    core = inv_root @ OMEGA @ inv_root
    core = (core - core.transpose(0, 2, 1)) / 2.0  # exact antisymmetry for the Schur step
    schur = _load_dgees()
    nus, q_rows = [], []
    for k in range(n):
        t, q = schur(core[k])
        # Block k carries 1/nu_k in its positive off-diagonal entry; a block
        # whose upper-right entry came out negative has its two columns of q
        # swapped, which flips the block's orientation.
        t = t.tolist()
        modes = [
            (1.0 / t[1][0], (1, 0)) if t[0][1] < 0.0 else (1.0 / t[0][1], (0, 1)),
            (1.0 / t[3][2], (3, 2)) if t[2][3] < 0.0 else (1.0 / t[2][3], (2, 3)),
        ]
        if not modes[0][0] > modes[1][0]:  # descending; a tie swaps the modes too
            modes.reverse()
        (nu0, cols0), (nu1, cols1) = modes
        nu0, nu1 = (1.0 if 1.0 - NU_CLAMP_TOL <= v < 1.0 else v for v in (nu0, nu1))
        if labels and (nu0 < 1.0 or nu1 < 1.0):
            raise ValueError(f"{labels[k]} is unphysical: symplectic eigenvalues {np.array([nu0, nu1])} below 1")
        nus.append((nu0, nu1))
        q_rows.append(q.T.take(cols0 + cols1, axis=0))
    if refusal is not None:
        raise refusal
    # Rows of q.T, transposed back, keep q's column-major layout for the
    # matmul; (root @ q) @ diag(d) only adds exact zeros to (root @ q) * d.
    scale = np.array([[(nu0, nu0, nu1, nu1)] for nu0, nu1 in nus]) ** -0.5
    return nus, (root @ np.array(q_rows).transpose(0, 2, 1)) * scale


def williamson(cm: CovMat) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Williamson decomposition (nu, S) of a unit-vacuum covariance matrix.

    Computes V = S D S^T with S symplectic and D = diag(nu_1, nu_1, nu_2,
    nu_2), nu sorted descending, with two equal values in the swapped order
    of the Schur blocks (as ``np.argsort(nu)[::-1]`` orders them); values
    within 1e-9 below 1 are clamped up to 1, so a physical state has every
    nu >= 1 exactly.  Uses the real Schur form of V^{-1/2} Omega V^{-1/2},
    whose antisymmetric 2x2 blocks carry 1/nu_k, from one Schur step
    (``_load_dgees``); the bookkeeping on the two blocks is done in Python
    floats.  It is the stack of one of the routine that decomposes both
    states of a general pair in one pass, so a state gets the same bits
    either way.

    Raises:
        IllConditionedMatrixError: condition number above 1e12.
        numpy.linalg.LinAlgError: the Schur step found no Schur form.
    """
    nus, symplectic = _williamson_stack(cm.mat[np.newaxis], (cm.convention,))
    return np.array(nus[0]), symplectic[0]


def _as_float(name: str, value) -> float:
    """``value`` as a float: a real number, not a bool (an int beyond the float range is inf), for a range check that refuses inf and NaN."""
    if type(value) is not float:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{name} must be a finite number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    return value


def _real(name: str, value) -> float:
    """``value`` as a float: a real number, not a bool, finite as a float (an int beyond its range is not)."""
    if not math.isfinite(value := _as_float(name, value)):
        raise ValueError(f"{name} must be finite")
    return value


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int: an integral real, not a bool, from ``least`` (0 or 1) up to 1.8e308, the float range."""
    if type(value) is not int and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer")
    # int() only below inf; the cap is then compared as an int, which numpy cannot round.
    if not (least <= value < math.inf and value == (count := int(value)) <= sys.float_info.max):
        raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer")
    return count


def _check_power(s) -> float:
    """``s`` as a float (``_as_float``), refused unless s and 1 - s, the two powers Q_s takes, lie strictly inside (0, 1)."""
    s = _as_float("s", s)
    for power in (s, 1.0 - s):
        if not 0.0 < power < 1.0:
            raise ValueError(f"power s = {power} must lie strictly inside (0, 1)")
    return s


def _thermal_modes(nu) -> list[tuple[float, float]]:
    """(nu_k, ln(nu_k - 1)) per mode of the Python floats ``nu``, a pure mode (nu_k - 1 <= NU_PURE_TOL) as (1, -inf)."""
    return [(v, math.log(v - 1.0)) if v - 1.0 > NU_PURE_TOL else (1.0, -math.inf) for v in nu]


def _mode_powers(modes: list, s: float) -> tuple[list[float], list[float]]:
    """Each mode's tr(rho**s) and nu(s), from ``_thermal_modes``.

    With a = (nu+1)**s and b = (nu-1)**s = exp(s ln(nu-1)), a mode has
    tr(rho**s) = 2**s / (a - b) and nu(s) = (a + b) / (a - b); a pure mode,
    (1, -inf), has b = 0 and so exactly 1 for both.  Callers check nu and s;
    a mixed mode whose a and b round to one float (s within a few eps of 0,
    or nu beyond about 1e15) raises a ValueError, as a - b would be 0.
    """
    traces: list[float] = []
    nus: list[float] = []
    for nu, log_excess in modes:
        a = (nu + 1.0) ** s
        b = math.exp(s * log_excess)
        if not a > b:
            raise ValueError(f"(nu + 1)**s and (nu - 1)**s round to one float at nu = {nu!r}, s = {s!r}")
        traces.append(2.0**s / (a - b))
        nus.append((a + b) / (a - b))
    return traces, nus


@functools.cache
def _cauchy_binet_tables() -> tuple:
    """Index tables for det(W C W^T), W = [S0 | S1] a 4 x 8 matrix and C diagonal with one entry per column pair.

    Cauchy-Binet gives det = sum over the 70 column sets J of det(W_J)**2
    prod_{j in J} c_j, and column j belongs to mode block j // 2, whose two
    columns share one c.  Along rows (0, 1), det(W_J) is the Laplace sum
    over the 6 splits of J's positions into (i, j) and (k, l) of
    (-1)**(i + j + 1) times the minors of rows (0, 1) on (J_i, J_j) and of
    rows (2, 3) on (J_k, J_l).  Returns, as read-only arrays: per J and
    split, the indices 8 J_i + J_j and 8 J_k + J_l into the two 8 x 8 minor
    tables and the splits' signs; each J's monomial; then the 19 monomials
    as the four blocks' exponents (each 0 to 2, summing to 4).  Built at
    the first general pair, so an import or a parity-pair evaluation does
    not pay for it.
    """
    splits = list(itertools.combinations(range(4), 2))
    exponents = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 4]
    top, bottom, monomial = [], [], []
    for cols in itertools.combinations(range(8), 4):
        # In combinations order the other two positions of the n-th split are the n-th split from the end.
        top.append([8 * cols[i] + cols[j] for i, j in splits])
        bottom.append([8 * cols[k] + cols[l] for k, l in reversed(splits)])
        blocks = [c // 2 for c in cols]
        monomial.append(exponents.index(tuple(map(blocks.count, range(4)))))
    # (-1)**(1 + 2 + (i + 1) + (j + 1)) for rows (0, 1) and positions (i, j) of J.
    signs = [(-1.0) ** (i + j + 1) for i, j in splits]
    tables = [np.array(t) for t in (top, bottom, signs, monomial)]
    for table in tables:
        table.setflags(write=False)
    return (*tables, tuple(exponents))


def _cauchy_binet_terms(symplectic0: NDArray, symplectic1: NDArray) -> list[tuple[float, tuple[int, ...]]]:
    """det[S0 diag(x0, x0, x1, x1) S0^T + S1 diag(y0, y0, y1, y1) S1^T] as 19 (coefficient, (a, b, c, e)) terms.

    Term (coef, (a, b, c, e)) is coef x0**a x1**b y0**c y1**e.  By
    Cauchy-Binet coef is the sum of det(W_J)**2 over the column sets J of
    W = [S0 | S1] that take a, b, c and e columns from the four blocks, so
    each is a sum of squares and no term of the determinant cancels
    another.  Each det(W_J) is a Laplace expansion (``_cauchy_binet_tables``)
    in the 8 x 8 tables of 2 x 2 minors of rows (0, 1) and of rows (2, 3).
    """
    top, bottom, signs, monomial, exponents = _cauchy_binet_tables()
    w = np.concatenate((symplectic0, symplectic1), axis=1)
    products = w[0::2, :, None] * w[1::2, None, :]
    pair_minors = products - products.transpose(0, 2, 1)
    minors = (pair_minors[0].take(top) * pair_minors[1].take(bottom)) @ signs
    return list(zip(np.bincount(monomial, minors * minors, minlength=len(exponents)).tolist(), exponents))


def power_cm(decomp: tuple[NDArray[np.float64], NDArray[np.float64]], s: float) -> NDArray[np.float64]:
    """Covariance matrix of the normalised s-th power of a Gaussian state.

    Applies the symplectic functional calculus to the Williamson pair
    ``decomp = (nu, S)``: each nu_k (finite, >= 1) is replaced by the
    eigenvalue of the normalised thermal power,

        nu_k(s) = [(nu_k+1)**s + (nu_k-1)**s] / [(nu_k+1)**s - (nu_k-1)**s],

    exactly 1 at nu_k = 1, while S is kept: V(s) = S diag(nu_k(s)) S^T.
    The overlap evaluator takes nu_k(s) and the traces from the same
    private per-mode builder.
    """
    nu, symplectic = decomp
    for value in nu:
        if not 1.0 <= value < math.inf:
            raise ValueError(f"symplectic eigenvalue {value} is below 1 or not finite")
    _, (nu0, nu1) = _mode_powers(_thermal_modes(np.asarray(nu).tolist()), _check_power(s))
    # Bit-identical to S @ diag(d) @ S^T, whose diagonal matmul only adds exact zeros.
    return (symplectic * [nu0, nu0, nu1, nu1]) @ symplectic.T


def _overlap_evaluator(state0: GaussianState, state1: GaussianState) -> tuple[Callable[[float], float], float | None]:
    """Decompose both states in one stacked pass; return the evaluator s -> Q_s and the end of the s-bracket a pure state fixes.

    Runs every state check of ``power_overlap`` (unit-vacuum convention,
    conditioning, physicality), all of state0's before state1's, and takes
    each ln(nu_k - 1) up front; the evaluator is unchecked: callers keep s
    and 1 - s inside (0, 1) (see ``_check_power``).  The 19 coefficients of
    det[V0(s) + V1(1 - s)] as a polynomial in the four powered eigenvalues
    nu_k(s) are formed once (``_cauchy_binet_terms``), and each Q_s is then
    straight-line arithmetic in Python floats: the per-mode traces and
    nu_k(s) of ``_mode_powers``, and the determinant as the 19 nonnegative
    terms added left to right in ``_cauchy_binet_tables`` order, with no
    factor of exactly 1 multiplied in.

    A pure state0 (every mode nu_k - 1 <= NU_PURE_TOL) has rho0**s = rho0,
    so Q_s = <psi0| rho1**(1-s) |psi0> grows with s and is least at
    ``_S_LO``; a pure state1 makes Q_s = <psi1| rho0**s |psi1> fall with s,
    least at ``_S_HI``.  That end (``_S_LO`` if both are pure) is returned
    beside the evaluator, None for two mixed states.
    """
    (spectrum0, spectrum1), symplectic = _williamson_stack(
        np.array([state0.cm.mat, state1.cm.mat]), (state0.cm.convention, state1.cm.convention), ("state0", "state1"))
    (n00, e00), (n01, e01) = modes0 = _thermal_modes(spectrum0)
    (n10, e10), (n11, e11) = modes1 = _thermal_modes(spectrum1)
    p00, p01, p10, p11 = n00 + 1.0, n01 + 1.0, n10 + 1.0, n11 + 1.0
    (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9,
     c10, c11, c12, c13, c14, c15, c16, c17, c18) = (coef for coef, _ in _cauchy_binet_terms(*symplectic))
    exp = math.exp
    end = _S_LO if e00 == e01 == -math.inf else _S_HI if e10 == e11 == -math.inf else None

    def q(s: float) -> float:
        r = 1.0 - s
        two_s, two_r = 2.0**s, 2.0**r
        # Per mode as in _mode_powers: a = (nu + 1)**p, b = (nu - 1)**p.
        a00, b00, a01, b01 = p00**s, exp(s * e00), p01**s, exp(s * e01)
        a10, b10, a11, b11 = p10**r, exp(r * e10), p11**r, exp(r * e11)
        if not (a00 > b00 and a01 > b01 and a10 > b10 and a11 > b11):
            _mode_powers(modes0, s)
            _mode_powers(modes1, r)  # one of the two raises
        d00, d01, d10, d11 = a00 - b00, a01 - b01, a10 - b10, a11 - b11
        x0, x1, y0, y1 = (a00 + b00) / d00, (a01 + b01) / d01, (a10 + b10) / d10, (a11 + b11) / d11
        xx0, xx1, yy0, yy1 = x0 * x0, x1 * x1, y0 * y0, y1 * y1
        # Term k is c_k x0**a x1**b y0**c y1**e, (a, b, c, e) the k-th exponents of _cauchy_binet_tables.
        det = c0 * yy0 * yy1
        det += c1 * x1 * y0 * yy1
        det += c2 * x1 * yy0 * y1
        det += c3 * xx1 * yy1
        det += c4 * xx1 * y0 * y1
        det += c5 * xx1 * yy0
        det += c6 * x0 * y0 * yy1
        det += c7 * x0 * yy0 * y1
        det += c8 * x0 * x1 * yy1
        det += c9 * x0 * x1 * y0 * y1
        det += c10 * x0 * x1 * yy0
        det += c11 * x0 * xx1 * y1
        det += c12 * x0 * xx1 * y0
        det += c13 * xx0 * yy1
        det += c14 * xx0 * y0 * y1
        det += c15 * xx0 * yy0
        det += c16 * xx0 * x1 * y1
        det += c17 * xx0 * x1 * y0
        det += c18 * xx0 * xx1
        # 4 t00 t01 t10 t11, multiplied left to right, t = 2**p / (a - b).
        value = 4.0 * (two_s / d00) * (two_s / d01) * (two_r / d10) * (two_r / d11) / math.sqrt(det)
        return 1.0 if value > 1.0 else value

    return q, end


def _parity_q_halves(nus: list[tuple[float, float]], symplectic: NDArray) -> tuple[float, ...]:
    """Q_{1/2} of each parity pair (rho, P rho P) from rho's Williamson form: each (nu_1, nu_2) as Python floats, physical, and the (n, 4, 4) stack of S.

    P is a diagonal +-1 symplectic, so P rho P has rho's traces and
    V(1/2) = P V0(1/2) P, and Q_{1/2} = 4 t0 t1 t0 t1 /
    sqrt(det[V0(1/2) + P V0(1/2) P]), capped at 1, with one stacked V0(1/2)
    and LAPACK determinant for all n: the same bits at any stack size.
    """
    powers = [_mode_powers(_thermal_modes(nu), 0.5) for nu in nus]
    # Bit-identical to S @ diag(d) @ S^T, whose diagonal matmul only adds exact zeros.
    v = (symplectic * [[(x0, x0, x1, x1)] for _, (x0, x1) in powers]) @ symplectic.transpose(0, 2, 1)
    dets = np.linalg.det(v + v * _PARITY_SIGNS).tolist()
    return tuple(min(math.prod(t + t, start=4.0) / math.sqrt(det), 1.0) for (t, _), det in zip(powers, dets))


def power_overlap(state0: GaussianState, state1: GaussianState, s: float) -> float:
    """The s-overlap Q_s = tr(rho0**s rho1**(1-s)) of two zero-mean Gaussian states.

    For two-mode states with Williamson spectra alpha_k, beta_k (k = 1, 2),

        Q_s = 4 prod_k t(alpha_k, s) t(beta_k, 1-s) / sqrt(det[V0(s) + V1(1-s)]),

    with t(nu, s) = tr(rho**s) = 2**s / [(nu+1)**s - (nu-1)**s] the trace of
    a thermal mode's power (1 at nu = 1) and V(s) from the symplectic
    functional calculus (power_cm).  Both states must be unit-vacuum and
    physical, and both are decomposed, parity pairs too.  With V0(s) =
    S0 diag(x0, x0, x1, x1) S0^T and V1(1-s) = S1 diag(y0, y0, y1, y1) S1^T,
    the determinant is taken as the Cauchy-Binet sum
    det = sum_J det(W_J)**2 prod_{j in J} c_j over the 4-column sets J of
    W = [S0 | S1], c = (x0, x0, x1, x1, y0, y0, y1, y1): 19 monomials with
    nonnegative coefficients, so no term cancels another.
    Satisfies Q_s(rho, rho) = 1 and Q_s(rho0, rho1) = Q_{1-s}(rho1, rho0).
    If rho1 = P rho0 P for a unitary P with P**2 = 1 (a parity pair, such
    as a pi phase shift on one mode), cyclicity of the trace also gives
    Q_s = Q_{1-s}.
    """
    return _overlap_evaluator(state0, state1)[0](_check_power(s))


def _brent_minimize(f: Callable[[float], float], x: float, fx: float) -> tuple[float, float]:
    """Minimise f on [_S_LO, _S_HI] by Brent's method from x, where f(x) = fx.

    Parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola is refused (Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 5, as in
    the FMIN routine of Forsythe, Malcolm and Moler).  Stops once x lies
    within 2 (sqrt(eps) |x| + _S_TOL / 3) of both ends of the bracket and
    returns the best point evaluated with its value.
    """
    a, b = _S_LO, _S_HI
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _S_TOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            # Take the parabola's vertex only if it lies inside the bracket
            # and moves less than half the step before last.
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, mid - x)
                parabolic = True
        if not parabolic:
            e = (a if x >= mid else b) - x
            d = _BRENT_GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def minimize_overlap(state0: GaussianState, state1: GaussianState) -> OverlapResult:
    """Minimise Q_s over s in (0, 1), decomposing each state at most once.

    A parity pair (V1 = P V0 P exactly, in one convention, P negating both
    quadratures of mode 2, as in every protocol pair) has Q_s = Q_{1-s} and
    log Q_s convex in s, so it returns s = 1/2 and one Q_{1/2} from state0
    alone (``_parity_q_halves``, a stack of one).  The receivers take both
    protocol pairs' Q_{1/2} from one stacked ``_parity_q_halves`` on the
    bit-0 (2, 4, 4) array, and this call only where that pass refuses.

    Other pairs take the evaluator of both decomposed states and Brent's
    bounded minimiser (parabolic interpolation with a golden-section
    fallback) started at s = 1/2 from Q_{1/2}; log Q_s is convex and smooth
    on the search interval, so the parabolic steps converge superlinearly
    (the endpoints are singular for mixed states, so they are kept at 1e-6
    off the boundary).  The best point evaluated is returned, or s = 1/2
    when Q_{1/2} is at least as small: this keeps the Chernoff bound at or
    below the Bhattacharyya bound.  The search runs on [1e-6, 1 - 1e-6]
    until s* is pinned to within about 1e-6, which takes about 10
    evaluations of Q_s on mixed pairs.  When a state is pure (every mode
    nu - 1 <= NU_PURE_TOL), Q_s is monotone and least at an end of the
    interval: 1e-6 for a pure state0, 1 - 1e-6 for a pure state1 (see
    ``_overlap_evaluator``), and Brent's method is not run, so the pair
    takes 2 evaluations.  ``q_half`` carries Q_{1/2}.
    """
    # Compared as lists of floats: np.array_equal's verdict on two 4 x 4 matrices, without its wrapper's cost.
    if state1.cm.convention is state0.cm.convention and state1.cm.mat.tolist() == (state0.cm.mat * _PARITY_SIGNS).tolist():
        (q_half,) = _parity_q_halves(*_williamson_stack(state0.cm.mat[np.newaxis], (state0.cm.convention,), ("state0",)))
        return OverlapResult(q_s=q_half, s=0.5, q_half=q_half)
    f, end = _overlap_evaluator(state0, state1)
    q_half = f(0.5)
    s, q = _brent_minimize(f, 0.5, q_half) if end is None else (end, f(end))
    if not q < q_half:
        s, q = 0.5, q_half
    return OverlapResult(q_s=q, s=s, q_half=q_half)


def error_bounds_from_overlaps(
    q_star: float, q_half: float, m: int, s_star: float
) -> ErrorBounds:
    """Assemble M-copy error bounds from single-copy overlaps, in log domain.

    ``q_star`` is the s-minimised overlap at ``s_star`` in (0, 1), ``q_half`` the s = 1/2 overlap;
    both lie in (0, 1] and q_star <= q_half, or a ValueError names the one refused.
    The lower bound 0.5 * (1 - sqrt(1 - q_half**(2M))) is formed as
    exp(L) / (2 + 2 sqrt(-expm1(L))), L = 2M ln q_half, which does not
    cancel: it is within 4 eps max(1, |L|) of exact, and equals 0.25 exp(L)
    to the bit once q_half**(2M) < 2**-53, so it is positive until exp(L)
    underflows.
    """
    m = _count("m", m)
    q_star, q_half, s_star = _real("q_star", q_star), _real("q_half", q_half), _real("s_star", s_star)
    _check_power(s_star)
    for name, q in (("q_star", q_star), ("q_half", q_half)):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"overlaps must lie in (0, 1], got {name} = {q!r}")
    if q_star > q_half:
        raise ValueError(f"q_star = {q_star!r} exceeds q_half = {q_half!r}: the s-minimised overlap is the smaller")
    log_q_star = math.log(q_star)
    log_q_half = math.log(q_half)
    chernoff = 0.5 * math.exp(m * log_q_star)
    bhatt = 0.5 * math.exp(m * log_q_half)
    log_q2m = 2.0 * m * log_q_half
    lower = math.exp(log_q2m) / (2.0 + 2.0 * math.sqrt(-math.expm1(log_q2m)))
    return ErrorBounds(
        chernoff_upper=chernoff,
        bhattacharyya_upper=bhatt,
        lower_bound=lower,
        s_star=s_star,
        q_star=q_star,
        q_half=q_half,
        m=m,
    )


def chernoff_bound(state0: GaussianState, state1: GaussianState, m: int) -> ErrorBounds:
    """Quantum Chernoff / Bhattacharyya error bounds for M copies of a state pair.

    Pr(e) <= 0.5 * (min_s Q_s)**M together with the s = 1/2 upper bound and
    the matching lower bound; see ``error_bounds_from_overlaps`` for the
    exact expressions.  Identical states give 1/2 for all three.

    Each state is decomposed at most once.  A parity pair (see
    ``minimize_overlap``) takes one Q_{1/2} from state0 alone, and its
    Chernoff bound equals the Bhattacharyya bound with s* = 1/2 exactly;
    other pairs decompose both states in one stacked pass and take
    Brent's s-search, or the end of the s-interval when a state is pure.
    """
    best = minimize_overlap(state0, state1)
    return error_bounds_from_overlaps(best.q_s, best.q_half, m, best.s)
