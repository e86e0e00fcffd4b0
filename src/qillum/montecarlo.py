"""Monte Carlo validation of the OPA receiver's error bound.

Each trial sends a uniformly random bit, samples the receiver's total
photon count over the bit's M modes (iid geometric counts, so a negative
binomial total) and applies the maximum-likelihood threshold test.  The
trials are iid, so the run draws how many sent bit 0, then each bit's
totals in fixed-size chunks (see ``run_mc``), and reports the empirical
error rate, with a Wilson 95% interval, next to the analytic Bhattacharyya
bound.  A run holds one chunk at a time, so its memory does not grow with
its trial count.

Randomness comes from ``numpy.random.Generator`` seeded with PCG64, so a
fixed seed reproduces results bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import _count
from .protocol import ProtocolParams
from .receivers import OpaReceiverModel, _opa_overlap, opa_bhattacharyya

__all__ = ["McConfig", "McResult", "ml_threshold", "run_mc"]

# 95% two-sided normal quantile for the Wilson interval.
_Z95 = 1.959963984540054

RECOMMENDED_MIN_TRIALS = 10_000

# Negative-binomial totals drawn per call: 512 KiB of int64.
_CHUNK = 2**16


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run description: trial count, RNG seed, protocol knobs.

    Fewer than 10^4 trials, or an expected error count below 10, triggers a
    statistical-power warning at run time rather than a hard error.
    """

    trials: int
    seed: int
    params: ProtocolParams

    def __post_init__(self) -> None:
        if (trials := _count("trials", self.trials)) > np.iinfo(np.int64).max:
            raise ValueError("trials must be at most 2**63 - 1, the largest count numpy samples")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", _count("seed", self.seed, least=0))


@dataclass(frozen=True)
class McResult:
    """Empirical error rate with its Wilson 95% interval and test threshold, beside the OPA model and bound."""

    empirical_error: float
    wilson_ci95: tuple[float, float]
    threshold: float
    trials_used: int
    model: OpaReceiverModel
    analytic_bound: float


def ml_threshold(model: OpaReceiverModel, m: int) -> float:
    """Maximum-likelihood count threshold between the two bit hypotheses.

    Equating the two negative-binomial log-likelihoods of the total count
    gives

        n* = m ln[(1 + n0) / (1 + n1)] / ln[n0 (1 + n1) / (n1 (1 + n0))];

    declare bit 0 iff the total count >= n*.  Both logs are taken as
    log1p of their ratio's excess over 1, (n0 - n1) / (1 + n1) and
    (n0 - n1) / (n1 (1 + n0)), so bright means whose ratios round to 1
    keep their threshold.  Raises when n0 = n1, where no threshold exists,
    and when it leaves the float range, as n1 (1 + n0) does beyond 1.3e154.
    """
    m = _count("m", m)
    if model.n0 == model.n1:
        raise ValueError("n0 = n1: the hypotheses coincide and no threshold exists")
    diff = model.n0 - model.n1
    num = math.log1p(diff / (1.0 + model.n1))
    den = math.log1p(diff / (model.n1 * (1.0 + model.n0)))
    if not den > 0.0 or not math.isfinite(threshold := m * num / den):
        raise ValueError(f"the ML threshold overflows the float range at n0 = {model.n0!r}, n1 = {model.n1!r}")
    return threshold


def _wilson_ci95(errors: int, trials: int) -> tuple[float, float]:
    p_hat = errors / trials
    z2 = _Z95**2
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_mc(config: McConfig) -> McResult:
    """Simulate the OPA receiver and measure its empirical bit-error rate.

    Draws sent0 ~ Binomial(trials, 1/2), then sent0 bit-0 and
    trials - sent0 bit-1 totals in that order, each negative binomial at its
    bit's scalar p = 1 / (1 + n_bit) and thresholded, ties to bit 0.  The
    trials are iid, so (sent0, errors) has exactly the law of a loop
    drawing bit then total per trial.  Each bit's totals come in chunks of
    ``_CHUNK`` draws, counted one chunk at a time; numpy's Generator gives
    the same stream for a split batch, so the draw order and every count
    are those of one batch per bit.  An empty bit still makes one draw of
    size 0, so numpy refuses its p as it would a full batch's.  The bound,
    returned with the model, is formed first, so it refuses means beyond
    1e120 by name; the model is the one it was formed from, shared per
    (ns, kappa, g, nb).

    Output is fully determined by ``config.seed``.
    """
    params = config.params
    bound = opa_bhattacharyya(params).bhattacharyya_upper
    model, _ = _opa_overlap(params)
    m = params.m
    threshold = ml_threshold(model, m)
    if config.trials < RECOMMENDED_MIN_TRIALS or config.trials * min(bound, 1.0) < 10.0:
        warnings.warn(
            f"low statistical power: {config.trials} trials against an error bound "
            f"of {bound:.3e}; expect a noisy estimate",
            stacklevel=2,
        )

    rng = np.random.default_rng(config.seed)
    sent0 = int(rng.binomial(config.trials, 0.5))
    errors = 0
    for mean, sent, wrong in ((model.n0, sent0, np.less), (model.n1, config.trials - sent0, np.greater_equal)):
        p = 1.0 / (1.0 + mean)
        for start in range(0, sent, _CHUNK) or range(1):
            size = min(_CHUNK, sent - start)
            # One expression, so each chunk is freed before the next is drawn.
            errors += int(np.count_nonzero(wrong(rng.negative_binomial(m, p, size=size), threshold)))
    return McResult(
        empirical_error=errors / config.trials,
        wilson_ci95=_wilson_ci95(errors, config.trials),
        threshold=threshold,
        trials_used=config.trials,
        model=model,
        analytic_bound=bound,
    )
