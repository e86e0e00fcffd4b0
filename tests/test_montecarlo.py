"""Monte Carlo of the OPA receiver: threshold test, sampler checks, bound validity."""

import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from qillum import (
    McConfig,
    OpaReceiverModel,
    ProtocolParams,
    ml_threshold,
    opa_bhattacharyya,
    opa_model,
    run_mc,
)
from qillum import montecarlo


def make_config(m: int, trials: int, seed: int = 7) -> McConfig:
    params = ProtocolParams(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=m)
    return McConfig(trials=trials, seed=seed, params=params)


# ----------------------------------------------------------------------
# threshold


def test_ml_threshold_single_mode_example():
    model = OpaReceiverModel(gain_excess=0.1, n0=3.0, n1=1.0)
    expected = math.log(2.0) / math.log(1.5)
    assert ml_threshold(model, 1) == pytest.approx(expected, rel=1e-12)
    assert ml_threshold(model, 1) == pytest.approx(1.7095112913514547, rel=1e-12)


def test_ml_threshold_matches_likelihood_ratio_sign_change():
    # discrete search: first count where the bit-0 likelihood overtakes bit 1
    model = OpaReceiverModel(gain_excess=0.1, n0=3.0, n1=1.0)
    threshold = ml_threshold(model, 1)

    def log_likelihood(n, mean):
        return n * math.log(mean / (1.0 + mean)) - math.log(1.0 + mean)

    for n in range(0, 12):
        favours_bit0 = log_likelihood(n, 3.0) >= log_likelihood(n, 1.0)
        assert favours_bit0 == (n >= threshold)


def test_ml_threshold_scales_with_m():
    model = OpaReceiverModel(gain_excess=0.1, n0=3.0, n1=1.0)
    assert ml_threshold(model, 10) == pytest.approx(10 * ml_threshold(model, 1), rel=1e-12)


def test_ml_threshold_within_mean_interval(headline_params):
    model = opa_model(headline_params)
    threshold = ml_threshold(model, headline_params.m)
    assert headline_params.m * model.n1 < threshold < headline_params.m * model.n0


@pytest.mark.parametrize("g, nb, m", [(1e4, 1e4, 2000), (1e4, 1e4, 20000), (1e30, 1e30, 20)])
def test_ml_threshold_matches_a_50_digit_oracle(g, nb, m):
    """Within 8 eps of the threshold formula at the same float n0, n1.

    At nb = 1e30 both likelihood ratios round to 1 unless each log is taken
    through log1p of its excess; the direct logs then divided 0 by 0.
    """
    model = opa_model(ProtocolParams(ns=0.004, kappa=0.1, g=g, nb=nb, m=m))
    with mpmath.workdps(50):
        n0, n1 = mpmath.mpf(model.n0), mpmath.mpf(model.n1)
        exact = m * mpmath.log((1 + n0) / (1 + n1)) / mpmath.log(n0 * (1 + n1) / (n1 * (1 + n0)))
        assert abs(ml_threshold(model, m) - exact) <= 8 * sys.float_info.epsilon * exact


def test_ml_threshold_requires_a_positive_integer_m():
    # A fractional, NaN or infinite m once returned a threshold (nan and inf for the last two).
    model = OpaReceiverModel(gain_excess=0.1, n0=0.5, n1=0.4)
    for m in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive integer"):
            ml_threshold(model, m)


def test_ml_threshold_rejects_degenerate_model():
    model = OpaReceiverModel(gain_excess=0.1, n0=0.5, n1=0.5)
    with pytest.raises(ValueError, match="no threshold"):
        ml_threshold(model, 10)


@pytest.mark.parametrize(
    "model, m",
    [
        # n1 (1 + n0) overflows to inf, so the denominator's log is 0.
        (OpaReceiverModel(gain_excess=1.0, n0=3.6783694757324204e301, n1=3.3955267632578014e301), 10),
        (OpaReceiverModel(gain_excess=1.0, n0=100.0, n1=1.0), 10**308),
    ],
    ids=["bright-means", "huge-m"],
)
def test_ml_threshold_refuses_a_threshold_beyond_the_float_range(model, m):
    with pytest.raises(ValueError, match="threshold overflows the float range"):
        ml_threshold(model, m)


# ----------------------------------------------------------------------
# sampler calibration


def test_geometric_sampler_moment():
    # negative binomial with m = 1 is the geometric count distribution
    model = opa_model(ProtocolParams(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=1))
    rng = np.random.default_rng(5)
    draws = rng.negative_binomial(1, 1.0 / (1.0 + model.n0), size=10**6)
    assert draws.mean() == pytest.approx(model.n0, rel=0.01)


def test_negative_binomial_equals_convolved_geometric():
    # chi-square at m = 3 against the thrice-convolved geometric pmf
    mean = 1.3
    p = 1.0 / (1.0 + mean)
    kmax = 80
    geometric = (1.0 - p) ** np.arange(kmax + 1) * p
    convolved = np.convolve(np.convolve(geometric, geometric), geometric)[: kmax + 1]
    rng = np.random.default_rng(42)
    sample = rng.negative_binomial(3, p, size=200_000)
    observed = np.bincount(np.clip(sample, 0, kmax), minlength=kmax + 1)
    expected = convolved * len(sample)
    expected[-1] = len(sample) - expected[:-1].sum()  # fold the tail in
    cut = int(np.argmax(np.cumsum(expected) > len(sample) - 5.0))
    observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
    expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-3


@pytest.mark.parametrize("m", [1, 3, 2000, 5000])
@pytest.mark.parametrize("p", [1e-6, 0.13, 0.5, 0.87, 1.0 - 1e-9])
def test_a_total_below_the_threshold_is_a_binomial_with_m_successes(m, p):
    """NB(m, p) total < T iff at least m of the first T + m - 1 Bernoulli(p) outcomes succeed, T = ceil(threshold).

    The thresholds are integers and non-integers, below 1, near 1 and around the total's mean.  The
    complements are checked too, so a probability near 1 (at p = 1 - 1e-9) is compared in its tail.
    """
    mean = m * (1.0 - p) / p
    thresholds = {0.25, 1.0, 2.5, 7.0, 0.8 * mean, float(math.floor(mean)), 1.2 * mean, float(math.ceil(1.2 * mean))}
    for threshold in sorted(t for t in thresholds if t > 0.0):
        t = math.ceil(threshold)
        total, successes = stats.nbinom(m, p), stats.binom(t + m - 1, p)
        assert total.cdf(t - 1) == pytest.approx(successes.sf(m - 1), rel=1e-12, abs=0.0)
        assert total.sf(t - 1) == pytest.approx(successes.cdf(m - 1), rel=1e-12, abs=0.0)


def test_the_binomial_identity_holds_in_exact_arithmetic():
    # Both sides as exact rationals at p = 13/100, sharing no code with scipy's incomplete beta.
    p = Fraction(13, 100)
    q = 1 - p
    for m in range(1, 5):
        for t in range(0, 13):
            below = sum(math.comb(x + m - 1, x) * p**m * q**x for x in range(t))
            n = t + m - 1
            successes = sum(math.comb(n, k) * p**k * q ** (n - k) for k in range(m, n + 1))
            assert below == successes


# ----------------------------------------------------------------------
# runs


def test_run_mc_is_deterministic():
    first = run_mc(make_config(m=2000, trials=100_000))
    second = run_mc(make_config(m=2000, trials=100_000))
    assert first == second


def test_run_mc_respects_bhattacharyya_bound():
    config = make_config(m=2000, trials=200_000)
    bound = opa_bhattacharyya(config.params).bhattacharyya_upper
    result = run_mc(config)
    assert result.empirical_error <= bound
    assert result.empirical_error >= bound / 20.0
    lo, hi = result.wilson_ci95
    assert lo <= result.empirical_error <= hi


@pytest.mark.parametrize("m", [500, 1000, 2000, 5000])
def test_run_mc_matches_the_exact_error_of_its_threshold_test(m):
    """Within 4 sigma of Pr(e) = [F0(t - 1) + 1 - F1(t - 1)] / 2, F the negative-binomial CDF.

    A bit-0 total errs below the threshold and a bit-1 total at or above it,
    so with t = ceil(threshold) both errors turn on the count t - 1.
    """
    trials = 10**6
    result = run_mc(make_config(m=m, trials=trials, seed=20260808))
    model, t = result.model, math.ceil(result.threshold)
    f0, f1 = (stats.nbinom(m, 1.0 / (1.0 + mean)).cdf(t - 1) for mean in (model.n0, model.n1))
    exact = 0.5 * (f0 + 1.0 - f1)
    if m == 2000:
        assert exact == pytest.approx(4.8322029e-2, rel=1e-7)
    assert abs(result.empirical_error - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


def test_run_mc_stream_is_pinned():
    """Seed 7's 4891 errors in 1e5 trials at M = 2000 (the CLI tests' MC_FLAGS point), within 1 sigma of 0.048322.

    They change whenever the order or the kind of the draws does, which must then be deliberate.
    """
    result = run_mc(make_config(m=2000, trials=100_000))
    assert result.empirical_error == 0.04891
    assert result.wilson_ci95 == (0.04759046794386863, 0.05026418759804155)


def traced_peak(config: McConfig) -> int:
    """Peak bytes numpy and Python allocate during ``run_mc(config)``, after a warm-up run."""
    run_mc(config)  # warm: first-call allocations are not the run's
    tracemalloc.start()
    try:
        run_mc(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_run_mc_holds_no_array_per_trial_beyond_its_counts():
    # Per-trial bit, mean and p arrays take 40 B per trial.  One chunk of draws is
    # 512 KiB whatever the trial count, so ten times the trials may not raise the peak
    # (one batch per bit raised it from 0.97 to 9.07 MB).  The 1 KiB allows for the
    # Python ints of a later chunk's offset, which the first chunk's offset 0 does not
    # allocate.
    trials = 200_000
    peak = traced_peak(make_config(m=2000, trials=trials))
    assert peak <= 8 * trials
    assert traced_peak(make_config(m=2000, trials=10 * trials)) <= peak + 1024


def one_shot_errors(config: McConfig) -> int:
    """Errors of ``config``'s run with each bit's decisions drawn as one binomial batch, not in chunks."""
    model, m = opa_model(config.params), config.params.m
    outcomes = math.ceil(ml_threshold(model, m)) + m - 1
    rng = np.random.default_rng(config.seed)
    sent0 = int(rng.binomial(config.trials, 0.5))
    errors = int(np.count_nonzero(rng.binomial(outcomes, 1.0 / (1.0 + model.n0), size=sent0) >= m))
    successes1 = rng.binomial(outcomes, 1.0 / (1.0 + model.n1), size=config.trials - sent0)
    return errors + int(np.count_nonzero(successes1 < m))


@pytest.mark.parametrize("m", [1, 2000])
@pytest.mark.parametrize("seed", [0, 7, 20090904])
def test_chunked_run_counts_the_errors_of_one_batch_per_bit(m, seed):
    # About 3 x _CHUNK decisions per bit: three or four chunks, the last one partial.
    trials = 6 * montecarlo._CHUNK + 17
    config = make_config(m=m, trials=trials, seed=seed)
    assert run_mc(config).empirical_error == one_shot_errors(config) / trials


@pytest.mark.parametrize("seed, sent0", [(0, 1), (2, 0)])
def test_an_outcome_count_beyond_int64_is_refused_before_any_draw(seed, sent0, monkeypatch):
    # Means of about 3.8e20 and 2.6e20 put ceil(threshold) + m - 1 past the largest count numpy samples,
    # whichever bit the one trial would send.
    assert np.random.default_rng(seed).binomial(1, 0.5) == sent0
    config = McConfig(trials=1, seed=seed, params=ProtocolParams(ns=1e10, kappa=0.1, g=1e4, nb=1e4, m=1))

    def no_generator(seed):
        raise AssertionError("a generator was made before the refusal")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=r"ceil\(threshold\) \+ m - 1 = \d+ Bernoulli outcomes per decision exceeds 2\*\*63 - 1"):
        run_mc(config)


def test_run_mc_samples_means_past_the_negative_binomial_range():
    """ns = 5e8 at M = 1 (means of about 9.6e17 and 6.4e17), which numpy's negative binomial refuses, within 4 sigma of exact."""
    trials = 100_000
    params = ProtocolParams(ns=5e8, kappa=0.1, g=1e4, nb=1e4, m=1)
    result = run_mc(McConfig(trials=trials, seed=20260808, params=params))
    model, t = result.model, math.ceil(result.threshold)
    assert model.n0 > 9e17
    with pytest.raises(ValueError, match="n too large or p too small"):
        np.random.default_rng(0).negative_binomial(1, 1.0 / (1.0 + model.n0))
    f0, f1 = (stats.nbinom(1, 1.0 / (1.0 + mean)).cdf(t - 1) for mean in (model.n0, model.n1))
    exact = 0.5 * (f0 + 1.0 - f1)
    assert abs(result.empirical_error - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


def test_run_mc_error_grows_as_m_shrinks():
    errors = [run_mc(make_config(m=m, trials=200_000)).empirical_error for m in (2000, 1000, 500)]
    assert errors[0] < errors[1] < errors[2]


def test_run_mc_warns_on_low_statistical_power():
    with pytest.warns(UserWarning, match="low statistical power"):
        run_mc(make_config(m=2000, trials=100))


def test_run_mc_reports_the_model_and_bound_it_validates():
    config = make_config(m=2000, trials=100)
    with pytest.warns(UserWarning, match="low statistical power"):
        result = run_mc(config)
    assert result.model == opa_model(config.params)
    assert result.analytic_bound == opa_bhattacharyya(config.params).bhattacharyya_upper


def test_run_mc_refuses_opa_means_beyond_the_overlap_range():
    # The means are about 3.7e301; the bound refuses them before the threshold overflows.
    params = ProtocolParams(ns=1e150, kappa=0.5, g=1e4, nb=1e4, m=10)
    with pytest.raises(ValueError, match=r"at most 1e\+120"):
        run_mc(McConfig(trials=10, seed=0, params=params))


def test_mc_config_validation():
    params = ProtocolParams(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=100)
    for trials in (0, math.inf, math.nan, 2**63, 10**22):
        with pytest.raises(ValueError, match="trials"):
            McConfig(trials=trials, seed=1, params=params)
    assert McConfig(trials=2**63 - 1, seed=1, params=params).trials == 2**63 - 1
    for seed in (1.5, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            McConfig(trials=100, seed=seed, params=params)
