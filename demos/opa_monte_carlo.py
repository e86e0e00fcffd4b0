"""Validate the OPA receiver's Bhattacharyya bound by direct simulation.

The receiver's per-mode counts are geometric, so each trial's M-mode
total is negative binomial: the failures before the M-th success of
Bernoulli trials.  A run draws how many of its trials sent bit 0 (exact,
since the trials are iid), then each trial's decision.  The total lies
below the maximum-likelihood threshold T (rounded up) exactly when at least
M of the first T + M - 1 Bernoulli outcomes succeed, so one binomial draw
per trial decides it, with the law of thresholding every total.  The
empirical error must sit below the analytic bound (it is an upper bound)
but not suspiciously far below bound/20 (which would point at broken
sampling).

Run: python demos/opa_monte_carlo.py
"""

from qillum import McConfig, ProtocolParams, run_mc

TRIALS = 1_000_000
SEED = 20260808

print(f"{'M':>6}  {'bound':>10}  {'empirical':>10}  {'Wilson 95% CI':>24}")
for m in (500, 1000, 2000):
    params = ProtocolParams(ns=0.004, kappa=0.1, g=1e4, nb=1e4, m=m)
    result = run_mc(McConfig(trials=TRIALS, seed=SEED, params=params))
    lo, hi = result.wilson_ci95
    print(f"{m:>6}  {result.analytic_bound:>10.4f}  {result.empirical_error:>10.4f}  [{lo:.4f}, {hi:.4f}]")

# The last run, at M = 2000, also reports the count model and its threshold.
print()
print(f"at M = 2000: n0 = {result.model.n0:.5f}, n1 = {result.model.n1:.5f}, "
      f"ML threshold = {result.threshold:.2f} counts")
print("fewer modes per bit -> less information -> the empirical error climbs,")
print("always staying under the bound.")
