"""The path-length versus bit-rate tradeoff.

Operation has to stay in the dim-source regime, so as fiber loss grows the
only way to keep Alice's error probability at target is to spend more mode
pairs per bit.  At fixed source bandwidth W that stretches the bit interval
T = M / W, so the bit rate falls with distance at constant error and
constant security.

Run: python demos/link_planning.py
"""

from qillum import ProtocolParams, Receiver, budget_from_fiber, required_m, security_margin

W_HZ = 1e12          # source phase-matching bandwidth
LOSS_DB_PER_KM = 0.2
TARGET_PE = 1e-6

print(f"target Pr(e) <= {TARGET_PE:g} with the OPA receiver, W = {W_HZ:g} Hz")
print()
print(f"{'km':>5}  {'kappa':>8}  {'M needed':>10}  {'bit rate':>12}  {'Eve lower':>9}  secure")

for km in (10, 25, 50, 75, 100):
    kappa = budget_from_fiber(km, LOSS_DB_PER_KM, W_HZ, 1.0).kappa
    sizing = ProtocolParams(ns=0.004, kappa=kappa, g=1e4, nb=1e4, m=1)
    m_needed = required_m(sizing, TARGET_PE, Receiver.OPA)
    params = ProtocolParams(ns=0.004, kappa=kappa, g=1e4, nb=1e4, m=m_needed)
    margin = security_margin(params)
    rate = W_HZ / m_needed  # T = M / W
    print(
        f"{km:>5}  {kappa:>8.4f}  {m_needed:>10d}  {rate:>9.3e} /s"
        f"  {margin.eve.lower_bound:>9.4f}  {not margin.insecure}"
    )

print()

# The 50 km headline point, spelled out via the budget helper.
budget = budget_from_fiber(50.0, LOSS_DB_PER_KM, W_HZ, 20e-9)
params = ProtocolParams(ns=0.004, kappa=budget.kappa, g=1e4, nb=1e4, m=budget.m)
margin = security_margin(params)
print(f"50 km with T = 20 ns: kappa = {budget.kappa}, M = {budget.m}, "
      f"rate = {budget.bit_rate:.0f} bit/s")
print(f"  Alice OPA bound {margin.alice_opa.bhattacharyya_upper:.3e}, "
      f"Eve lower bound {margin.eve.lower_bound:.3f}")
print(f"  margin ratio (Eve lower / Alice upper): {margin.margin_ratio:.3g}")
