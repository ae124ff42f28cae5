"""Measuring output-gap inequalities between pruned subnetworks.

Each instance holds four networks on one small conv architecture. f1 and
f2 are two random, untrained reference networks (uniform [-1, 1]
parameters, no training). g1 and g2 are two prunings of one further random
network, with masks drawn from random scores, not fitted to f1 or f2. Over
a probe set, the sup-gap between the pruned pair is bounded by the sum of
their approximation errors plus the sup-gap of the references; the checker
measures all quantities and evaluates both inequalities per instance. The
upper one is a triangle inequality that only an arithmetic bug can break.
``lower_holds`` is this repo's reading of the lower inequality,
inf_gap >= min(|eps1+eps2-alpha_l|, |eps1+eps2-alpha_u|, |alpha_l|);
acceptance criterion 8 reports how often it holds but asserts only the
upper inequality.
"""

from gossipmask import bound_check, random_bound_instance

(f1, f2, g1, g2), probe = random_bound_instance(seed=4, probes=200)
rep = bound_check(f1, f2, g1, g2, probe)
print("one instance, 200 probes:")
print(f"  eps1 (f1 vs g1 sup)    {rep.eps1:.4f}")
print(f"  eps2 (f2 vs g2 sup)    {rep.eps2:.4f}")
print(f"  alpha_u / alpha_l      {rep.alpha_u:.4f} / {rep.alpha_l:.4f}")
print(f"  pruned gap sup / inf   {rep.sup_gap:.4f} / {rep.inf_gap:.4f}")
print(f"  upper bound holds      {rep.upper_holds} "
      f"(sup {rep.sup_gap:.4f} <= {rep.eps1 + rep.eps2 + rep.alpha_u:.4f})")
lower_rhs = min(abs(rep.eps1 + rep.eps2 - rep.alpha_l),
                abs(rep.eps1 + rep.eps2 - rep.alpha_u), abs(rep.alpha_l))
print(f"  lower bound holds      {rep.lower_holds} "
      f"(inf {rep.inf_gap:.4f} >= {lower_rhs:.4f})")

# substituting the references for the pruned nets zeroes the errors
sub = bound_check(f1, f2, f1, f2, probe)
print(f"\nsubstitution check: eps1={sub.eps1}, eps2={sub.eps2}, "
      f"sup gap equals alpha_u: {sub.sup_gap == sub.alpha_u}")

upper, lower = 0, 0
for seed in range(50):
    nets, probe = random_bound_instance(seed, probes=100)
    r = bound_check(*nets, probe)
    upper += int(r.upper_holds)
    lower += int(r.lower_holds)
print(f"\n50 random instances: upper bound {upper}/50 (a triangle-inequality")
print(f"consequence, so anything below 50 would be a bug), lower bound "
      f"{lower}/50")
