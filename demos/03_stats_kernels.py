"""Exercise the inference layer: beta kernel, t-tests, OLS.

Shows the t and F tail probabilities at the values the harness is verified
against, then runs the two hypothesis-test shapes on synthetic FP rates.
"""

import numpy as np

from soundskew.stats import (
    f_upper_p,
    one_sample_t,
    reg_inc_beta,
    simple_ols,
    two_sample_pooled_t,
    two_sided_t_p,
)

print("I_x(1,1) is the identity:",
      [reg_inc_beta(1, 1, x) for x in (0.25, 0.5, 0.9)])
print(f"two-sided p for t=2.6, df=8:  {two_sided_t_p(2.6, 8):.4f}")
print(f"two-sided p for t=2.8, df=17: {two_sided_t_p(2.8, 17):.4f}")
print(f"upper p for F=58.88, df=(1,2693): {f_upper_p(58.88, 1, 2693):.3g}")

rng = np.random.default_rng(0)

# H1 shape: are per-iteration FP rates above 50% chance?
fp = rng.normal(0.55, 0.05, size=9)
r = one_sample_t(fp, 0.5)
print(f"\nH1-style: mean FP {fp.mean():.3f}; "
      f"t({r.df}) = {r.t:.2f}, p = {r.p:.3f}")

# H2 shape: combat-variable FP vs size-variable FP
combat = rng.normal(0.55, 0.07, size=18)
size = rng.normal(0.49, 0.10, size=18)
r, ca, sz = two_sample_pooled_t(combat, size)
print(f"H2-style: combat M={ca.mean:.3f} SD={ca.sd:.3f} vs "
      f"size M={sz.mean:.3f} SD={sz.sd:.3f}; "
      f"t({r.df}) = {r.t:.2f}, p = {r.p:.3f}")

# length-regression shape
length = rng.integers(2, 10, size=300).astype(float)
attack = 40 + 4 * length + rng.normal(0, 15, size=300)
ols = simple_ols(length, attack)
print(f"OLS: F({ols.df1}, {ols.df2}) = {ols.F:.2f}, "
      f"p = {ols.p:.3g}, R^2 = {ols.r2:.3f}")
