"""Anatomy of the critical counterexample at p = 2.

At the critical magnitude 1/4 the weight behaves like |x|^(-1/2) (outward)
or |x|^(+1/2) (inward); squared, one of the two powers always lands at the
non-integrable edge of the Muckenhoupt cone, and the origin-anchored
quotient grows like log(1+X).
"""
import numpy as np

from pwinterp import (FamilySpec, IntervalFamily, build_generating_function,
                      continuous_ap, fit_weight_exponent, make_family)

K = 1 << 15
p = 2.0
d = 0.25

for sign, label in ((+1.0, "outward"), (-1.0, "inward")):
    seq = make_family(FamilySpec("signed", sign * d), K)
    gf = build_generating_function(seq)
    fit = fit_weight_exponent(gf, 32, 2048)
    fam = IntervalFamily(x_max=8192.0, m_min=5, m_max=13)
    ap = continuous_ap(gf, p, fam, gf.separation / 8)
    print(f"== {label} (d = {sign * d:+.2f}) ==")
    print(f"  weight exponent fit: {fit.slope:+.4f}")
    print("  anchored quotient ladder:")
    for L, q in zip(ap.lengths, ap.level_max):
        bar = "#" * int(4 * q)
        print(f"    X = {int(L):5d}  quotient {q:7.3f}  {bar}")
    print(f"  growth slope vs log(1+X): {ap.growth_slope:+.4f} "
          f"(r2 {ap.growth_r2:.3f}), ring ratio {ap.ring_ratio:.4f}")
    print()
