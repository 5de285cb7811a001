"""Perturbation sweep: how far can the integers move before interpolation
breaks?

For exponent p the safe magnitude is 1/(2 max(p, q)); the sweep shows PASS
strictly below the boundary and FAIL at the critical magnitude in the bad
orientation.  At p = 2 the boundary is the classical 1/4.
"""
import numpy as np

from pwinterp import Exponents, FamilySpec, full_verdict, make_family

K = 1 << 14

for p in (2.0, 1.5):
    e = Exponents(p)
    boundary = 1.0 / (2.0 * e.p_max)
    print(f"== p = {p} (q = {e.q:.3g}): boundary 1/(2 max(p,q)) = "
          f"{boundary:.4g} ==")
    for orientation, sign in (("outward", +1.0), ("inward", -1.0)):
        row = []
        for d in (0.05, 0.10, boundary * 0.8, boundary):
            seq = make_family(FamilySpec("signed", sign * d), K)
            rep = full_verdict(seq, p, x_max=2048.0)
            row.append(f"d={d:.3g}:{rep.verdict}")
        print(f"  {orientation:8s} " + "  ".join(row))
    print()

print("The failing side at the boundary depends on p: for p <= 2 the "
      "inward push breaks the dual weight, for p > 2 the outward push "
      "breaks the weight itself.")
