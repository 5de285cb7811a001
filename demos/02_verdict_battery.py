"""The criteria battery in one sweep: which sequences keep interpolation
stable, which lose it, and what the evidence looks like.

PASS needs a density scale, the A_p quotients stable under window
doubling and a converged window; FAIL needs an explicit divergence
witness (quotient growth trend or a weight power at the Muckenhoupt
boundary); everything else stays INCONCLUSIVE.  The Carleson column is
reported and gates nothing.
"""
from pwinterp import FamilySpec, full_verdict, integer_lattice, make_family

K = 1 << 14
X_MAX = 2048.0

cases = [
    ("integer lattice", integer_lattice(K)),
    ("constant shift d=0.2", make_family(FamilySpec("constant_shift", 0.2), K)),
    ("signed d=0.10", make_family(FamilySpec("signed", 0.10), K)),
    ("signed d=0.20", make_family(FamilySpec("signed", 0.20), K)),
    ("signed d=0.25 (critical)", make_family(FamilySpec("signed", 0.25), K)),
    ("signed d=-0.25 (critical)", make_family(FamilySpec("signed", -0.25), K)),
    ("random d=0.35", make_family(FamilySpec("random", 0.35, seed=1), K)),
]

print(f"{'family':28s} {'verdict':13s} {'carleson':>9s} {'ap sup':>8s} "
      f"{'slope':>7s} {'r2':>5s} {'ring':>6s}  failed")
for name, seq in cases:
    rep = full_verdict(seq, 2.0, x_max=X_MAX)
    print(f"{name:28s} {rep.verdict:13s} {rep.carleson_sup:9.4f} "
          f"{rep.ap_sup:8.3f} {rep.growth_slope:7.3f} {rep.growth_r2:5.2f} "
          f"{rep.ring_ratio:6.3f}  {','.join(rep.failed_checks) or '-'}")

print("""
Reading the table: the critical signed families push the weight power
onto the boundary of the Muckenhoupt cone; their interval quotients grow
linearly in log(1+X) (slope, r2) and their dyadic ring ratio pins to 1.
""")
