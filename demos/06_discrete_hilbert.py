"""The discrete Hilbert operator and a weighted boundedness probe.

The finite matrix with kernel 1/(target - source) carries the same
weighted-norm story as the continuous transform: weights with bounded
block quotients keep its sections bounded, runaway weights do not.  The
probe certifies a lower bound on the operator's weighted norm.
"""
import numpy as np

from pwinterp import DiscreteHilbertOperator, probe_norm

N = 200
k = np.arange(-N, N + 1, dtype=float)
op = DiscreteHilbertOperator(sources=k, targets=k + 0.5)

print("== flat weight: the classical operator ==")
res = probe_norm(op, np.ones(k.size), 2.0, trials=16, seed=0)
print(f"  certified lower bound on the l2 norm: {res.lower_bound:.4f} "
      f"(true value pi = {np.pi:.4f})")
