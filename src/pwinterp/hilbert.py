"""Discrete Hilbert operator on source/target pairs and weighted probes.

The finite section of the operator a |-> { sum_k a_k / (t_j - s_k) } is the
bridge between interpolation weights and Muckenhoupt conditions: bounded
sections force the weight's block quotients to stabilize.  The probe here
reports certified lower bounds on the weighted operator norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genfn import as_exponents
from .criteria import WeightSequence, _as_weights

__all__ = [
    "DiscreteHilbertOperator",
    "weighted_norm",
    "ProbeResult",
    "probe_norm",
]


class DiscreteHilbertOperator:
    """Matrix operator with kernel 1/(target_j - source_k)."""

    def __init__(self, sources, targets):
        s = np.asarray(sources, dtype=np.complex128).ravel()
        t = np.asarray(targets, dtype=np.complex128).ravel()
        if s.size == 0 or t.size == 0:
            raise ValueError("sources and targets must be nonempty")
        diff = t[:, None] - s[None, :]
        if np.any(diff == 0):
            raise ValueError("a target coincides with a source")
        self.sources = s
        self.targets = t
        self._kernel = 1.0 / diff

    def __len__(self):
        return int(self.sources.size)

    def apply(self, a) -> np.ndarray:
        """Exact finite sums, one output per target."""
        a = np.asarray(a, dtype=np.complex128).ravel()
        if a.size != self.sources.size:
            raise ValueError(
                f"vector length {a.size} does not match {self.sources.size} "
                "sources"
            )
        return self._kernel @ a


def weighted_norm(a, w, p) -> float:
    """(sum |a_k|^p w_k)^(1/p)."""
    p = as_exponents(p)
    w = w.values if isinstance(w, WeightSequence) else np.asarray(w, float)
    a = np.asarray(a)
    return float(np.sum(np.abs(a) ** p.p * w) ** (1.0 / p.p))


@dataclass(frozen=True)
class ProbeResult:
    lower_bound: float
    history: tuple  # running maxima in probe order (monotone)


def _structured_vectors(op: DiscreteHilbertOperator, w, p):
    n = len(op)
    vecs = []
    for frac in (0.5, 0.25, 0.75):
        e = np.zeros(n)
        e[int(frac * (n - 1))] = 1.0
        vecs.append(e)
    for m in (max(1, n // 8), max(1, n // 4)):
        for start in (0, (n - m) // 2, n - m):
            b = np.zeros(n)
            b[start:start + m] = 1.0
            vecs.append(b)
    dual = w ** (-1.0 / (p.p - 1.0))
    for m in (max(1, n // 8), max(1, n // 4)):
        for start in (0, max(0, n // 2 - m)):
            if start + 3 * m <= n:
                a = np.zeros(n)
                a[start:start + m] = dual[start:start + m]
                vecs.append(a)
    return vecs


def probe_norm(op: DiscreteHilbertOperator, w, p, trials: int = 16,
               seed: int = 0) -> ProbeResult:
    """Lower bound on the weighted operator norm from structured and
    seeded random vectors.

    The quotient ||Ha||_{w,p} / ||a||_{w,p} is maximized over unit vectors,
    block vectors, weight-witness vectors and ``trials`` random draws; the
    running maximum never decreases as vectors are added.
    """
    p = as_exponents(p)
    w = _as_weights(w)
    if w.size != len(op):
        raise ValueError("weight length does not match the operator")
    vecs = _structured_vectors(op, w, p)
    rng = np.random.default_rng(seed)
    n = len(op)
    for _ in range(max(0, int(trials))):
        vecs.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    best = 0.0
    history = []
    for a in vecs:
        peak = np.max(np.abs(a))
        if peak == 0.0:
            continue
        a = np.asarray(a) / peak  # quotient-invariant, avoids overflow
        na = weighted_norm(a, w, p)
        if na == 0.0:
            continue
        q = weighted_norm(op.apply(a), w, p) / na
        best = max(best, float(q))
        history.append(best)
    return ProbeResult(lower_bound=best, history=tuple(history))
