"""Discrete Hilbert operator on source/target pairs and weighted probes.

The finite section of the operator a |-> { sum_k a_k / (t_j - s_k) } is the
bridge between interpolation weights and Muckenhoupt conditions: bounded
sections force the weight's block quotients to stabilize.  The probe here
reports certified lower bounds on the weighted operator norm; a
principal-value transform utility serves the continuous-side oracle tests.
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
    "WitnessResult",
    "witness_quotient",
    "hilbert_transform_pv",
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


@dataclass(frozen=True)
class WitnessResult:
    quotient: float
    block_ratio: float


def witness_quotient(op: DiscreteHilbertOperator, w, p, k: int,
                     n: int) -> WitnessResult:
    """Boundedness witness built from the weight itself.

    Puts a_l = w_l^(-1/(p-1)) on the block I1 = {k+1, ..., k+n}, applies the
    operator, and measures the weighted norm of the output restricted to
    I2 = {k+2n+1, ..., k+3n}, together with the I1/I2 weight block ratio.
    A quotient that grows with n signals an operator the weight cannot
    carry.
    """
    p = as_exponents(p)
    w = _as_weights(w)
    if k < 0 or k + 3 * n > w.size:
        raise ValueError("window too small for the witness blocks")
    i1 = slice(k + 1, k + n + 1)
    i2 = slice(k + 2 * n + 1, k + 3 * n + 1)
    a = np.zeros(w.size)
    a[i1] = w[i1] ** (-1.0 / (p.p - 1.0))
    out = op.apply(a)
    restricted = np.zeros_like(out)
    restricted[i2] = out[i2]
    quotient = weighted_norm(restricted, w, p) / weighted_norm(a, w, p)
    block_ratio = float(np.sum(w[i1]) / np.sum(w[i2]))
    return WitnessResult(quotient=float(quotient), block_ratio=block_ratio)


def hilbert_transform_pv(f, support: tuple[float, float], t: float,
                         grid_step: float) -> complex:
    """Principal-value transform (1/(i pi)) pv-int f(tau)/(t - tau) dtau.

    ``f`` is sampled at midpoints of ``grid_step`` cells over ``support``.
    The symmetric cell pair straddling t is excluded; by oddness of the
    kernel its principal value contributes f(t) * 0, so no correction is
    added.  t inside the support must keep the excluded cells interior.
    """
    a, b = float(support[0]), float(support[1])
    h = float(grid_step)
    if h <= 0 or b <= a:
        raise ValueError("need positive step and a nonempty support")
    if a < t < b and (t - a < h or b - t < h):
        raise ValueError("t too close to the support boundary for this step")
    n = int(round((b - a) / h))
    tau = a + (np.arange(n) + 0.5) * h
    keep = np.abs(tau - t) > h / 2 * (1 + 1e-12)
    vals = np.asarray(f(tau[keep]), dtype=np.complex128)
    integral = np.sum(vals / (t - tau[keep])) * h
    return complex(integral / (1j * np.pi))
