"""Series compensation for product factors beyond the node window.

The symmetric product over a window [-K, K] omits all nodes with |k| > K.
Their factors multiply to exp(T(z)) where

    T(z) = sum_{|k| > K} log(1 - z/lambda_k) = sum_P C_P z^P,
    C_P = -(1/P) sum_{|k| > K} lambda_k^(-P).

The omitted nodes continue the window: per side and per parity of k, each
is k plus the mean of Re(lambda_k - k) over the outer half |k| >= K/2, so a
generated family's period-2 pattern is returned as it is; imaginary parts
are left out.  A window that :func:`lattice_shifts` turns away, or that
has K < 2, gets no tail.  For j = K+1, K+2 the omitted nodes form four
progressions of stride 2, lambda_k = k + a with k = j, j+2, ... and
lambda_{-k} = -(k - b), a and b the fitted shifts of j's parity; each
sums in closed form (DLMF 25.11.1, 5.7.6): for P >= 2

    C_P += -(1/P) 2^(-P) [zeta(P, (j+a)/2) + (-1)^P zeta(P, (j-b)/2)]

with the Hurwitz zeta function, and for P = 1 the +- pair converges to

    C_1 += -(1/2) [psi((j-b)/2) - psi((j+a)/2)]

with the digamma function.  Its two values lie near log(K/2) and almost
cancel, so the difference is summed directly: both arguments are first
shifted past 16 by psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2), the shift sum
written as sum_i (y - x)/((x + i)(y + i)), and then the asymptotic series
(DLMF 5.11.2) gives psi(y) - psi(x) as log1p((y - x)/x) plus Bernoulli
terms.  The series converges rapidly for |z| well inside the window;
terms up to z^16 keep the truncation error negligible for |z| <= (K+1)/4,
the trust radius beyond which T is taken as 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

__all__ = ["MAX_SHIFT", "TailCompensation", "build_tail", "lattice_shifts",
           "tail_from_shifts"]

# Largest |lambda_k - k| of a window with a continuation; the bulk kernel's
# nearest-node band rests on the same bound.
MAX_SHIFT = 1.5
N_TERMS = 16
# B_2k/(2k), k = 1..6: the digamma series psi(x) ~ log x - 1/(2x)
# - sum_k B_2k/(2k x^2k), accurate to rounding for x >= _PSI_MIN
_PSI_BERNOULLI = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                  -691 / 32760)
_PSI_MIN = 16.0


@dataclass(frozen=True)
class TailCompensation:
    """Polynomial log-correction for the omitted far factors."""

    coeffs: np.ndarray  # coeffs[P] multiplies z**P; coeffs[0] == 0
    radius: float       # series trusted for |z| <= radius

    def log_tail(self, z):
        """T(z) by Horner for |z| <= radius, and 0 beyond it."""
        z = np.asarray(z)
        acc = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
        for P in range(self.coeffs.size - 1, 0, -1):
            acc += self.coeffs[P]
            acc *= z
        return np.where(np.abs(z) <= self.radius, acc, 0.0)


def _digamma_step(x, h):
    """psi(x + h) - psi(x) for x, x + h > 0, without cancellation."""
    y = x + h
    shift = max(0, math.ceil(_PSI_MIN - min(np.min(x), np.min(y))))
    i = np.arange(shift)[:, None]
    out = np.sum(h / ((x + i) * (y + i)), axis=0)
    x, y = x + shift, y + shift
    out += np.log1p(h / x) + h / (2.0 * x * y)
    for k, c in enumerate(_PSI_BERNOULLI, 1):
        out -= c * (y ** (-2 * k) - x ** (-2 * k))
    return out


def lattice_shifts(seq) -> np.ndarray | None:
    """delta_k = lambda_k - k, or None unless the window is index-contiguous
    with every |delta_k| <= ``MAX_SHIFT``: the gate of tail and bulk kernel."""
    if not seq.index_contiguous:
        return None
    delta = seq.positions - seq.indices
    return delta if np.max(np.abs(delta)) <= MAX_SHIFT else None


def build_tail(seq) -> TailCompensation | None:
    """The tail of the window's own continuation beyond [-K, K], or None
    where the window has none (see the module docstring)."""
    K, k = seq.half_width, seq.indices
    delta = lattice_shifts(seq)
    if K < 2 or delta is None:
        return None
    outer = np.abs(k) >= K / 2
    parity = [outer & ((k - j) % 2 == 0) for j in (K + 1, K + 2)]
    a = np.array([np.mean(delta.real[fit & (k > 0)]) for fit in parity])
    b = np.array([np.mean(delta.real[fit & (k < 0)]) for fit in parity])
    return tail_from_shifts(a, b, K)


def tail_from_shifts(a, b, K: int) -> TailCompensation:
    """Closed-form tail beyond [-K, K] of the nodes k + a[i] and
    -(k - b[i]) for k = K+1+i, K+3+i, ..., i = 0, 1."""
    j = np.array([K + 1, K + 2])
    up = (j + a) / 2.0      # (j + a)/2 per parity
    down = (j - b) / 2.0    # (j - b)/2 per parity
    coeffs = np.zeros(N_TERMS + 1)
    # psi(down) - psi(up), with down - up = -(a + b)/2 read off the
    # shifts rather than off the two rounded arguments
    coeffs[1] = -0.5 * np.sum(_digamma_step(up, -(a + b) / 2.0))
    for P in range(2, N_TERMS + 1):
        coeffs[P] = -np.sum(zeta(P, up) + (-1) ** P * zeta(P, down)) / (
            P * 2.0 ** P)
    coeffs.setflags(write=False)
    return TailCompensation(coeffs=coeffs, radius=(K + 1) / 4.0)
