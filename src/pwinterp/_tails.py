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

with the digamma function.  Both are computed here by one rule: shift the
argument past 16, by zeta(s, q) = zeta(s, q + 1) + q^(-s) (DLMF 25.11.3)
or psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2), then sum the asymptotic
Bernoulli series (DLMF 25.11.43, 5.11.2), whose terms are the same
B_2k/(2k)! (s)_(2k-1) a^-(2k+s-1), with s = 1 for -psi.  The two digamma
values lie near log(K/2) and almost cancel, so their difference is summed
directly: the shift sum is written as sum_i (y - x)/((x + i)(y + i)), and
the asymptotic part as log1p((y - x)/x) plus Bernoulli terms.  The series
converges rapidly for |z| well inside the window; terms up to z^16 keep
the truncation error negligible for |z| <= (K+1)/4, the trust radius
beyond which T is taken as 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MAX_SHIFT", "TailCompensation", "build_tail", "lattice_shifts",
           "tail_from_shifts"]

# Largest |lambda_k - k| of a window with a continuation; the bulk kernel's
# nearest-node band rests on the same bound.
MAX_SHIFT = 1.5
N_TERMS = 16
# B_2k/(2k)!, k = 1..13 (DLMF 24.2.2): the asymptotic series below then
# omits less than 2e-16 of zeta(s, a) for a >= _ASYMPTOTIC_MIN and
# s <= N_TERMS, and far less of psi
_BERNOULLI = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
     -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
     -236364091 / 2730, 8553103 / 6), 1))
_ASYMPTOTIC_MIN = 16.0


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


def _bernoulli_terms(s, a):
    """sum_k B_2k/(2k)! (s)_(2k-1) a^-(2k+s-1): the Bernoulli terms of
    zeta(s, a) (DLMF 25.11.43) and, for s = 1, of -psi(a) (DLMF 5.11.2)."""
    out = np.zeros_like(a)
    poch, power, inv2 = s, a ** (-1 - s), a ** -2.0
    for k, c in enumerate(_BERNOULLI, 1):
        out += c * poch * power
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        power = power * inv2
    return out


def _shift_then_asymptotic(x, low, term, asymptotic):
    """sum_{i < m} term(x + i) + asymptotic(x + m), m the least shift that
    takes every ``low`` past ``_ASYMPTOTIC_MIN``."""
    m = max(0, math.ceil(_ASYMPTOTIC_MIN - np.min(low)))
    i = np.arange(m).reshape((m,) + (1,) * np.ndim(x))
    return np.sum(term(x + i), axis=0) + asymptotic(x + m)


def _hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{i >= 0} (q + i)^-s for whole numbers 2 <= s <=
    N_TERMS and q > 0, q already of the result's shape."""
    return _shift_then_asymptotic(
        q, q, lambda t: t ** -s,
        lambda a: a ** (1 - s) / (s - 1) + 0.5 * a ** -s
        + _bernoulli_terms(s, a))


def _digamma_step(x, h):
    """psi(x + h) - psi(x) for x, x + h > 0, without cancellation."""
    return _shift_then_asymptotic(
        x, np.minimum(x, x + h), lambda t: h / (t * (t + h)),
        lambda a: (np.log1p(h / a) + h / (2.0 * a * (a + h))
                   + _bernoulli_terms(1, a) - _bernoulli_terms(1, a + h)))


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
    P = np.arange(2.0, N_TERMS + 1)
    zeta = _hurwitz_zeta(P[:, None, None], np.broadcast_to(
        np.stack([up, down]), (P.size, 2, 2)))  # [P, up/down, parity]
    coeffs[2:] = -np.sum(zeta[:, 0] + (-1) ** P[:, None] * zeta[:, 1],
                         axis=1) / (P * 2.0 ** P)
    coeffs.setflags(write=False)
    return TailCompensation(coeffs=coeffs, radius=(K + 1) / 4.0)
