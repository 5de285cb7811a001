"""Series compensation for product factors beyond the node window.

The symmetric product over a window [-K, K] omits all pattern nodes with
|k| > K.  Their paired factors multiply to exp(T(z)) where

    T(z) = sum_{k > K} log(1 + A_k z + B_k z^2),

with A_k = -(1/lambda_k + 1/lambda_{-k}) and B_k = 1/(lambda_k lambda_{-k}).
Every generated family's tail is a two-sided shift of the lattice,
lambda_{+-k} = +-k + shift, with fixed shifts per parity class, so A_k and
B_k are smooth in k and T expands as a power series in z whose
coefficients are tail sums evaluated by Euler-Maclaurin summation.  The
series converges rapidly for |z| well inside the window; terms up to z^16
keep the truncation error negligible for |z| <= (K+1)/4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

__all__ = ["TailCompensation", "build_tail"]

N_TERMS = 16


@dataclass(frozen=True)
class TailCompensation:
    """Polynomial log-correction for the omitted far factors."""

    coeffs: np.ndarray  # coeffs[P] multiplies z**P; coeffs[0] == 0
    radius: float       # series trusted for |z| <= radius

    def log_tail(self, z):
        """T(z) evaluated by Horner; valid for |z| <= radius."""
        z = np.asarray(z)
        acc = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
        for P in range(self.coeffs.size - 1, 0, -1):
            acc += self.coeffs[P]
            acc *= z
        return acc


def _log_poly_coeff(P: int, A: float, B: float) -> float:
    """z^P coefficient of log(1 + A z + B z^2)."""
    total = 0.0
    for m in range((P + 1) // 2, P + 1):
        b = P - m          # power of B
        a = 2 * m - P      # power of A
        sign = 1.0 if (m + 1) % 2 == 0 else -1.0
        total += sign / m * math.comb(m, b) * (A ** a) * (B ** b)
    return total


def _euler_maclaurin(g, start: float, stride: float) -> float:
    """sum_{l=0}^{inf} g(start + stride*l) for smooth, decaying g."""
    gt = lambda ell: g(start + stride * ell)
    integral, _ = quad(gt, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=300)
    h = 0.5
    d1 = (gt(h) - gt(-h)) / (2 * h)
    d3 = (gt(2 * h) - 2 * gt(h) + 2 * gt(-h) - gt(-2 * h)) / (2 * h ** 3)
    return integral + gt(0.0) / 2.0 - d1 / 12.0 + d3 / 720.0


def _streams(kind: str, d: float, K: int):
    """Sub-streams (start, stride, a, b) of pair indices k > K.

    Within a stream the pair is lambda_k = k + a, lambda_{-k} = -k + b, so

        A_k = (a + b) / ((k + a)(k - b)),   B_k = -1 / ((k + a)(k - b)).

    The alternating kind splits by parity into two stride-2 streams so each
    keeps fixed shifts.
    """
    if kind in ("integer", "random"):
        # Random perturbations are unknowable beyond the window; the
        # zero-mean lattice tail is the documented stand-in.
        return [(K + 1, 1, 0.0, 0.0)]
    if kind == "constant_shift":
        return [(K + 1, 1, d, d)]
    if kind == "signed":
        return [(K + 1, 1, d, -d)]
    if kind == "alternating":
        even, odd = (K + 1, K + 2) if K % 2 else (K + 2, K + 1)
        return [(even, 2, d, d), (odd, 2, -d, -d)]
    raise ValueError(f"no tail pattern for kind {kind!r}")


def build_tail(kind: str, d: float, K: int,
               n_terms: int = N_TERMS) -> TailCompensation:
    """Tail coefficients C_P = sum_{k>K} [z^P] log(1 + A_k z + B_k z^2)."""
    coeffs = np.zeros(n_terms + 1)
    for start, stride, a, b in _streams(kind, d, K):
        for P in range(1, n_terms + 1):
            g = lambda t: _log_poly_coeff(P, (a + b) / ((t + a) * (t - b)),
                                          -1.0 / ((t + a) * (t - b)))
            coeffs[P] += _euler_maclaurin(g, start, stride)
    coeffs.setflags(write=False)
    return TailCompensation(coeffs=coeffs, radius=(K + 1) / 4.0)
