"""The generating function of a node sequence.

The generating function is the entire function vanishing exactly on the
nodes, realized as the symmetric product over the window.  This module
wraps the evaluation engine with the public surface: point values, node
derivatives, the normalized weight ``F(x) = |S(x)| / dist(x, Lambda)``
and the block sums of ``F^p`` that the interval sweep reads, the
weight-exponent fit, and the derivative-to-weight comparability ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nodes as _nodes
from ._engine import ProductCore, OverflowReported, nearest_nodes
from ._tails import build_tail

__all__ = [
    "Exponents",
    "GeneratingFunction",
    "build_generating_function",
    "WeightExponentFit",
    "fit_weight_exponent",
    "RatioStats",
    "comparability_stats",
    "OverflowReported",
    "TrustRadiusError",
]

# Generic abscissas, safely away from every perturbed-lattice node, where
# window convergence is probed.
_PROBE_POINTS = np.array(
    [0.437, 1.618, 2.718, 3.303, 4.669, 5.567, 6.854, 8.243]
)


@dataclass(frozen=True)
class Exponents:
    """An integrability exponent p with its conjugate q and max(p, q)."""

    p: float

    def __post_init__(self):
        if not (1.0 < self.p < np.inf):
            raise ValueError("p must satisfy 1 < p < inf")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def p_max(self) -> float:
        return max(self.p, self.q)


class TrustRadiusError(ValueError):
    """A request reaches past the far-tail series' trust radius."""


def as_exponents(p) -> Exponents:
    return p if isinstance(p, Exponents) else Exponents(float(p))


class GeneratingFunction:
    """Evaluator for the product S, the divided product D(z) = S(z)/(z -
    lambda_n) by the nearest node n, the node derivatives S' (D on the
    nodes) and the weight F = |D|.  The core keeps no bulk cell table
    between calls, and sets its pointwise layout, built on first use,
    whole, so instances are safe to call concurrently.  Build through
    :func:`build_generating_function`.

    Past ``trust_radius`` the product is not the limit's: every method
    raises :class:`TrustRadiusError` there, those taking points after they
    evaluate, so that :class:`OverflowReported` comes first.
    """

    def __init__(self, seq, core: ProductCore,
                 convergence_probe: float | None, separation: float):
        self.seq = seq
        self._core = core
        self.separation = separation
        self.convergence_probe = convergence_probe
        self.tail_compensated = core.tail is not None
        # where the far-tail series holds; uncompensated windows set no bound
        self.trust_radius = (core.tail.radius if core.tail is not None
                             else np.inf)

    def _within_radius(self, z, where: str = "a point at |z|") -> None:
        """Refuse points ``z`` past the trust radius, naming ``where`` the
        farthest lies.  Real points are read by their least and greatest,
        so no array the size of ``z`` is formed."""
        z = np.asarray(z)
        reach = (np.max(np.abs(z), initial=0.0) if np.iscomplexobj(z)
                 else max(-np.min(z, initial=0.0), np.max(z, initial=0.0)))
        if reach > self.trust_radius:
            raise TrustRadiusError(
                f"{where} = {reach:g} lies past the trust radius (K+1)/4 = "
                f"{self.trust_radius:g} of the far-tail series; enlarge the "
                "window")

    # -- S and D ------------------------------------------------------------

    def value(self, z):
        """Product value S(z); accepts scalars or arrays."""
        scalar = np.isscalar(z) or np.asarray(z).ndim == 0
        vals = self._core.value(z)
        self._within_radius(z)
        return complex(vals[0]) if scalar else vals.reshape(np.shape(z))

    def divided(self, z):
        """D = S(z)/(z - lambda_n) and n, the array offset of the node
        nearest z (ties to the lowest), shaped like ``z``; on a node D is
        S'(lambda_n)."""
        D, n = self._core.divided(z)
        self._within_radius(z)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(D[0]), int(n[0])
        return D.reshape(np.shape(z)), n.reshape(np.shape(z))

    # -- S' at nodes --------------------------------------------------------

    def node_derivative(self, k: int) -> complex:
        """Derivative of the product at node k."""
        return self.node_derivatives([k])[0]

    def node_derivatives(self, ks) -> np.ndarray:
        """S'(lambda_k) for node indices ``ks``: the divided product at the
        nodes themselves.  Refuses nodes past the trust radius, where the
        truncated product is not the limit's."""
        ks = np.asarray(ks).ravel()
        lam = self.seq.positions[self.seq.array_offset(ks)]
        if lam.size:
            far = np.argmax(np.abs(lam))
            self._within_radius(lam[far], f"node {ks[far]} at |lambda|")
        vals = self._core.divided(lam)[0]
        if np.any(vals == 0):
            raise ValueError("vanishing node derivative: multiple zero")
        return vals

    def node_derivative_logabs(self, ks) -> np.ndarray:
        """log|derivative| for index arrays."""
        return np.log(np.abs(self.node_derivatives(ks)))

    # -- F ------------------------------------------------------------------

    def weight(self, x):
        """F(x) = |S(x)|/dist(x, Lambda) = |D(x)|, from one ``logabs``
        pass; finite and positive at real nodes, where it is |S'|."""
        scalar = np.isscalar(x) or np.asarray(x).ndim == 0
        xx = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        F = np.exp(self._core.logabs(xx))
        self._within_radius(xx)
        return float(F[0]) if scalar else F.reshape(np.shape(x))

    def value_weight_blocks(self, x):
        """S(x) and F(x) at real points, one block of rows at a time:
        yields (S, F) for consecutive blocks of ``x`` (flattened), each
        bit-identical to ``value(x)`` and ``weight(x)`` on the whole
        batch.  The core routes the batch once, as those two would, and
        takes both from one pass (see
        :meth:`pwinterp._engine.ProductCore.value_logabs_blocks`), so
        memory stays O(block) on every path.
        """
        xx = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        for S, L in self._core.value_logabs_blocks(xx):
            yield S, np.exp(L)
        self._within_radius(xx)

    def power_sums(self, p: float, h: float, n_half: int, block: int):
        """:func:`sampled_power_sums` for ``weight(x) ** p`` on a step h
        that is a power of two, to rounding on the grid kernel, with no
        array the size of the grid: a grid past the trust radius is refused
        unevaluated, and :meth:`pwinterp._engine.ProductCore.grid_logabs`'
        pieces of log F are summed as they come."""
        self._within_radius(n_half * h, "the grid's end at |x|")
        return _run_sums((np.exp(L, out=L) ** p for L in
                          self._core.grid_logabs(h, n_half, block)), p, block)


def _run_sums(pieces, p: float, block: int):
    """Sums of v, refused unless finite and positive, and of its dual
    v^(-1/(p-1)) over each run of ``block`` points: each row summed, then
    each run's rows, of 2-D pieces of v in grid order whose rows lie each
    within one run and, but for the last, share one width."""
    sums, width = [], None
    for v in pieces:
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("weight sampler must return finite positive "
                             "values")
        width = width or v.shape[1]
        sums.append((v.sum(axis=1), (v ** (-1.0 / (p - 1.0))).sum(axis=1)))
    sums = np.concatenate(sums, axis=1)
    return np.add.reduceat(sums, np.arange(0, sums.shape[1], block // width),
                           axis=1)


def sampled_power_sums(v_sampler, p: float, h: float, n_half: int,
                       block: int):
    """Sums of v = v_sampler(x) and of its dual v^(-1/(p-1)) over each run
    of ``block`` points of the midpoint grid x_i = (i + 1/2) h, i =
    -n_half..n_half - 1; the last run may be shorter.  Returns the two
    arrays of run sums.  The sampler, a vectorized map to finite positive
    values, sees the whole grid in one call.
    """
    x = (np.arange(2 * n_half) - n_half + 0.5) * h
    v = np.asarray(v_sampler(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError("weight sampler must return finite positive values")
    runs = np.split(v, [v.size - v.size % block])  # whole runs, the rest
    return _run_sums((r.reshape(-1, min(block, r.size)) for r in runs
                      if r.size), p, block)


def build_generating_function(seq, compensate: bool = True,
                              separation: float | None = None
                              ) -> GeneratingFunction:
    """Build the product evaluator for a node sequence.

    The build records ``convergence_probe`` (K >= 4): max |S_(K/2)/S_K - 1|
    at eight points, from the two windows' tails and :func:`_outer_logs`.
    The points reach at most the half window's trust radius (K//2 + 1)/4,
    past which its tail is dropped.

    Parameters
    ----------
    seq : NodeSequence
        Nonempty sequence with positive separation.
    compensate : bool
        Add the far-tail series of the window's own continuation (see
        :mod:`pwinterp._tails`); windows without one get the bare product
        either way.  Off, S is the bare window product.
    separation : float, optional
        The window's separation, when the caller has computed it already.
    """
    if separation is None:
        separation = _nodes.separation(seq) if len(seq) > 1 else np.inf
    if separation <= 0.0:
        raise ValueError("zero separation: duplicate node positions")
    core = ProductCore(seq, build_tail(seq) if compensate else None)
    conv, K = None, seq.half_width
    if K >= 4:
        reach = min(_PROBE_POINTS[-1], (K // 2 + 1) / 4)
        pts = _PROBE_POINTS * reach / _PROBE_POINTS[-1]
        half = build_tail(seq.restrict(K // 2)) if compensate else None
        T = [0.0 if t is None else t.log_tail(pts) for t in (half, core.tail)]
        outer = seq.positions[np.abs(seq.indices) > K // 2]
        # inf at a point on a node of the outer half, with no warning
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = T[0] - T[1] - _outer_logs(outer, pts)
            conv = float(np.max(np.abs(np.expm1(log_ratio))))
    return GeneratingFunction(seq, core, conv, separation)


def _outer_logs(lam, z):
    """sum_k log(1 - z/lambda_k), log z for a node at 0: directly where
    |lambda| < 2 max|z|, else -sum_P z^P/P sum_k lambda_k^-P to n terms,
    N r^(n+1)/((n+1)(1 - r)) < 1e-20 for N nodes, r = max|z|/min|lambda|."""
    near = np.abs(lam) < 2 * np.max(np.abs(z))
    out = np.log(np.where(lam[near] == 0, z[:, None],
                          1 - z[:, None] / lam[near])).sum(axis=1)
    inv = 1.0 / lam[~near]
    r = np.max(np.abs(z)) * np.max(np.abs(inv), initial=0.0)
    n = math.ceil(math.log(5e-21 / inv.size, r)) if r else 0  # r <= 1/2
    power = inv
    for P in range(1, n + 1):
        out -= np.sum(power) * z ** P / P
        power = power * inv
    return out


@dataclass(frozen=True)
class WeightExponentFit:
    slope: float
    r2: float


def _linear_fit(t, y):
    """Least-squares slope, intercept and r2 of y against t.  The fit runs
    on y times an exact power of two that brings max|y| into [1/2, 1), so
    the squares of quotients near 1e216 stay finite; the coefficients are
    scaled back exactly, and r2 does not depend on the scale.  r2 is
    clamped to [0, 1]: on levels flat to rounding, ss_res and ss_tot are
    both rounding noise and their ratio can fall anywhere."""
    _, e = math.frexp(float(np.max(np.abs(y))))
    y = np.ldexp(y, -e)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - pred) ** 2))
    r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0) if ss_tot > 0 else 1.0
    return math.ldexp(float(coef[0]), e), math.ldexp(float(coef[1]), e), r2


_FIT_POINTS = 25    # geometric sample points of the exponent fit
_FIT_WINDOW = 32    # midpoint samples averaged over each one's unit window


def fit_weight_exponent(gf: GeneratingFunction, x_min: float,
                        x_max: float) -> WeightExponentFit:
    """Least-squares slope of log(mean F) against log x.

    F is averaged over one unit-length window around each sample point to
    quench the dist(x, Lambda) oscillation before fitting.
    """
    K = gf.seq.half_width
    if not (1.0 <= x_min < x_max <= K / 10.0):
        raise ValueError("fit range must satisfy 1 <= x_min < x_max <= K/10")
    xs = np.geomspace(x_min, x_max, _FIT_POINTS)
    sub = (np.arange(_FIT_WINDOW) + 0.5) / _FIT_WINDOW - 0.5
    pts = (xs[:, None] + sub[None, :]).ravel()
    F = gf.weight(pts).reshape(_FIT_POINTS, _FIT_WINDOW)
    fbar = F.mean(axis=1)
    if np.ptp(fbar) == 0.0:
        raise ValueError("degenerate fit: averaged weight is constant")
    slope, _, r2 = _linear_fit(np.log(xs), np.log(fbar))
    return WeightExponentFit(slope=slope, r2=r2)


@dataclass(frozen=True)
class RatioStats:
    min: float
    max: float
    spread: float


def comparability_stats(gf: GeneratingFunction, anchors,
                        x_grid) -> RatioStats:
    """Interpolated-derivative to weight ratio over a grid.

    For x bracketed by consecutive anchors g_j, g_{j+1} the ratio is

        rho(x) = |S'(g_j)|^a |S'(g_{j+1})|^(1-a) / F(x),

    with a = x_{j+1}/(x_j + x_{j+1}), x_j = x - Re g_j and
    x_{j+1} = Re g_{j+1} - x.  Uniform comparability shows as a bounded
    spread max/min over the grid.
    """
    avals = np.asarray(getattr(anchors, "anchors", anchors),
                       dtype=np.complex128)
    kidx = getattr(anchors, "node_indices", None)
    if kidx is None:
        kidx = gf.seq.indices[nearest_nodes(gf.seq.positions, avals)[1]]
    kidx = np.asarray(kidx)
    order = np.argsort(avals.real, kind="stable")
    avals = avals[order]
    ks = kidx[order]
    re = avals.real
    x = np.asarray(x_grid, dtype=float).ravel()
    if np.any(x < re[0]) or np.any(x > re[-1]):
        raise ValueError("grid point outside the anchor span")
    j = np.clip(np.searchsorted(re, x, side="right") - 1, 0, re.size - 2)
    xj = x - re[j]
    xj1 = re[j + 1] - x
    alpha = xj1 / (xj + xj1)
    logd = gf.node_derivative_logabs(ks)
    F = gf.weight(x)
    log_rho = alpha * logd[j] + (1 - alpha) * logd[j + 1] - np.log(F)
    rho = np.exp(log_rho)
    lo, hi = float(rho.min()), float(rho.max())
    return RatioStats(min=lo, max=hi, spread=hi / lo)
