"""Interpolation-grade criteria and the three-valued verdict engine.

The battery: separation, the Carleson-type pair sum, relative density,
window convergence, and the Muckenhoupt condition for the weight F^p in
both its discrete (index-block) and continuous (interval) forms.  A finite
computation can neither prove a supremum finite nor infinite, so the
verdict is PASS / FAIL / INCONCLUSIVE: FAIL only on clean divergence
evidence, PASS only when the A_p quotients stabilize under window doubling.
The Carleson sum is reported, not gated: the paper's theorem needs only
separation, density and F^p in A_p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nodes as _nodes
from .genfn import (GeneratingFunction, TrustRadiusError, as_exponents,
                    build_generating_function, _linear_fit,
                    sampled_power_sums)

__all__ = [
    "WeightSequence",
    "IntervalFamily",
    "AnchorSelection",
    "CarlesonResult",
    "carleson_sum",
    "DiscreteApResult",
    "discrete_ap",
    "ContinuousApResult",
    "continuous_ap",
    "SelectionError",
    "BracketingError",
    "QuadratureStepError",
    "TrustRadiusError",
    "select_subsequence",
    "select_probe_points",
    "Thresholds",
    "CriteriaReport",
    "full_verdict",
]


class SelectionError(ValueError):
    """A selection square contains no node."""


class BracketingError(RuntimeError):
    """Circle bisection could not bracket the target modulus."""


class QuadratureStepError(ValueError):
    """An interval of the sweep is shorter than the quadrature step."""


@dataclass(frozen=True)
class WeightSequence:
    """Strictly positive finite weights indexed like a subsequence."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("weights must form a nonempty vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("weights must be finite and positive")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.values.size)


def _as_weights(w) -> np.ndarray:
    if isinstance(w, WeightSequence):
        return w.values
    return WeightSequence(np.asarray(w, dtype=float)).values


@dataclass(frozen=True)
class IntervalFamily:
    """Dyadic interval sweep inside [-x_max, x_max].

    Level m holds intervals of length 2**m whose centers advance by half
    the length; the two origin-anchored intervals [0, 2**m] and
    [-2**m, 0] are always included, since power-type weights are extremal
    there.
    """

    x_max: float
    m_min: int = 5
    m_max: int = 13

    def __post_init__(self):
        if self.m_min > self.m_max:
            raise ValueError("m_min must not exceed m_max")
        if 2.0 ** self.m_max > self.x_max:
            raise ValueError("largest interval exceeds x_max")


@dataclass(frozen=True)
class AnchorSelection:
    """A relatively dense subsequence with optional circle probe points.

    ``anchors[i]`` is the node chosen in the square of half-side r centered
    at 4*r*j_values[i]; ``probes[i]``, when set, lies on the circle of
    radius eps around it.
    """

    j_values: np.ndarray
    node_indices: np.ndarray
    anchors: np.ndarray
    r: float
    eps: float | None = None
    probes: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Carleson-type pair sum


@dataclass(frozen=True)
class CarlesonResult:
    sup: float
    argmax_index: int


# Real windows sum their rows by a one-level multipole split (Greengard and
# Rokhlin, J. Comput. Phys. 73, 1987).  The sorted positions are cut into
# blocks of _CAR_BLOCK nodes, block b with centre c_b and half-extent h_b.
# For |t| <= h_b and w = xi_j - c_b with |w| > _CAR_RATIO h_b,
#     1/(w - t)^2 = sum_a (a+1) t^a / w^(a+2),
# so a far block enters through its power moments up to _CAR_ORDER; each
# term is at most (a+1) 4^-a of the block's leading term, and the ones
# past a = 30 add below 1e-17 relative.  Near blocks are summed directly.
# The inequality is strict, so a one-node block (h_b = 0) is near its row.
_CAR_BLOCK = 256
_CAR_RATIO = 4.0
_CAR_ORDER = 30
# (row, block) pairs per pass, about 2 MiB of float64 per array, so memory
# does not grow with the rows; (row, node) pairs per pass of the near field,
# 0.5 MiB, which stays in cache
_CAR_PAIRS = 1 << 18
_CAR_NEAR = 1 << 16


def carleson_sum(seq, max_probes: int = 512,
                 separation: float | None = None) -> CarlesonResult:
    """sup_j of sum_k (1+|eta_j|)(1+|eta_k|)/|lambda_j-lambda_k|^2.

    Rows j are probed over the inner half of the window (subsampled past
    ``max_probes``, ends and center always included).

    On a real window the rows sum_{k != j} 1/(xi_j - xi_k)^2 come from a
    near/far split.  The sorted positions form blocks of 256 nodes, each
    with centre c (the midpoint of its extent) and half-extent h.  A block
    with h < |xi_j - c| / 4 is far from row j and enters through its power
    moments: sum_{a <= 30} (a+1) M_a / w^(a+2), with w = xi_j - c and
    M_a = sum_k (xi_k - c)^a, one Horner pass per pass of rows.  The
    series' remainder, sum_{a > 30} (a+1) 4^-a, is below 1e-17 of the
    block's sum.  Every other block, the row's own among them, is summed
    directly with the row's node left out, so gappy or loaded windows stay
    exact: a wide block is simply near.  Complex windows sum every pair
    directly.

    ``separation``, when given, stands in for the window's separation in
    the check for coincident nodes; any lower bound of it that is still
    positive will do, such as the separation of a window that contains
    this one.
    """
    if len(seq) < 2:
        raise ValueError("need at least two nodes")
    if separation is None:
        separation = _nodes.separation(seq)
    if separation <= 0:
        raise ValueError("coincident nodes")
    pos = seq.positions
    n = pos.size
    inner = np.flatnonzero(
        (np.arange(n) >= n // 4) & (np.arange(n) < n - n // 4)
    )
    if inner.size > max_probes:
        take = np.sort(np.concatenate([
            inner[:: max(1, inner.size // max_probes)],
            [inner[0], inner[inner.size // 2], inner[-1]],
        ]))
        # sorted and compared: np.unique would import numpy.ma
        take = take[np.diff(take, prepend=-1) != 0]
    else:
        take = inner
    if seq.is_real:
        sums = _real_row_sums(pos.real, take)
    else:
        sums = _direct_row_sums(pos, take)
    i = int(np.argmax(sums))
    return CarlesonResult(sup=float(sums[i]),
                          argmax_index=int(seq.indices[take[i]]))


def _direct_row_sums(pos, rows):
    """Rows of the Carleson sum over every pair, for complex windows."""
    facs = 1.0 + np.abs(pos.imag)
    out = np.empty(rows.size)
    chunk = max(1, _CAR_PAIRS // pos.size)
    for c0 in range(0, rows.size, chunk):
        r = rows[c0:c0 + chunk]
        # squared distances in place
        d2 = np.subtract.outer(pos.real[r], pos.real)
        d2 *= d2
        dy = np.subtract.outer(pos.imag[r], pos.imag)
        dy *= dy
        d2 += dy
        d2[np.arange(r.size), r] = np.inf
        np.divide(facs, d2, out=d2)
        out[c0:c0 + chunk] = facs[r] * np.sum(d2, axis=1)
    return out


def _real_row_sums(xi, rows):
    """sum_{k != j} 1/(xi_j - xi_k)^2 for j in ``rows``: far blocks by
    their moments, near blocks directly (see the constants above)."""
    n = xi.size
    B = _CAR_BLOCK
    nb = -(-n // B)
    order = np.argsort(xi, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # sorted positions as (block, slot); padding at +inf adds 0 directly
    xs = np.full(nb * B, np.inf)
    xs[:n] = xi[order]
    xs = xs.reshape(nb, B)
    first = xs[:, 0]
    last = xs.ravel()[np.minimum(np.arange(nb) * B + B, n) - 1]
    c = 0.5 * (first + last)
    h = 0.5 * (last - first)
    # scaled moments sum_k ((xi_k - c)/h)^a, each times (a + 1)
    real = np.isfinite(xs)
    t = np.where(real, (xs - c[:, None]) / np.where(h > 0, h, 1.0)[:, None],
                 0.0)
    power = real.astype(float)
    coef = np.empty((_CAR_ORDER + 1, nb))
    for a in range(_CAR_ORDER + 1):
        power.sum(axis=1, out=coef[a])
        power *= t
    coef *= np.arange(1, _CAR_ORDER + 2)[:, None]
    out = np.empty(rows.size)
    step = max(1, _CAR_PAIRS // nb)
    for c0 in range(0, rows.size, step):
        r = rows[c0:c0 + step]
        x = xi[r]
        w = np.subtract.outer(x, c)
        far = _CAR_RATIO * h < np.abs(w)
        winv = np.divide(1.0, w, out=np.zeros_like(w), where=far)
        ratio = h * winv
        acc = np.empty_like(w)
        acc[:] = coef[_CAR_ORDER]
        for a in range(_CAR_ORDER - 1, -1, -1):
            acc *= ratio
            acc += coef[a]
        acc *= winv
        acc *= winv
        sums = acc.sum(axis=1)
        # near (row, block) pairs, a bounded number of nodes at a time
        pr, pb = np.nonzero(~far)
        own, slot = np.divmod(rank[r], B)
        per = _CAR_NEAR // B
        for p0 in range(0, pr.size, per):
            qr, qb = pr[p0:p0 + per], pb[p0:p0 + per]
            d2 = np.subtract(x[qr, None], xs[qb])
            d2 *= d2
            mine = np.flatnonzero(qb == own[qr])
            d2[mine, slot[qr[mine]]] = np.inf
            np.divide(1.0, d2, out=d2)
            sums += np.bincount(qr, weights=d2.sum(axis=1),
                                minlength=r.size)
        out[c0:c0 + step] = sums
    return out


# ---------------------------------------------------------------------------
# Discrete Muckenhoupt condition


@dataclass(frozen=True)
class DiscreteApResult:
    sup: float
    slope: float       # growth of the per-length max against log n
    r2: float
    lengths: np.ndarray
    level_max: np.ndarray


_DISCRETE_FIT_FROM = 8  # shortest block length in the trend fit


def discrete_ap(w, p, n_max: int) -> DiscreteApResult:
    """Two-average quotient of a weight sequence over index blocks.

    Computes sup over offsets k and lengths n <= n_max of

        (mean of w over the block) (mean of w^(-1/(p-1)))^(p-1)

    and regresses the per-length maximum against log n; a positive trend is
    the unboundedness detector.
    """
    p = as_exponents(p)
    w = _as_weights(w)
    if w.size < 2 * n_max:
        raise ValueError("window length must be at least 2 n_max")
    dual = w ** (-1.0 / (p.p - 1.0))
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cd = np.concatenate([[0.0], np.cumsum(dual)])
    lengths = np.arange(1, n_max + 1)
    level_max = np.empty(lengths.size)
    sup = -np.inf
    for i, n in enumerate(lengths):
        aw = (cw[n:] - cw[:-n]) / n
        ad = (cd[n:] - cd[:-n]) / n
        q = aw * ad ** (p.p - 1.0)
        level_max[i] = float(q.max())
        sup = max(sup, level_max[i])
    keep = lengths >= _DISCRETE_FIT_FROM
    if np.count_nonzero(keep) >= 3:
        slope, _, r2 = _linear_fit(np.log(lengths[keep]), level_max[keep])
    else:
        slope, r2 = 0.0, 1.0
    return DiscreteApResult(sup=float(sup), slope=slope, r2=r2,
                            lengths=lengths, level_max=level_max)


# ---------------------------------------------------------------------------
# Continuous Muckenhoupt condition


@dataclass(frozen=True)
class ContinuousApResult:
    sup: float
    lengths: np.ndarray
    level_max: np.ndarray
    level_argmax: np.ndarray
    growth_slope: float        # per-level max against log(1 + length)
    growth_r2: float
    growth_persistence: float  # late increment ratio; ~1 for log divergence
    last_rel_change: float
    ring_ratio: float          # min dyadic ring-mass ratio of v and dual


# Relative gap within which quotients tie for a maximum.  Rounding spreads
# the copies of one interval on a periodic weight by up to 8.7e-11 on
# alternating:0.2 and 5.3e-10 on alternating:0.45 (p = 4), while distinct
# intervals' quotients on non-periodic windows stay at least 4.0e-4 apart
# (signed:0.05; 1.6e-3 on random:0.35): all at K = 2^15.  1e-8 lies between.
_TIE_REL = 1e-8


def _max_centre(q, centres) -> float:
    """The centre of a level's largest quotient ``q``.  A tie to rounding,
    as on periodic weights, goes to the centre nearest 0, then to the
    lower one."""
    tied = np.flatnonzero(q >= q.max() * (1.0 - _TIE_REL))
    return float(centres[tied[np.lexsort((centres[tied],
                                          np.abs(centres[tied])))[0]]])


def continuous_ap(v_sampler, p, fam: IntervalFamily,
                  quad_step: float) -> ContinuousApResult:
    """Interval quotients of a weight v by composite-midpoint quadrature.

    ``v_sampler`` is a vectorized map x -> v(x) > 0, or a
    :class:`GeneratingFunction`, whose weight F^p is then v (the weight
    battery's case).  Every reported quotient is a lower bound for the true
    supremum; the growth statistics over dyadic lengths are the divergence
    detectors.

    The quadrature grid is the midpoint grid of step h = 2^-s <=
    ``quad_step`` on [-x_max, x_max].  Each level's intervals start on
    multiples of its block, the gcd of its length and stride in points,
    and every level's block and every dyadic ring edge is a multiple of
    one finest block.  The grid is therefore read once, into fresh sums
    of v and of its dual over the finest blocks (no differences of one
    global prefix sum, which weights of huge dynamic range would cancel):
    a level's blocks, and the rings, are sums of those.  A generating
    function gives its sums from :meth:`GeneratingFunction.power_sums`,
    which forms no array the size of the grid, whatever ``x_max``; a plain
    sampler sees the whole grid in one call.  A level whose intervals are
    shorter than h holds no sample and is refused with a
    :class:`QuadratureStepError`.
    """
    p = as_exponents(p)
    s = int(np.ceil(np.log2(1.0 / quad_step)))
    h = 2.0 ** (-s)
    n_half = int(round(fam.x_max / h))
    x0 = (0.5 - n_half) * h  # the first grid point
    origin = n_half  # sample index of x = 0

    levels = np.arange(fam.m_min, fam.m_max + 1)
    lengths = 2.0 ** levels
    plan = []  # points per interval, stride and block of each level
    for m in levels:
        nL = int(round(2.0 ** m / h))
        if nL == 0:
            raise QuadratureStepError(
                f"level m = {m}: intervals of length 2^{m} are shorter than "
                f"the quadrature step h = 2^{-s} and hold no sample")
        step = max(1, nL // 2)
        plan.append((nL, step, math.gcd(step, nL)))
    top = int(np.floor(np.log2(fam.x_max)))
    ring_edges = [origin + sign * int(round(2.0 ** e / h))
                  for e in range(top - 3, top + 1) for sign in (1, -1)]
    block = math.gcd(*(g for _, _, g in plan), *ring_edges)
    if isinstance(v_sampler, GeneratingFunction):
        sums = v_sampler.power_sums(p.p, h, n_half, block)
    else:
        sums = sampled_power_sums(v_sampler, p.p, h, n_half, block)
    bv, bd = sums * h

    level_max = np.empty(levels.size)
    level_argmax = np.empty(levels.size)
    sup = -np.inf
    for i, (m, (nL, step, g)) in enumerate(zip(levels, plan)):
        L = 2.0 ** m
        starts = np.arange(0, 2 * n_half - nL + 1, step)
        starts = np.sort(np.concatenate(
            [starts, [origin, origin - nL, 2 * n_half - nL]])) // g * g
        starts = starts[np.diff(starts, prepend=-1) != 0]  # all >= 0
        # the level's blocks, each a run of finest blocks
        runs = np.arange(0, bv.size, g // block)
        lv = np.add.reduceat(bv, runs)
        ld = np.add.reduceat(bd, runs)
        k = nL // g
        rows = starts // g
        aw = np.zeros(starts.size)
        ad = np.zeros(starts.size)
        for off in range(k):
            aw += lv[rows + off]
            ad += ld[rows + off]
        aw /= L
        ad /= L
        q = aw * ad ** (p.p - 1.0)
        if np.any(q < 1.0 - 1e-9):
            raise AssertionError("interval quotient below 1: quadrature bug")
        level_max[i] = float(q.max())
        level_argmax[i] = _max_centre(q, x0 - h / 2 + starts * h + L / 2)
        sup = max(sup, level_max[i])

    if levels.size >= 2:
        slope, _, r2 = _linear_fit(np.log1p(lengths), level_max)
        last_rel = float(abs(level_max[-1] - level_max[-2])
                         / max(abs(level_max[-1]), 1e-300))
    else:
        slope, r2, last_rel = 0.0, 0.0, np.inf
    incr = np.diff(level_max)
    persistence = 0.0
    if incr.size >= 3 and np.all(incr[-3:] > 0):
        persistence = float(
            (incr[-1] / incr[-2] + incr[-2] / incr[-3]) / 2.0
        )

    # Dyadic ring masses: integrand ~ |x|^a gives ring ratio 2^(a+1), so a
    # ratio pinned at 1 puts v or its dual at the non-integrable boundary
    # power of the Muckenhoupt cone.
    ring_ratios = []
    for m in range(top - 3, top - 1):
        for arr in (bv, bd):
            def ring(mm):
                i0 = origin + int(round(2.0 ** mm / h))
                i1 = origin + int(round(2.0 ** (mm + 1) / h))
                j0 = origin - int(round(2.0 ** (mm + 1) / h))
                j1 = origin - int(round(2.0 ** mm / h))
                return float(np.sum(arr[i0 // block:i1 // block])
                             + np.sum(arr[j0 // block:j1 // block]))
            ring_ratios.append(ring(m + 1) / ring(m))
    ratio = float(np.min(np.asarray(ring_ratios).reshape(-1, 2).mean(axis=0)))

    return ContinuousApResult(
        sup=float(sup), lengths=lengths, level_max=level_max,
        level_argmax=level_argmax, growth_slope=slope, growth_r2=r2,
        growth_persistence=persistence, last_rel_change=last_rel,
        ring_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# Subsequence selection


def select_subsequence(seq, r: float, j_max: int | None = None
                       ) -> AnchorSelection:
    """Pick one node from each square Q(4 r j, r) inside the window.

    The node closest to the square's center is chosen; an empty square
    raises :class:`SelectionError` (density violated at scale r).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    lo, hi = seq.real_span()
    jm = int(np.floor((min(hi, -lo) - r) / (4.0 * r)))
    if j_max is not None:
        jm = min(jm, int(j_max))
    if jm < 0:
        raise SelectionError("window too small for any selection square")
    xi = seq.positions.real
    eta = np.abs(seq.positions.imag)
    order = np.argsort(xi, kind="stable")
    xs = xi[order]
    js = np.arange(-jm, jm + 1)
    centers = 4.0 * r * js
    picks = np.empty(js.size, dtype=np.int64)
    for i, c in enumerate(centers):
        a = np.searchsorted(xs, c - r, side="left")
        b = np.searchsorted(xs, c + r, side="right")
        cand = order[a:b]
        cand = cand[eta[cand] <= r]
        if cand.size == 0:
            raise SelectionError(
                f"square at center {c:g} (half-side {r:g}) contains no node"
            )
        picks[i] = cand[np.argmin(np.abs(seq.positions[cand] - c))]
    return AnchorSelection(
        j_values=js, node_indices=seq.indices[picks].copy(),
        anchors=seq.positions[picks].copy(), r=float(r),
    )


# angles scanned around each probe circle, and bisection steps after it
_PROBE_SCAN = 64
_PROBE_BISECT = 48


def select_probe_points(gf: GeneratingFunction, sel: AnchorSelection,
                        eps: float | None = None) -> AnchorSelection:
    """Place one probe on each circle |z - anchor| = eps where

        |S(z) / (z - anchor)| = |S'(anchor)|.

    With eps at most a tenth of the separation the anchor is the nearest
    node of every circle point, so the circle modulus is that of the
    divided product D.  It brackets |S'| between its min and max, so a
    root in arc angle exists; it is located by scanning and bisection.
    Failure to bracket reports the circle's min and max.
    """
    cap = gf.separation / 10.0
    eps_eff = cap if eps is None else min(float(eps), cap)
    anchors = sel.anchors
    m = anchors.size
    target = np.abs(gf.node_derivatives(sel.node_indices))
    theta = np.linspace(0.0, 2.0 * np.pi, _PROBE_SCAN, endpoint=False)

    def circle_mod(th):
        return np.abs(gf.divided(anchors + eps_eff * np.exp(1j * th))[0])

    mods = circle_mod(theta[:, None])   # the whole scan, (_PROBE_SCAN, m)
    diffs = mods - target[None, :]
    lo_th = np.empty(m)
    hi_th = np.empty(m)
    found = np.zeros(m, dtype=bool)
    for i in range(_PROBE_SCAN):
        nxt = (i + 1) % _PROBE_SCAN
        cross = ~found & (diffs[i] <= 0) & (diffs[nxt] >= 0)
        lo_th[cross] = theta[i]
        hi_th[cross] = theta[i] + 2 * np.pi / _PROBE_SCAN
        found |= cross
        cross = ~found & (diffs[i] >= 0) & (diffs[nxt] <= 0)
        lo_th[cross] = theta[i] + 2 * np.pi / _PROBE_SCAN
        hi_th[cross] = theta[i]
        found |= cross
    if not np.all(found):
        bad = int(np.flatnonzero(~found)[0])
        raise BracketingError(
            f"no modulus crossing on circle around anchor {anchors[bad]:g}: "
            f"circle range [{mods[:, bad].min():g}, {mods[:, bad].max():g}], "
            f"target {target[bad]:g}"
        )
    for _ in range(_PROBE_BISECT):
        mid = 0.5 * (lo_th + hi_th)
        val = circle_mod(mid) - target
        neg = val <= 0
        lo_th[neg] = mid[neg]
        hi_th[~neg] = mid[~neg]
    th = 0.5 * (lo_th + hi_th)
    probes = anchors + eps_eff * np.exp(1j * th)
    return AnchorSelection(
        j_values=sel.j_values, node_indices=sel.node_indices,
        anchors=anchors, r=sel.r, eps=eps_eff, probes=probes,
    )


# ---------------------------------------------------------------------------
# Verdict engine


@dataclass(frozen=True)
class Thresholds:
    """Decision constants for the three-valued verdict (one block so runs
    are reproducible from the report alone)."""

    slope_factor: float = 0.05        # of mean quotient, per e-fold
    r2_min: float = 0.9
    persistence_min: float = 0.93     # late-increment ratio for real growth
    ring_band: float = 0.07           # |ring ratio - 1| <= band at boundary
    stabilize_rel: float = 0.05       # per-doubling change for PASS
    convergence_tol: float = 1e-3


@dataclass(frozen=True)
class CriteriaReport:
    separation: float
    carleson_sup: float
    density_r0: float | None
    convergence_probe: float
    ap_quotients: tuple            # (length, max quotient, center) rows
    ap_sup: float
    growth_slope: float
    growth_r2: float
    verdict: str
    failed_checks: tuple = ()
    ring_ratio: float = float("nan")


_DENSITY_CANDIDATES = (0.5, 0.6, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)
_M_MIN = 5  # the sweep's shortest intervals, 2^5, unless x_max is shorter


def default_x_max(K: int) -> float:
    """The sweep's x_max when none is given, refused below K = 64."""
    if K < 64:
        raise ValueError(f"K = {K} is too small for the default x_max")
    return 2.0 ** min(13, int(np.floor(np.log2(K / 4))))


def full_verdict(seq, p, gf: GeneratingFunction | None = None,
                 x_max: float | None = None,
                 quad_step: float | None = None) -> CriteriaReport:
    """Run the full battery on a node sequence and fuse the evidence.

    FAIL needs an explicit divergence witness: zero separation, no density
    scale, a statistically clean quotient growth trend, or a ring ratio at
    the boundary power.  PASS needs the theorem's conditions alone: a
    density scale, the largest A_p quotient stable under doubling, and
    the window's convergence probe within tolerance.  Anything else is
    INCONCLUSIVE.  ``carleson_sup`` is reported and gates nothing: the
    theorem asks for no Carleson condition beyond separation.  An
    ``x_max`` that is not positive and finite raises ``ValueError``; one
    past the trust radius of ``gf`` raises its :class:`TrustRadiusError`
    before the Carleson sum runs.
    """
    if x_max is not None and not 0.0 < x_max < np.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max:g}")
    p = as_exponents(p)
    th = Thresholds()
    failed = []

    sep = (gf.separation if gf is not None and gf.seq is seq
           else _nodes.separation(seq))
    if sep <= 0:
        return CriteriaReport(
            separation=sep, carleson_sup=np.inf, density_r0=None,
            convergence_probe=np.inf, ap_quotients=(), ap_sup=np.inf,
            growth_slope=np.nan, growth_r2=np.nan, verdict="FAIL",
            failed_checks=("separation",),
        )

    if gf is None:
        gf = build_generating_function(seq, separation=sep)
    if x_max is None:
        x_max = default_x_max(seq.half_width)

    # the sweep goes first: its power sums refuse an x_max past the trust
    # radius before the Carleson sum is paid for
    if quad_step is None:
        quad_step = sep / 8.0
    m_max = int(np.floor(np.log2(x_max)))
    fam = IntervalFamily(x_max=x_max, m_min=min(_M_MIN, m_max), m_max=m_max)
    ap = continuous_ap(gf, p, fam, quad_step)

    # reported, not gated: the theorem asks for no Carleson condition
    # beyond separation
    car = carleson_sum(seq, separation=sep)

    r0 = _nodes.relative_density(seq, _DENSITY_CANDIDATES)
    if r0 is None:
        failed.append("relative_density")

    growth_fires = (
        ap.growth_slope > th.slope_factor * float(np.mean(ap.level_max))
        and ap.growth_r2 >= th.r2_min
        and ap.growth_persistence >= th.persistence_min
    )
    if growth_fires:
        failed.append("ap_growth")
    if abs(ap.ring_ratio - 1.0) <= th.ring_band:
        failed.append("ap_boundary_power")

    conv = gf.convergence_probe if gf.convergence_probe is not None else np.nan

    rows = tuple(
        (float(L), float(q), float(c))
        for L, q, c in zip(ap.lengths, ap.level_max, ap.level_argmax)
    )
    if failed:
        verdict = "FAIL"
    else:
        # a missing density scale has failed above
        stable = (
            ap.last_rel_change < th.stabilize_rel
            and (np.isnan(conv) or conv <= th.convergence_tol)
        )
        verdict = "PASS" if stable else "INCONCLUSIVE"
    return CriteriaReport(
        separation=float(sep), carleson_sup=float(car.sup),
        density_r0=r0, convergence_probe=float(conv),
        ap_quotients=rows, ap_sup=float(ap.sup),
        growth_slope=float(ap.growth_slope), growth_r2=float(ap.growth_r2),
        verdict=verdict, failed_checks=tuple(failed),
        ring_ratio=float(ap.ring_ratio),
    )
