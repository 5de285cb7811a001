"""Vectorized evaluation of windowed node products.

Three kernels on two paths approximate the symmetric infinite product

    S(z) = prod_k (1 - z/lambda_k)        (factor z for a node at 0):

* ``eval_points``, the pointwise path: the product at arbitrary complex
  arguments.  The nonzero nodes, in order of increasing |lambda|, are
  stored chunk-major, 64 to a chunk, as (64, n_chunks) arrays built on the
  first pointwise call (a symmetric window puts about 32 pairs in a chunk,
  which keeps chunk products in range; one that overflows all the same is
  reported).  A pass over at most 2^18 complex factors (4 MiB) forms all
  factors of its points in one array, multiplies each chunk's 64 in place
  by halving, scales the chunk products to [1, 2) with their exponents
  summed apart, and multiplies them pairwise, rescaling at every level; a
  node at 0 contributes the factor z;
* ``real_blocks``, the bulk path: real points only.  A point in cell
  n = floor(x) multiplies the nodes of its 9-slot band, |k - n| <= 4,
  gathered from a contiguous copy of the positions; the nearest node is
  the band's argmin, which is exact while every node lies within
  ``MAX_SHIFT`` = 1.5 of its index (complex nodes included), and the
  band's other 8 factors, the nearest node's left out, take one log.  Every
  other node enters through one Taylor polynomial per cell, of order 12
  in u = x - (n + 1/2), evaluated by one Horner pass: the mid nodes, 4 <
  |k - n| <= 24, from their true positions, and the far field, |k - n| >
  24, through orders 0 to 5 from FFT convolutions of the moments
  Re(delta^j) with the kernels log|m| and m^-P.  Each series is cut where
  its terms fall below 3e-13 per node at the window's own largest shift D
  (so below 1e-11 per mid node and 1.2e-11 over the far field; see the
  constants).  The transforms (numpy.fft) have the alias-free length, the
  least 5-smooth integer >= cells + 2K, and a moment or kernel that no
  kept term reads is not transformed.  Off the axis the band takes complex
  moduli, the mid nodes complex a, and the far moments Re(delta^j): with m
  and u real, only those enter log|m + u - delta|.  The bulk path gives log|D|,
  D the product with the nearest node left out, and the sign of D on real
  windows, so off the axis it serves ``logabs`` alone.  It is the one
  producer of real-point blocks, log|D|, dist and nearest node for one
  block of points at a time from one cell table for the whole batch's
  cell range.  ``logabs_real`` writes the blocks into the arrays that
  ``value``, ``divided`` and ``logabs`` read; ``value_logabs_blocks``
  turns each into S and log|D| as it comes, so ``pwinterp genfn`` holds
  no array the size of its grid, and so does ``grid_logabs`` (below); and
* ``grid_tiles``, the bulk path's grid kernel: log|D| alone, on the
  dyadic midpoint grid x = n + (j + 1/2)/M, M = 2^s, over whole cells,
  which ``continuous_ap`` sweeps the weight on.  Every cell there holds
  the same offsets u, so a tile of cells by offsets takes its cell
  polynomials as one matrix product, the table's columns times the powers
  of u, and its band as the nine values lambda_(n+j) - (n + 1/2)
  broadcast against u, the product of the nine distances divided by the
  least: no gathers, no argmin, and no per-point nearest node.  Its
  tiles, at most ``_BLOCK`` points each, have one entrance,
  ``grid_logabs``: the one producer of the ``A_p`` sweep's weight grid,
  which takes the grid's description, never an array, and yields log F,
  from the tiles of the whole cells it meets on the bulk path, to
  :meth:`pwinterp.genfn.GeneratingFunction.power_sums`, which sums each
  piece as it comes, whatever the sweep's ``x_max``.

Both paths add the core's far-tail series of :mod:`pwinterp._tails` when
it has one: the closed-form sum of the logs of the factors the window
omits, continued from the window's own outer half, which the tail itself
sets to 0 beyond its trust radius.  Values then approximate the infinite
product rather than the bare window truncation.  The pointwise path adds
it point by point.  The bulk cell table carries it as Taylor coefficients
at the centre of each cell that lies wholly inside the trust radius, with
the normalization sum log|lambda_k| folded in too, so there the table is
the one polynomial for every node outside the band, in the window or
beyond it; the points of other cells take the tail point by point.

Every caller goes through :class:`ProductCore`, whose entry points share
one near-node rule: each point's nearest node n (ties to the lowest
offset) is divided out, once.  :meth:`ProductCore.divided` returns D(z) =
S(z)/(z - lambda_n) with n, which equals S'(lambda_n) on the node;
:meth:`ProductCore.logabs` returns log|D|, which is log F for the weight
F = |S|/dist(z, Lambda); :meth:`ProductCore.value` returns the plain
S(z).  The node derivatives, the weight, the reconstruction series and
the probe circles all read D.  The bulk kernel forms D directly, since
the band's argmin is the node it leaves out, and gets S as log|D| + log
dist in log space with one exp, so S = 0 on a node even where |D|
overflows.  One rule picks the kernel for each call: the bulk path runs
when the core is ``fast_ok`` (the window passes
:func:`pwinterp._tails.lattice_shifts`), every point is real with
floor(x) at least 24 slots inside [-K, K], the batch holds at least 256
points and, for ``value`` and ``divided``, the window is real;
everything else runs pointwise.  Below 256 points one pointwise
evaluation is cheaper than a cold bulk cell table.  Every bulk batch of
``value``, ``divided`` and ``logabs`` goes to ``real_blocks``.
``value_logabs_blocks`` routes its whole batch by the same rule, once;
``grid_logabs`` sends a bulk grid to the grid kernel, any other to
``logabs`` in chunks.  Off the bulk path the nearest node comes from
:func:`nearest_nodes`, a sorted search whose memory is O(points).
"""
from __future__ import annotations

import math

import numpy as np

from ._tails import TailCompensation, lattice_shifts

# Bulk kernel split, in index slots from a point's cell n = floor(x), with
# u = x - (n + 1/2) in [-1/2, 1/2) and D = max|delta_k| <= MAX_SHIFT, the
# window's own largest shift:
# * the band, |k - n| <= _BAND, is multiplied directly: |delta| <= MAX_SHIFT
#   keeps the nearest node there;
# * the truncation rule: every series term below is kept while its bound
#   per node, at the window's D, exceeds _BUDGET = 3e-13, and no longer;
# * the mid field, _BAND < |k - n| <= _W_NEAR, enters the cell's Taylor
#   polynomial in u from the true positions: a node j slots away has |a| >=
#   j - 1/2 - D for a = n + 1/2 - lambda, so the ratio is at most rho_j =
#   1/(2j - 1 - 2D), and the node takes the least order T whose remainder,
#   rho_j^(T+1)/((T+1)(1 - rho_j)), is within _BUDGET, at most _T_ORD.
#   That cap binds at slot 5 alone, for D > 0.69, whose order-12 remainder
#   is below 9.3e-13 per node at D = 1 and 7.1e-12 at D = 1.5 (rho = 1/6),
#   so every mid node stays below 1e-11.  The orders run from 12 at slot 5
#   to 6 or 7 at slot 24, 8.1 on average at D = 0.2 and 8.5 at D = 1.5;
# * the far field, |k - n| > _W_NEAR, every node whatever its delta,
#   enters the same polynomial through orders 0.._S_ORD in u of FFT
#   moments, m = n - k + 1/2, by log|m - delta + u| = log|m| - sum_j
#   Re(delta^j) m^-j / j - sum_s (-u)^s/s sum_j C(s+j-1, j) Re(delta^j)
#   m^-(s+j): with |m| >= 24.5 and |delta| <= MAX_SHIFT = 1.5, the ratio
#   |u/(m - delta)| is below 0.5/23 = 0.022, so the remainder from u^6 on,
#   summed over both sides, stays below 1.9e-10, at most (1 - 1.5/24.5)^-6
#   = 1.46 times its u^6 terms at delta = 0.  No cancellation between the
#   sides is assumed: a common shift moves every far node toward one side,
#   where orders up to u^4 alone leave 3.2e-9 at the cell edges of the
#   translate k - 1.5.  The term (s, j) is below C(s+j-1, j) D^j 2^-s /
#   (s 24.5^(s+j)) per node, D^j/(j 24.5^j) for s = 0, and is kept by the
#   rule, or whenever s + j <= 1, whose far-field sum grows like log K.
#   Over the far field a term of order P = s + j adds at most 2 (1 + 24.5/
#   (P - 1)) times its per-node bound, so the omitted terms together stay
#   below 1.3e-12 per node and 1.2e-11 over the far field at every D <=
#   1.5 (the worst is D = 0.52).  Only j = 0 is kept at D = 0; j <= 5 and
#   kernels to m^-7 at D = 0.2; j <= 8 and m^-9 at D = 1; and j <= 9
#   (_J_DELTA) and m^-10 at D = 1.5, where j = 10 is below 7.4e-14.
_BAND = 4
_W_NEAR = 24
_T_ORD = 12
_S_ORD = 5
_J_DELTA = 9
_BUDGET = 3e-13
_BAND_SLOTS = np.arange(-_BAND, _BAND + 1)[:, None]
# (-1)^(s+1)/s: log(1 + t) = sum_s _SERIES_COEF[s] t^s
_SERIES_COEF = np.array([0.0] + [(-1.0) ** (s + 1) / s
                                 for s in range(1, _T_ORD + 1)])
_BLOCK = 1 << 14  # points per pass, or per grid tile, of the bulk path

_CHUNK = 64  # nodes per chunk of the pointwise product
_PASS_FACTORS = 1 << 18  # complex factors per pointwise pass: 4 MiB
_BULK_MIN_BATCH = 256

_LN2 = math.log(2.0)


def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, a fast real FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of 2 reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class OverflowReported(OverflowError):
    """Product magnitude left the representable range despite scaling."""


def nearest_nodes(pos, z):
    """dist(z, pos) and the offset of the nearest entry of ``pos`` (ties go
    to the lowest offset), for any complex points and nodes.

    The nodes are scanned in order of real part, outward from each point's
    ``searchsorted`` slot on both sides.  Real gaps only grow along a side,
    so a side is done, exactly, once its real gap exceeds the best distance
    found: the stop rule of :func:`pwinterp.nodes.separation`.  Memory is
    O(points), whatever the number of nodes.
    """
    z = np.asarray(z, dtype=np.complex128).ravel()
    order = np.argsort(pos.real, kind="stable")
    srt = pos[order]
    start = np.searchsorted(srt.real, z.real)
    dist = np.full(z.size, np.inf)
    nearest = np.full(z.size, pos.size, dtype=np.int64)
    for side, j in ((1, start), (-1, start - 1)):
        live = np.arange(z.size)
        while live.size:
            jj = j[live]
            keep = (jj >= 0) & (jj < srt.size)
            live, jj = live[keep], jj[keep]
            # real gaps only grow along a side: stop once one exceeds dist
            keep = side * (srt.real[jj] - z.real[live]) <= dist[live]
            live, jj = live[keep], jj[keep]
            d = np.abs(z[live] - srt[jj])
            off = order[jj]
            win = (d < dist[live]) | ((d == dist[live])
                                      & (off < nearest[live]))
            dist[live[win]] = d[win]
            nearest[live[win]] = off[win]
            j[live] += side
    return dist, nearest


def _finite_points(z):
    """``z`` flattened, refused with a ValueError naming any NaN or inf."""
    z = np.asarray(z).ravel()
    if not np.all(np.isfinite(z)):
        bad = np.flatnonzero(~np.isfinite(z))
        raise ValueError(f"non-finite evaluation points: {bad.size} of "
                         f"{z.size}, the first {z[bad[0]]} at position "
                         f"{bad[0]}")
    return z


class ProductCore:
    """Shared state for evaluating one node sequence's product."""

    def __init__(self, seq, tail: TailCompensation | None):
        self.seq = seq
        self.tail = tail
        pos = seq.positions
        self.pos = pos
        self.zero_mask = pos == 0
        if np.count_nonzero(self.zero_mask) > 1:
            raise ValueError("duplicate node positions at 0")
        self._lam = None  # the pointwise layout, on its first use
        self.total_lognorm = float(
            np.sum(np.log(np.abs(np.where(self.zero_mask, 1.0, pos)))))
        self._fast_setup()

    # -- entry points ----------------------------------------------------

    def _bulk(self, z, signed=False) -> bool:
        """The routing rule of the module docstring; ``signed`` asks for
        the product's phase too, which the bulk kernel gives on real
        windows only."""
        return (self.fast_ok and (self.real or not signed)
                and z.size >= _BULK_MIN_BATCH
                and not (np.iscomplexobj(z) and np.any(z.imag))
                and self._in_bulk_span(z.real))

    def value(self, z):
        """S(z).  Raises :class:`OverflowReported` when a magnitude leaves
        the floating range."""
        z = _finite_points(z)
        if not self._bulk(z, signed=True):
            return self.eval_points(z)
        return self._bulk_value(z.real, *self.logabs_real(z.real))

    def divided(self, z):
        """D = S(z)/(z - lambda_n) and n, the nearest node's offset (ties
        to the lowest); on a node D is S'(lambda_n).  Raises
        :class:`OverflowReported` when a magnitude leaves the floating
        range."""
        z = _finite_points(z)
        if not self._bulk(z, signed=True):
            n = nearest_nodes(self.pos, z)[1]
            return self.eval_points(z, n), n
        L, _, n = self.logabs_real(z.real)
        return self._signed_exp(z.real, n, L), n

    def logabs(self, z):
        """log|D|, which is log F on the real line; no phase, so the bulk
        path serves complex windows too."""
        z = _finite_points(z)
        if not self._bulk(z):
            return np.log(np.abs(self.divided(z)[0]))
        return self.logabs_real(z.real)[0]

    def value_logabs_blocks(self, z):
        """``value(z)`` and ``logabs(z)`` together, one block of rows at a
        time: yields (S, L) for z[c0:c0 + ``_BLOCK``], c0 = 0, ``_BLOCK``,
        ..., each value bit-identical to the whole batch's.

        The routing is read from the whole batch, as ``value`` and
        ``logabs`` read it, and every bulk block takes the cell table of
        the whole batch's cell range.  A real window on the bulk path takes
        S and L from one ``real_blocks`` pass.  Pointwise evaluation is
        point by point, so its blocks are the batch's.  No float array the
        size of the batch is formed.
        """
        z = _finite_points(z)
        signed = self._bulk(z, signed=True)
        bulk = signed or self._bulk(z)
        real = self.real_blocks(z.real) if bulk else None
        for c0 in range(0, z.size, _BLOCK):
            zb = z[c0:c0 + _BLOCK]
            if bulk:
                L, dist, n = next(real)
                logabs = L.copy()
            else:
                n_near = nearest_nodes(self.pos, zb)[1]
                logabs = np.log(np.abs(self.eval_points(zb, n_near)))
            S = (self._bulk_value(zb.real, L, dist, n) if signed
                 else self.eval_points(zb))
            yield S, logabs

    def _bulk_value(self, x, L, dist, n):
        """S at real points from ``logabs_real``'s log|D|, dist and nearest
        offset n; L is overwritten."""
        with np.errstate(divide="ignore"):
            L += np.log(dist)  # -inf on a node, where S = 0
        # x - lambda_n < 0 turns the sign of D back into that of S
        flip = np.where(self.pos.real[n] >= x, -1.0, 1.0)
        return self._signed_exp(x, n, L) * flip

    def _signed_exp(self, x, n, L):
        """sign(D) exp(L) on a real window, D divided by node n."""
        if np.any(L > 709.0):
            raise OverflowReported("product magnitude exceeds the "
                                   "floating range on this grid")
        return (self.sign_real(x, n) * np.exp(L)).astype(np.complex128)

    # -- point-wise path -------------------------------------------------

    def pointwise_layout(self):
        """``_reduce``'s nodes ``_lam``, ``_inv``, ``_column``, ``_n_pad``."""
        if self._lam is None:
            # node i of the |lambda| order sits at [i % 64, i // 64] of
            # (64, n_chunks) arrays, one column per chunk, padded with ones;
            # a concurrent caller sees all of them or none
            order = np.flatnonzero(~self.zero_mask)
            order = order[np.argsort(np.abs(self.pos[order]), kind="stable")]
            n_chunks = max(1, -(-order.size // _CHUNK))
            n_pad = n_chunks * _CHUNK - order.size  # in the last chunk
            lam = np.concatenate([self.pos[order], np.ones(n_pad)])
            lam = np.ascontiguousarray(lam.reshape(n_chunks, _CHUNK).T)
            column = np.full(self.pos.size, -1, dtype=np.int64)
            column[order] = np.arange(order.size)  # -1 for a node at 0
            self._n_pad, self._inv, self._column = n_pad, 1.0 / lam, column
            self._lam = lam
        return self._lam

    def eval_points(self, z, exclude=None):
        """Compensated product at complex points.

        ``exclude`` holds one node array-offset per point (or -1); at a
        point with node k excluded the result is the divided product
        S(z)/(z - lambda_k), whose factor for node k is -1/lambda_k (1 for
        the zero node).  Raises :class:`OverflowReported` when the final
        magnitude cannot be represented even after the scaled accumulation.

        The points run in passes of at most ``_PASS_FACTORS`` = 2^18
        complex factors (4 MiB), at least one point per pass (so past 2^18
        nonzero nodes a pass is one point, as large as the node array).  A
        pass forms every factor (lambda - z)/lambda of its points in one
        (points, 64, n_chunks) array, laid out like the chunk-major nodes;
        an excluded node's cell holds -1/lambda_k and the padding cells of
        the last chunk hold 1.  Halving in place, ``g[:, :w] *= g[:, w:2w]``
        for w = 32, 16, ..., 1, leaves in slot 0 the product of each chunk's
        64 factors.  The chunk products are then scaled to [1, 2) with their
        binary exponents summed apart, and multiplied pairwise, rescaled at
        every level, down to one mantissa per point.  Every step is
        elementwise along the points, so a point's value does not depend on
        the rest of its batch.
        """
        z = np.asarray(z, dtype=np.complex128).ravel()
        npts = z.size
        if npts == 0:
            return z
        exclude = (np.full(npts, -1, dtype=np.int64) if exclude is None
                   else np.asarray(exclude, dtype=np.int64).ravel())
        has_exc = exclude >= 0
        lam = self.pointwise_layout()
        col = np.where(has_exc, self._column[exclude], -1)
        mant = np.empty(npts, dtype=np.complex128)
        e2 = np.empty(npts)
        per = max(1, _PASS_FACTORS // lam.size)  # points per pass
        g = np.empty((min(per, npts),) + lam.shape, dtype=np.complex128)
        for p0 in range(0, npts, per):
            p = slice(p0, min(p0 + per, npts))
            mant[p], e2[p] = self._reduce(z[p], col[p], g[:p.stop - p0])
        if np.any(self.zero_mask):
            # a node at 0 contributes the bare factor z, 1 when excluded
            mant *= np.where(has_exc & self.zero_mask[exclude], 1.0, z)
        logmag = np.full(npts, -np.inf)
        live = mant != 0
        w = e2 * _LN2 + 0j
        if self.tail is not None:
            w = w + self.tail.log_tail(z)
        logmag[live] = np.log(np.abs(mant[live])) + w.real[live]
        # NaN marks a chunk product that overflowed before renormalization
        if not np.all(logmag <= 709.0):
            raise OverflowReported(
                "product magnitude exceeds the floating range; "
                "evaluate closer to the window or enlarge it"
            )
        out = np.zeros(npts, dtype=np.complex128)
        out[live] = mant[live] * np.exp(w[live])
        return out

    def _reduce(self, z, col, g):
        """One pass of ``eval_points``: the mantissa (magnitude in [1, 2),
        0 on a node) and binary exponent of the product at each point of
        ``z``, with the node of column ``col`` (|lambda| order, -1 for
        none) excluded, computed in ``g``."""
        np.subtract(self._lam, z[:, None, None], out=g)
        g *= self._inv
        g[:, _CHUNK - self._n_pad:, -1] = 1.0
        hit = np.flatnonzero(col >= 0)
        chunk, slot = np.divmod(col[hit], _CHUNK)
        g[hit, slot, chunk] = -self._inv[slot, chunk]
        w = _CHUNK
        while w > 1:
            w //= 2
            g[:, :w] *= g[:, w:2 * w]
        q = g[:, 0]  # the chunk products
        e2 = np.zeros(z.size)
        w = q.shape[1]
        while True:
            # to [1, 2): exact power-of-two scaling of both parts
            _, e = np.frexp(np.abs(q[:, :w]))
            e -= 1
            for part in (q.real[:, :w], q.imag[:, :w]):
                np.ldexp(part, -e, out=part)
            e2 += e.sum(axis=1)
            if w == 1:
                return q[:, 0], e2
            h = w // 2  # with w odd, the middle product waits a level
            q[:, :h] *= q[:, w - h:w]
            w -= h

    # -- bulk real-axis path ---------------------------------------------

    def _fast_setup(self):
        self.real = self.seq.is_real
        self.fast_ok = (delta := lattice_shifts(self.seq)) is not None
        if not self.fast_ok:
            return
        self.K = self.seq.half_width
        self._max_shift = float(np.max(np.abs(delta)))  # D of the constants
        # the kernels subtract points from these: complex only off the axis,
        # and contiguous, since every point gathers its band from them
        self._kernel_pos = (np.ascontiguousarray(self.pos.real) if self.real
                            else self.pos)
        if self.real:  # for sign_real, whose bulk path needs a real window
            self._nonzero_sorted = np.sort(self.pos.real[~self.zero_mask])
            self._n_neg_inv = int(np.count_nonzero(self.pos.real < 0))
        # the cells n whose every point, n <= x < n + 1, lies within the
        # tail's trust radius (none without a tail): the cell table
        # carries the tail there
        R = self.tail.radius if self.tail is not None else 0.0
        self._tail_cells = (math.ceil(-R), math.floor(R) - 1)

    def _cell_table(self, n_min, n_max):
        """C[s, n - n_min] for cells n_min..n_max: the coefficient of u^s,
        u = x - (n + 1/2), in log|D(x)| less the band's logs.  That is the
        one polynomial for every node outside the band, in the window or
        beyond it: the sum of log|1 - x/lambda_k| (log|x| for a node at 0)
        over the window's nodes more than ``_BAND`` slots from n, plus, on
        the cells of ``_tail_cells``, the far tail T(x) (see
        ``_tail_taylor``)."""
        table = np.zeros((_T_ORD + 1, n_max - n_min + 1))
        self._far_moments(n_min, n_max, table[:_S_ORD + 1])
        # the mid nodes, taken at their true positions: with
        # a = n + 1/2 - lambda, log|a + u| = log|a| - sum_s Re((-u/a)^s)/s
        centre = np.arange(n_min, n_max + 1) + 0.5
        mid = np.zeros_like(table)  # sum over the mid nodes of Re(a^-s)
        first = n_min + self.K  # array offset of node n_min
        for j in range(_BAND + 1, _W_NEAR + 1):
            rho = 0.5 / (j - 0.5 - self._max_shift)  # the order's ratio
            order = next((T for T in range(1, _T_ORD) if rho ** (T + 1)
                          <= _BUDGET * (T + 1) * (1 - rho)), _T_ORD)
            for k0 in (first + j, first - j):
                a = centre - self._kernel_pos[k0:k0 + centre.size]
                mid[0] += np.log(np.abs(a))
                inv = 1.0 / a
                p = inv.copy()
                for s in range(1, order + 1):
                    mid[s] += p.real
                    p *= inv
        mid[1:] *= _SERIES_COEF[1:, None]
        table += mid
        table[0] -= self.total_lognorm
        table += self._tail_taylor(n_min, n_max)
        return table

    def _tail_taylor(self, n_min, n_max):
        """The far tail's Taylor coefficients, rows u^0..u^_T_ORD of
        T(c + u) at the cell centres c = n + 1/2, n = n_min..n_max; nonzero
        only on the cells of ``_tail_cells``, which lie wholly inside the
        trust radius.  With T(z) = sum_P C_P z^P, row s is sum_P C_P
        binom(P, s) c^(P-s): one matrix product of those weights with the
        powers of c.  The orders past u^_T_ORD are left out: there |u| <=
        1/2 and C_P falls like K^(1-P)/P^2, so together they stay below
        2e-23 at K = 32, the least window with a bulk cell, and below
        1e-40 at K = 1024."""
        out = np.zeros((_T_ORD + 1, n_max - n_min + 1))
        lo = max(n_min, self._tail_cells[0])
        hi = min(n_max, self._tail_cells[1])
        if self.tail is None or lo > hi:
            return out
        C = self.tail.coeffs
        # weights[s, q] = C_(s+q) binom(s+q, s), for the power c^q
        weights = np.zeros((_T_ORD + 1, C.size))
        for s in range(_T_ORD + 1):
            for q in range(C.size - s):
                weights[s, q] = C[s + q] * math.comb(s + q, s)
        c = np.arange(lo, hi + 1) + 0.5
        powers = np.empty((C.size, c.size))
        powers[0] = 1.0
        for q in range(1, C.size):
            np.multiply(powers[q - 1], c, out=powers[q])
        out[:, lo - n_min:hi - n_min + 1] = weights @ powers
        return out

    def _far_moments(self, n_min, n_max, rows):
        """Rows 0.._S_ORD of the cell table: the far field (every node more
        than ``_W_NEAR`` slots away) from FFT convolutions of the moments
        Re(delta^j), taken over all nodes (ones for j = 0), with the
        kernels log|m| and m^-P, m = n - k + 1/2, for the terms that the
        truncation rule keeps at the window's largest shift.

        The kernel spans No = cells + 2K offsets and the data 2K + 1 <= No
        nodes, so the cyclic convolution of length L >= No differs from the
        linear one at output i by y[i - L] and y[i + L], both outside the
        linear support for the outputs read back.  Each kernel's transform
        is formed once, used for every term it feeds and dropped.  A zero
        moment, as every one past j = 0 on the lattice, and a kernel that
        no kept term with a nonzero moment reads are not transformed.
        """
        K = self.K
        o_min, o_max = n_min - K, n_max + K
        L = _fast_len(o_max - o_min + 1)
        D, terms = self._max_shift, []  # (s, j, coefficient), by the rule
        for s, j in np.ndindex(_S_ORD + 1, _J_DELTA + 1):
            coef = (1.0 if s + j == 0 else -1.0 / j if s == 0
                    else _SERIES_COEF[s] * math.comb(s + j - 1, j))
            # the bound per node, |u| <= 1/2: 2^s 24.5^s = 49^s
            if s + j <= 1 or abs(coef) * (D / 24.5) ** j > _BUDGET * 49 ** s:
                terms.append((s, j, coef))
        # the gate's delta, recomputed rather than kept on the core to bound
        # its memory; m and u are real, so only Re(delta^j) enters
        # log|m + u - delta|
        delta = lattice_shifts(self.seq)
        if self.real:
            delta = delta.real
        dhat = []
        data = np.ones_like(delta)
        for j in range(max(t[1] for t in terms) + 1):
            if j:
                data = data * delta
            dhat.append(np.fft.rfft(data.real, L) if np.any(data.real)
                        else None)
        del data, delta
        terms = [t for t in terms if dhat[t[1]] is not None]
        o = np.arange(o_min, o_max + 1, dtype=np.float64)
        far = np.abs(o) > _W_NEAR
        m = o + 0.5
        with np.errstate(divide="ignore"):
            kern = np.where(far, np.log(np.abs(m)), 0.0)
        inv = np.where(far, 1.0 / m, 0.0)
        del o, far, m
        acc = np.zeros((_S_ORD + 1, L // 2 + 1), dtype=np.complex128)
        scratch = np.empty(L // 2 + 1, dtype=np.complex128)
        for P in range(max(s + j for s, j, _ in terms) + 1):
            if P == 1:
                kern = inv.copy()
            elif P > 1:
                kern *= inv
            feeds = [t for t in terms if t[0] + t[1] == P]
            if not feeds:
                continue
            khat = np.fft.rfft(kern, L)
            for s, j, coef in feeds:
                np.multiply(dhat[j], khat, out=scratch)
                scratch *= coef
                acc[s] += scratch
        lo = 2 * K
        for s in range(_S_ORD + 1):
            rows[s] = np.fft.irfft(acc[s], L)[lo:lo + rows.shape[1]]

    def logabs_real(self, x):
        """log|D| = log|S(x)/(x - lambda_n)|, dist(x, Lambda) and the
        nearest offset n on real points, ``real_blocks``' in three arrays."""
        x = np.asarray(x, dtype=np.float64)
        out = (np.empty(x.size), np.empty(x.size),
               np.empty(x.size, dtype=np.int64))
        for c0, block in zip(range(0, x.size, _BLOCK), self.real_blocks(x)):
            for whole, part in zip(out, block):
                whole[c0:c0 + _BLOCK] = part
        return out

    def real_blocks(self, x):
        """log|D|, dist(x, Lambda) and the nearest offset n on real points,
        one block of ``_BLOCK`` consecutive points at a time: yields fresh
        arrays (L, dist, n) for x[c0:c0 + ``_BLOCK``], c0 = 0, ``_BLOCK``,
        ....  The one cell table covers the whole batch's cell range, so a
        point's values do not depend on how the batch is cut.

        ``x`` may come in any order.  A point in cell n = floor(x) takes
        the nodes of its 9-slot band, |k - n| <= ``_BAND``, directly:
        since |delta| <= 1.5, any other node lies strictly farther than
        node n, so the nearest node is the band's ``argmin`` (ties to the
        lower offset, as in a full scan).  The band's other 8 factors take
        one log.  Every other node enters through the cell's Taylor
        polynomial in u = x - (n + 1/2) of order ``_T_ORD`` (see
        ``_cell_table``), one Horner pass; that polynomial carries the far
        tail on the cells of ``_tail_cells``, and points of other cells
        add it point by point.  A block stays in cache through every pass
        over it.
        """
        x = np.asarray(x, dtype=np.float64)
        if not self._in_bulk_span(x):
            raise ValueError(
                "evaluation points too close to the window edge; "
                "enlarge the node window"
            )
        n_base, n_top = math.floor(x.min()), math.floor(x.max())
        table = self._cell_table(n_base, n_top)
        tail_apart = self._tail_apart(n_base, n_top)
        return (self._block_logs(x[c0:c0 + _BLOCK], table, n_base, tail_apart)
                for c0 in range(0, x.size, _BLOCK))

    def _tail_apart(self, n_min, n_max) -> bool:
        """Whether some cell of n_min..n_max lies outside ``_tail_cells``
        on a core with a tail: its points take the tail point by point."""
        lo, hi = self._tail_cells
        return self.tail is not None and not lo <= n_min <= n_max <= hi

    def _add_tail_apart(self, x, L):
        """L += T(x), in place, at the points whose cell the table's tail
        leaves out; T itself is 0 past the trust radius."""
        lo, hi = self._tail_cells
        apart = (x < lo) | (x >= hi + 1)
        if np.any(apart):
            L[apart] += self.tail.log_tail(x[apart])

    def grid_logabs(self, h, n_half, run):
        """log F = log|D| on the midpoint grid x_i = (i + 1/2) h, i =
        -n_half..n_half - 1, for a consumer that sums runs of ``run``
        points: 2-D pieces in grid order whose rows lie each within one
        run and, but for the grid's last, share one width dividing ``run``.

        The step h must be a power of two, else a ValueError.  On the bulk
        path, by ``logabs``' rule read from the grid's ends and size, a
        grid of h = 1/M <= 1 takes the tiles of the whole cells it meets,
        in rows of gcd(run, min(M, ``_BLOCK``), n_half) points, less the
        off = -n_half % M points at each end, whole rows, that lie off the
        grid.  Any other grid, pointwise or of h >= 2, comes from
        ``logabs`` in chunks of whole runs, each routed on its own, at
        least ``_BLOCK`` points, its rows the runs, the last run alone if
        shorter.  Memory is O(max(run, ``_BLOCK``)).
        """
        if math.frexp(h)[0] != 0.5:
            raise ValueError(f"grid step h = {h!r} is not a power of two")
        n = 2 * n_half
        ends = np.array([0.5 - n_half, n_half - 0.5]) * h
        if (h <= 1.0 and self.fast_ok and n >= _BULK_MIN_BATCH
                and self._in_bulk_span(ends)):
            M = round(1.0 / h)
            off = -n_half % M  # points of each end cell off the grid
            width = math.gcd(run, min(M, _BLOCK), n_half)
            # the grid is rows lo..hi - 1 of the tiles, ``per`` to a tile
            lo, hi, per = off // width, (off + n) // width, _BLOCK // width
            cells = (n + 2 * off) // M
            tiles = self.grid_tiles(-cells // 2, M, cells)
            return (tile.reshape(-1, width)[max(lo - t * per, 0):hi - t * per]
                    for t, tile in enumerate(tiles)
                    if t * per < hi and (t + 1) * per > lo)
        whole = n - n % run  # the points of whole runs; the rest is a run
        edges = sorted({*range(0, whole, -(-_BLOCK // run) * run), whole, n})
        return (self.logabs((np.arange(i0, i1) - n_half + 0.5) * h)
                .reshape(-1, min(run, i1 - i0))
                for i0, i1 in zip(edges, edges[1:]))

    def grid_tiles(self, n0, M, cells):
        """log|D| on the dyadic midpoint grid x = n + (j + 1/2)/M, j =
        0..M-1 in each cell n = n0..n0 + cells - 1, one tile at a time:
        ``logabs_real``'s values to rounding, with the offsets u_j = (j +
        1/2)/M - 1/2 that every cell shares.

        Yields tiles in the grid's order, each the next ``_BLOCK`` points
        (the last may be shorter): whole cells by a run of offsets, the
        tile's rows its cells (one cell by ``_BLOCK`` offsets when M
        exceeds ``_BLOCK``), so memory stays O(``_BLOCK``).  Each tile
        is a fresh array, the caller's to keep or overwrite, and its memory
        runs along its longer side.  In a tile the cell polynomial is one
        matrix product, the tile's table columns times the powers
        u^0..u^_T_ORD of its offsets.  The band is the nine values b =
        lambda_(n+j) - (n + 1/2), |j| <= ``_BAND``, whose distances |b - u|
        (complex moduli off the axis) are multiplied and divided by their
        minimum, the nearest node's.  At an exact hit that minimum is 0 and
        the point takes the product of the other eight.
        """
        table = self._cell_table(n0, n0 + cells - 1)
        tail_apart = self._tail_apart(n0, n0 + cells - 1)
        span = min(M, _BLOCK)  # offsets per tile
        rows = _BLOCK // span  # cells per tile
        # a tile's arrays are (offsets, cells) when it has more cells
        cells_inner = rows > span
        d_all = np.empty((2 * _BAND + 1,) + ((span, rows) if cells_inner
                                             else (rows, span)))
        j_last = None
        for c0 in range(0, cells, rows):
            c1 = min(c0 + rows, cells)
            n = np.arange(n0 + c0, n0 + c1)
            at = n0 + c0 + self.K  # array offset of node n0 + c0
            band = np.lib.stride_tricks.sliding_window_view(
                self._kernel_pos[at - _BAND:at + c1 - c0 + _BAND],
                c1 - c0) - (n + 0.5)
            for j0 in range(0, M, span):
                if j0 != j_last:  # once, unless a cell spans several tiles
                    frac = (np.arange(j0, j0 + span) + 0.5) / M  # x - n
                    u = frac - 0.5
                    powers = np.vander(u, _T_ORD + 1, increasing=True).T
                    j_last = j0
                poly = table[:, c0:c1].T @ powers  # (cells, offsets)
                b, v = band[:, :, None], u
                if cells_inner:
                    poly = poly.T
                    b, v = band[:, None, :], u[:, None]
                d = d_all[:, :poly.shape[0], :poly.shape[1]]
                np.copyto(d, b.real)
                d -= v
                if self.real:
                    np.abs(d, out=d)
                else:
                    np.hypot(d, b.imag, out=d)
                near = d.min(axis=0)
                prod = np.multiply.reduce(d, axis=0)
                if not near.all():  # exact hits: the other eight
                    hit = near == 0.0
                    other = d[:, hit]
                    other[other == 0.0] = 1.0
                    prod[hit] = np.multiply.reduce(other, axis=0)
                    near[hit] = 1.0
                np.divide(prod, near, out=prod)
                np.log(prod, out=prod)
                prod += poly
                if tail_apart:
                    x = n[:, None] + frac
                    self._add_tail_apart(x.T if cells_inner else x, prod)
                yield prod.T if cells_inner else prod

    def _in_bulk_span(self, x) -> bool:
        """floor(x) -+ ``_W_NEAR`` in [-K, K] at every point, NaN failing."""
        return bool(x.min() >= _W_NEAR - self.K
                    and x.max() < self.K + 1 - _W_NEAR)

    def _block_logs(self, x, table, n_base, tail_apart):
        """One block of ``real_blocks``: fresh (L, dist, nearest) at ``x``
        from ``table``, whose column 0 is cell ``n_base``, and with
        ``tail_apart`` the tail of cells outside ``_tail_cells``."""
        fn = np.floor(x)
        u = x - (fn + 0.5)
        at = fn.astype(np.int64) + self.K  # array offset of node floor(x)
        # band slot by point: whole-row passes run along the points
        d = np.take(self._kernel_pos, at + _BAND_SLOTS)
        np.subtract(d, x, out=d)
        # off the axis the differences are complex, and np.abs takes the
        # same complex modulus as nearest_nodes
        d = np.abs(d, out=d if self.real else None)
        # the band's argmin, ties to the lower slot, one row at a time
        imin = np.zeros(x.size, dtype=np.int64)
        closer = np.empty(x.size, dtype=bool)
        dist = d[0].copy()
        for j in range(1, 2 * _BAND + 1):
            np.less(d[j], dist, out=closer)
            imin[closer] = j
            np.minimum(dist, d[j], out=dist)
        nearest = at + (imin - _BAND)
        d[imin, np.arange(x.size)] = 1.0  # the nearest node, divided out
        L = np.log(np.prod(d, axis=0))
        cell = at - (n_base + self.K)
        acc = table[_T_ORD].take(cell)
        for s in range(_T_ORD - 1, -1, -1):
            acc *= u
            acc += table[s].take(cell)
        L += acc
        if tail_apart:
            self._add_tail_apart(x, L)
        return L, dist, nearest

    def sign_real(self, x, nearest):
        """Sign of D = S(x)/(x - lambda_n) at real points, with n =
        ``nearest`` (offsets) on a real window.

        Each nonzero node's factor (lambda - x)/lambda is negative when
        exactly one of lambda < x, lambda < 0 holds; the zero node's factor
        x is counted negative for x <= 0.  Dividing by x - lambda_n flips
        the sign when lambda_n >= x (at x = lambda_n this gives the sign of
        S'(lambda_n)).
        """
        x = np.asarray(x, dtype=np.float64)
        negative = (np.searchsorted(self._nonzero_sorted, x, side="left")
                    + self._n_neg_inv
                    + (np.any(self.zero_mask) & (x <= 0)))
        negative += self.pos.real[nearest] >= x
        return np.where(negative % 2 == 0, 1.0, -1.0)
