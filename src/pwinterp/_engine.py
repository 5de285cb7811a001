"""Vectorized evaluation of windowed node products.

Two complementary kernels approximate the symmetric infinite product

    S(z) = prod_k (1 - z/lambda_k)        (factor z for a node at 0):

* ``eval_points``, the pointwise path: the product at arbitrary complex
  arguments.  The nonzero nodes, in order of increasing |lambda|, are
  stored chunk-major, 64 to a chunk, as (64, n_chunks) arrays (a
  symmetric window then puts about 32 plus/minus pairs in each chunk,
  which keeps chunk products in range; one that overflows all the same is
  reported).  A pass over at most 2^18 complex factors (4 MiB) forms all
  factors of its points in one array, multiplies each chunk's 64 in place
  by halving, scales the chunk products to [1, 2) with their exponents
  summed apart, and multiplies them pairwise, rescaling at every level; a
  node at 0 contributes the factor z, and
* ``logabs_real``, the bulk path: real points only, each split into a
  directly multiplied near window plus a smooth far field, with the far
  log-sums assembled from FFT convolutions of short Taylor moments.  The
  near window is one row of a sliding view over the nodes; the nearest
  node is sought among the 9 slots around floor(x), which is exact while
  every node lies within ``MAX_SHIFT`` = 1.5 of its index (complex nodes
  included), and the window's factors, the nearest node's left out, take
  a single log.  Off the axis the near distances are complex moduli and
  the far moments convolve Re(delta^j): with m and u real, only those
  enter log|m + u - delta|.  The bulk path gives log|S| and the sign of S
  on real windows, so off the axis it serves ``logabs`` alone.

Both kernels add the core's far-tail series of :mod:`pwinterp._tails`
when it has one: the closed-form sum of the logs of the factors the window
omits, continued from the window's own outer half, which the tail itself
sets to 0 beyond its trust radius.  Values then approximate the infinite
product rather than the bare window truncation.

Callers go through two entry points: :meth:`ProductCore.value`, the complex
value S(z), and :meth:`ProductCore.logabs`, log|S(z)| with dist(z, Lambda)
and the nearest node.  ``value`` takes one optional excluded node per
point; at such a point both kernels return the divided product
S(z)/(z - lambda_k), finite at z = lambda_k where it equals S'(lambda_k).
This one primitive gives the node derivatives, the weight at a node and
the near-node terms of the reconstruction series.  One rule picks the
kernel for each call: the bulk path runs when the core is ``fast_ok`` (an
index-contiguous window with every node within 1.5 of its index), every
point is real, the batch holds at least 256 points and, for ``value``,
the window is real; everything else runs pointwise.  Below 256 points one
pointwise evaluation is cheaper than a cold bulk moment set.  The rule
sees only the batch it is given, so the divided-product batches of
``GeneratingFunction.weight`` (exact node hits) and of ``reconstruct``
(grid points near support nodes) pick their own path by their own size.
Off the bulk path, dist and the nearest node come from
:func:`nearest_nodes`, a sorted search whose memory is O(points).
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len, rfft, irfft

from ._tails import MAX_SHIFT, TailCompensation

# Near/far split parameters.  With a near half-width of 24 index slots the
# far Taylor expansion in u = x - cell_center has ratio < 0.021, so four
# orders leave errors below 1e-8; delta expansions of the far kernels decay
# at least as fast as (0.95/24.5)^j.
_W_NEAR = 24
# |delta| <= MAX_SHIFT keeps the nearest node within this many slots of
# floor(x)
_BAND = 4
_BLOCK = 1 << 14  # points per pass of the bulk kernel
_NEAR_ROWS = 2048  # points per near-window array (49 rows of them)
_J_DELTA = 8
_S_ORD = 4
_SPECIAL_DELTA = 0.95
_CHUNK = 64  # nodes per chunk of the pointwise product
_PASS_FACTORS = 1 << 18  # complex factors per pointwise pass: 4 MiB
_BULK_MIN_BATCH = 256

_LN2 = math.log(2.0)


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
        # the pointwise kernel multiplies the nonzero nodes in order of
        # |lambda|, chunk-major: node i of that order sits at
        # [i % 64, i // 64] of (64, n_chunks) arrays, one column per chunk
        order = np.flatnonzero(~self.zero_mask)
        order = order[np.argsort(np.abs(pos[order]), kind="stable")]
        n_chunks = max(1, -(-order.size // _CHUNK))
        self._n_pad = n_chunks * _CHUNK - order.size  # in the last chunk
        lam = np.ones(n_chunks * _CHUNK, dtype=np.complex128)
        lam[:order.size] = pos[order]
        self._lam = np.ascontiguousarray(lam.reshape(n_chunks, _CHUNK).T)
        self._inv = 1.0 / self._lam
        self._column = np.full(pos.size, -1, dtype=np.int64)
        self._column[order] = np.arange(order.size)
        self.total_lognorm = float(
            np.sum(np.log(np.abs(np.where(self.zero_mask, 1.0, pos)))))
        self._fast_setup()

    # -- entry points ----------------------------------------------------

    def _bulk(self, z, signed=False) -> bool:
        """The routing rule of the module docstring; ``signed`` asks for
        the product's phase too, which the bulk kernel gives on real
        windows only."""
        return (self.fast_ok and (self.real or not signed)
                and z.size >= _BULK_MIN_BATCH and not np.any(np.imag(z)))

    def value(self, z, exclude=None):
        """S(z), or S(z)/(z - lambda_k) at points i with node
        k = ``exclude[i]`` (an array offset, -1 for none).

        Raises :class:`OverflowReported` when a magnitude leaves the
        floating range.
        """
        z = np.asarray(z).ravel()
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.int64).ravel()
        if not self._bulk(z, signed=True):
            return self.eval_points(z, exclude)
        L, _, _ = self.logabs_real(z.real, exclude)
        if np.any(L > 709.0):
            raise OverflowReported("product magnitude exceeds the "
                                   "floating range on this grid")
        return (self.sign_real(z.real, exclude)
                * np.exp(L)).astype(np.complex128)

    def logabs(self, z):
        """log|S(z)|, dist(z, Lambda) and the nearest node offset."""
        z = np.asarray(z).ravel()
        if self._bulk(z):
            return self.logabs_real(z.real)
        with np.errstate(divide="ignore"):
            L = np.log(np.abs(self.eval_points(z)))
        return (L, *nearest_nodes(self.pos, z))

    # -- point-wise path -------------------------------------------------

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
        col = np.where(has_exc, self._column[exclude], -1)
        mant = np.empty(npts, dtype=np.complex128)
        e2 = np.empty(npts)
        per = max(1, _PASS_FACTORS // self._lam.size)  # points per pass
        g = np.empty((min(per, npts),) + self._lam.shape, dtype=np.complex128)
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
        self.fast_ok = False
        seq = self.seq
        self.real = seq.is_real
        if not seq.index_contiguous:
            return
        K = seq.half_width
        # the kernels subtract points from these: complex only off the axis
        self._kernel_pos = self.pos.real if self.real else self.pos
        delta = self._kernel_pos - seq.indices
        if np.max(np.abs(delta)) > MAX_SHIFT:
            return
        regular = np.abs(delta) <= _SPECIAL_DELTA
        if np.count_nonzero(~regular) > 64:
            return
        self.fast_ok = True
        self.K = K
        self.regular = regular
        self.special_offs = np.flatnonzero(~regular)
        if self.real:  # for sign_real, whose bulk path needs a real window
            self._nonzero_sorted = np.sort(self.pos.real[~self.zero_mask])
            self._n_neg_inv = int(np.count_nonzero(self.pos.real < 0))
        self._moment_cache = None

    def _conv_moments(self, n_min, n_max):
        cached = self._moment_cache
        if cached is not None and cached[0] == (n_min, n_max):
            return cached[1]
        K = self.K
        Nd = 2 * K + 1
        o_min, o_max = n_min - K, n_max + K
        No = o_max - o_min + 1
        L = next_fast_len(Nd + No - 1, real=True)
        o = np.arange(o_min, o_max + 1, dtype=np.float64)
        far = np.abs(o) > _W_NEAR
        m = o + 0.5
        max_p = _S_ORD + _J_DELTA
        khat = {}
        with np.errstate(divide="ignore"):
            logk = np.where(far, np.log(np.abs(m)), 0.0)
        khat["log"] = rfft(logk, L)
        # powers as running products: an array ** float runs pow() per entry
        inv = np.where(far, 1.0 / m, 0.0)
        kern = inv
        for P in range(1, max_p + 1):
            khat[P] = rfft(kern, L)
            kern = kern * inv
        dhat = {}
        delta = self._kernel_pos - self.seq.indices
        # m and u are real, so only Re(delta^j) enters log|m + u - delta|
        data = self.regular.astype(delta.dtype)
        for j in range(_J_DELTA + 1):
            if j:
                data = data * delta
            if np.any(data.real):
                dhat[j] = rfft(data.real, L)
        m0_hat = np.zeros(L // 2 + 1, dtype=np.complex128)
        t_hat = [np.zeros(L // 2 + 1, dtype=np.complex128)
                 for _ in range(_S_ORD + 1)]
        for j, dj in dhat.items():
            if j == 0:
                m0_hat += dj * khat["log"]
            else:
                m0_hat -= dj * khat[j] / j
            for s in range(1, _S_ORD + 1):
                t_hat[s] += math.comb(s + j - 1, j) * dj * khat[s + j]
        lo = 2 * K
        hi = lo + (n_max - n_min) + 1
        M0 = irfft(m0_hat, L)[lo:hi]
        Ts = [None] + [irfft(t_hat[s], L)[lo:hi] for s in range(1, _S_ORD + 1)]
        moments = (M0, Ts)
        self._moment_cache = ((n_min, n_max), moments)
        return moments

    def logabs_real(self, x, exclude=None):
        """log|product|, dist(x, Lambda) and nearest offset on real points.

        ``x`` may come in any order.  ``exclude`` (one offset per point, -1
        for none) gives log|S(x)/(x - lambda_k)| for that node k instead;
        excluded nodes must lie in the near window of their point.  Points
        run in blocks of ``_BLOCK``, so every pass over them stays in cache.
        """
        x = np.asarray(x, dtype=np.float64)
        K = self.K
        n = np.floor(x).astype(np.int64)
        n_base, n_top = int(n.min()), int(n.max())
        if n_base - _W_NEAR < -K or n_top + _W_NEAR > K:
            raise ValueError(
                "evaluation points too close to the window edge; "
                "enlarge the node window"
            )
        moments = self._conv_moments(n_base, n_top)
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.int64)
        L_out = np.empty(x.size)
        dist = np.empty(x.size)
        nearest = np.empty(x.size, dtype=np.int64)
        for c0 in range(0, x.size, _BLOCK):
            b = slice(c0, c0 + _BLOCK)
            L = self._near_logs(x[b], n[b],
                                None if exclude is None else exclude[b],
                                dist[b], nearest[b])
            L += self._far_logs(x[b], n[b], n[b] - n_base, *moments)
            L -= self.total_lognorm
            if self.tail is not None:
                L += self.tail.log_tail(x[b])
            L_out[b] = L
        return L_out, dist, nearest

    def _near_logs(self, x, n, exclude, dist, nearest):
        """Near-window part of ``logabs_real``: log|prod (x - lambda)| over
        the 2 _W_NEAR + 1 nodes around floor(x); fills ``dist`` and
        ``nearest``.

        Each point reads its nodes as one row of a sliding view over the
        positions.  Since |delta| <= 1.5, a node more than ``_BAND`` slots
        from floor(x) lies strictly farther than node floor(x) itself, so
        the nearest node is sought in that band alone (ties go to the lower
        offset, as in a full scan).  The window's factors are multiplied
        with one left out, the excluded node's or else the nearest node's,
        and take one log; log(dist) is then added back at points without
        an exclusion.
        """
        offset = n + (self.K - _W_NEAR)  # array offset of each window start
        windows = sliding_window_view(self._kernel_pos, 2 * _W_NEAR + 1)
        band = slice(_W_NEAR - _BAND, _W_NEAR + _BAND + 1)
        hit = None
        if exclude is not None:
            hit = exclude >= 0
            col = exclude - offset
            if np.any(hit & ((col < 0) | (col > 2 * _W_NEAR))):
                raise ValueError("excluded node outside near window")
        near = np.empty(x.size)
        # window slot by point: whole-row passes run along the points
        absd = np.empty((2 * _W_NEAR + 1, min(x.size, _NEAR_ROWS)))
        # off the axis the differences are complex, and np.abs takes the
        # same complex modulus as nearest_nodes
        diff = absd if self.real else np.empty(absd.shape, np.complex128)
        for c0 in range(0, x.size, _NEAR_ROWS):
            c1 = min(c0 + _NEAR_ROWS, x.size)
            pts = np.arange(c1 - c0)
            d = absd[:, :c1 - c0]
            np.subtract(windows[offset[c0:c1]].T, x[c0:c1],
                        out=diff[:, :c1 - c0])
            np.abs(diff[:, :c1 - c0], out=d)
            imin = np.argmin(d[band], axis=0) + band.start
            dist[c0:c1] = d[imin, pts]
            nearest[c0:c1] = offset[c0:c1] + imin
            drop = imin if hit is None else np.where(hit[c0:c1],
                                                     col[c0:c1], imin)
            d[drop, pts] = 1.0
            near[c0:c1] = np.prod(d, axis=0)
        with np.errstate(divide="ignore"):
            # a point exactly on a node yields -inf: the true log zero
            np.log(near, out=near)
            logd = np.log(dist)
        near += logd if hit is None else np.where(hit, 0.0, logd)
        return near

    def _far_logs(self, x, n, cell, M0, Ts):
        """Far-field part of ``logabs_real``: the FFT moments' Taylor series
        in x - (floor(x) + 1/2), plus the special nodes beyond the window."""
        u = x - (n + 0.5)
        lf = M0[cell]
        upow = u.copy()
        term = np.empty_like(u)
        for s in range(1, _S_ORD + 1):
            sign = 1.0 if s % 2 == 1 else -1.0
            np.multiply(upow, sign / s, out=term)
            term *= Ts[s][cell]
            lf += term
            upow *= u
        for so in self.special_offs:
            k_s = int(self.seq.indices[so])
            far_mask = np.abs(k_s - n) > _W_NEAR
            if np.any(far_mask):
                lf[far_mask] += np.log(np.abs(x[far_mask]
                                              - self._kernel_pos[so]))
        return lf

    def sign_real(self, x, exclude=None):
        """Sign of the (real) product at real points off the zero set; at a
        point with node ``exclude[i]`` (an offset, -1 for none) the sign of
        the divided product S(x)/(x - lambda_k).

        Each nonzero node's factor (lambda - x)/lambda is negative when
        exactly one of lambda < x, lambda < 0 holds; the zero node's factor
        x is counted negative for x <= 0.  Dividing by x - lambda_k flips
        the sign when lambda_k >= x (at x = lambda_k this gives the sign of
        S'(lambda_k)).
        """
        x = np.asarray(x, dtype=np.float64)
        negative = (np.searchsorted(self._nonzero_sorted, x, side="left")
                    + self._n_neg_inv
                    + (np.any(self.zero_mask) & (x <= 0)))
        if exclude is not None:
            exc = np.asarray(exclude, dtype=np.int64)
            negative += (exc >= 0) & (self.pos.real[exc] >= x)
        return np.where(negative % 2 == 0, 1.0, -1.0)
