"""Cross-checks between the two product-evaluation paths and the tail
series, against closed-form and brute-force oracles."""
import math

import mpmath
import numpy as np
import pytest

from pwinterp import (FamilySpec, GridSpec, NodeSequence, SampleSet,
                      build_generating_function, full_verdict,
                      integer_lattice, make_family, reconstruct)
from pwinterp._engine import (_BLOCK, _SERIES_COEF, _W_NEAR, ProductCore,
                              _fast_len, nearest_nodes)
from pwinterp._tails import (_hurwitz_zeta, build_tail, lattice_shifts,
                             tail_from_shifts)
from pwinterp.genfn import sampled_power_sums


def _core(kind, d=0.0, K=2048, seed=0, tail=True):
    spec = FamilySpec(kind, d, seed=seed)
    seq = integer_lattice(K) if kind == "integer" else make_family(spec, K)
    return ProductCore(seq, build_tail(seq) if tail else None)


def all_pairs_nearest(pos, z):
    """dist(z, pos) and the nearest offset by a scan over every node (ties
    to the lowest offset), 256 points at a time."""
    z = np.asarray(z, dtype=complex)
    dist = np.empty(z.size)
    nearest = np.empty(z.size, dtype=np.int64)
    for c0 in range(0, z.size, 256):
        absd = np.abs(z[c0:c0 + 256, None] - pos[None, :])
        nearest[c0:c0 + 256] = np.argmin(absd, axis=1)
        dist[c0:c0 + 256] = np.min(absd, axis=1)
    return dist, nearest


def _bulk_sprime(core, sel):
    """S' and log|S'| at node offsets ``sel`` from the bulk kernel: the
    divided product S(x)/(x - lambda_n) at x = lambda_n, each node its own
    nearest."""
    lam = core.pos.real[sel]
    L, _, nearest = core.logabs_real(lam)
    assert np.array_equal(nearest, sel)
    return core.sign_real(lam, nearest) * np.exp(L), L


def _pointwise_sprime(core, sel):
    """S' at node offsets ``sel`` from the pointwise kernel."""
    return core.eval_points(core.pos[sel], exclude=sel)


def _tail_node(kind, d, k):
    """lambda_k beyond the window, each kind's pattern written out on its
    own (mpf); the random kind's is the lattice, the zero-mean continuation
    that a fit of its draws approaches."""
    k = mpmath.mpf(k)
    if kind in ("integer", "random"):
        return k
    if kind == "constant_shift":
        return k + d
    if kind == "signed":
        return k + mpmath.sign(k) * d
    return k + (d if int(k) % 2 == 0 else -d)  # alternating


_N_DIRECT = 64  # tail indices per side summed term by term
_EM_ORDER = 8   # Bernoulli terms of the Euler-Maclaurin remainder


def _exact_tail_coeffs(kind, d, K, n_terms):
    """C_P = -(1/P) sum_{|k|>K} lambda_k^(-P) in 40-digit arithmetic.

    The first ``_N_DIRECT`` indices on each side are summed directly; past
    them each parity class on each side is lambda = +-(q + 2l), l >= 0,
    whose power sums follow from Euler-Maclaurin summation with exact
    derivatives (its error is far below double precision).  At P = 1 the
    two sides are summed as pairs, which converges.
    """
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        sums = [mpmath.mpf(0)] * (n_terms + 1)
        for k in range(K + 1, K + 1 + _N_DIRECT):
            for side in (1, -1):
                inv = 1 / _tail_node(kind, d, side * k)
                for P in range(1, n_terms + 1):
                    sums[P] += inv ** P
        for k0 in (K + 1 + _N_DIRECT, K + 2 + _N_DIRECT):
            # progressions q + 2l with q = +-lambda at the first index
            qs = {1: _tail_node(kind, d, k0), -1: -_tail_node(kind, d, -k0)}
            for P in range(1, n_terms + 1):
                for side, q in qs.items():
                    # sum_l f(l), f(l) = (q + 2l)^(-P)
                    em = 1 / (2 * q ** P)
                    if P > 1:
                        em += 1 / (2 * (P - 1) * q ** (P - 1))
                    else:  # the pair's integral, (log q- - log q+) / 2
                        em -= mpmath.log(q) / 2
                    for j in range(1, _EM_ORDER + 1):
                        n = 2 * j - 1  # f^(n)(0) = (-2)^n (P)_n q^(-P-n)
                        deriv = (-2) ** n * mpmath.rf(P, n) / q ** (P + n)
                        em -= mpmath.bernoulli(2 * j) / mpmath.factorial(
                            2 * j) * deriv
                    sums[P] += side ** P * em
        return [mpmath.mpf(0)] + [-sums[P] / P
                                  for P in range(1, n_terms + 1)]


def _check_tail_against_exact_sums(kind, d, K, atol):
    # the closed form on the pattern's exact shifts at K+1, K+2
    j = (K + 1, K + 2)
    a = [float(_tail_node(kind, d, jj) - jj) for jj in j]
    b = [float(_tail_node(kind, d, -jj) + jj) for jj in j]
    tail = tail_from_shifts(np.array(a), np.array(b), K)
    coeffs = _exact_tail_coeffs(kind, d, K, tail.coeffs.size - 1)
    r = tail.radius
    # the circle is pulled in by a few ulps so rounding keeps it inside r
    circle = np.exp(2j * np.pi * np.arange(16) / 16)
    z = np.concatenate([np.linspace(-r, r, 41), r * (1 - 1e-15) * circle])
    with mpmath.workdps(40):
        expect = np.array([complex(mpmath.polyval(coeffs[::-1],
                                                  mpmath.mpmathify(zz)))
                           for zz in z])
    np.testing.assert_allclose(tail.log_tail(z), expect, rtol=0.0, atol=atol)


class TestTailSeries:
    def test_lattice_tail_vs_brute(self):
        K = 200
        tail = build_tail(integer_lattice(K))
        ks = np.arange(K + 1, 2_000_000, dtype=float)
        for z in (0.5, 3.0, 10.0, 40.0):
            brute = np.sum(np.log1p(-z * z / ks ** 2)) - z * z / ks[-1]
            assert tail.log_tail(np.asarray(z)) == pytest.approx(brute,
                                                                 abs=1e-7)

    def test_constant_tail_has_odd_part(self):
        K = 100
        tail = build_tail(make_family(FamilySpec("constant_shift", 0.3), K))
        # odd coefficients present: T(z) != T(-z)
        assert abs(tail.log_tail(np.asarray(10.0))
                   - tail.log_tail(np.asarray(-10.0))) > 1e-6

    @pytest.mark.parametrize("K", [100, 101])
    @pytest.mark.parametrize("kind,d", [("integer", 0.0), ("random", 0.4),
                                        ("constant_shift", 0.3),
                                        ("signed", 0.25), ("signed", -0.2),
                                        ("alternating", 0.3),
                                        ("alternating", -0.2)])
    def test_shift_streams_match_per_kind_formulas(self, kind, d, K):
        # T(z) on the segment [-r, r] and the circle |z| = r, r = (K+1)/4,
        # against exact sums over each kind's own node formula
        _check_tail_against_exact_sums(kind, d, K, atol=1e-12)

    def test_large_window_matches_exact_sums(self):
        _check_tail_against_exact_sums("alternating", 0.3, 1 << 15,
                                       atol=1e-10)

    def test_large_window_digamma_difference_does_not_cancel(self):
        # C_1 near K/2 is a difference of two digamma values near
        # log(K/2); taken apart, it cost 1.6e-11 here
        _check_tail_against_exact_sums("alternating", 0.3, 1 << 15,
                                       atol=1e-12)

    @pytest.mark.parametrize("K", [1, 8, 9])
    @pytest.mark.parametrize("kind,d", [("alternating", 0.45),
                                        ("constant_shift", -0.7),
                                        ("signed", 0.25)])
    def test_small_window_shifts_digamma_arguments(self, kind, d, K):
        # (j +- delta)/2 < 16: the digamma arguments are shifted up first
        _check_tail_against_exact_sums(kind, d, K, atol=1e-14)

    def test_trust_radius_cuts_series(self):
        tail = build_tail(make_family(FamilySpec("signed", 0.25), 99))
        z = np.array([25.0, -25.0, 25.0 + 1e-9, 25j, -26j])
        T = tail.log_tail(z)
        assert np.all(T[[0, 1, 3]] != 0) and np.all(T[[2, 4]] == 0)

    @pytest.mark.parametrize("K", [100, 101])
    @pytest.mark.parametrize("kind,d", [("integer", 0.0),
                                        ("constant_shift", 0.3),
                                        ("signed", -0.2),
                                        ("alternating", 0.3)])
    def test_fit_reads_the_pattern(self, kind, d, K):
        # a generated window's outer half continues with its own pattern,
        # per side and per parity of K+1, K+2
        spec = FamilySpec(kind, d)
        j = np.array([K + 1, K + 2])
        expect = tail_from_shifts(spec.delta(j), spec.delta(-j), K)
        got = build_tail(make_family(spec, K))
        np.testing.assert_allclose(got.coeffs, expect.coeffs, rtol=1e-12,
                                   atol=0.0)
        assert got.radius == expect.radius

    @pytest.mark.parametrize("name", ["one-sided", "7k", "shift 1.6",
                                      "K = 1"])
    def test_window_without_continuation_has_no_tail(self, name):
        # not index-contiguous, |lambda_k - k| > 1.5, or too small to fit
        k = np.arange(-64, 65)
        seq = {"one-sided": _oracle_windows()["one-sided"],
               "7k": NodeSequence(k, 7.0 * k),
               "shift 1.6": NodeSequence(k, k + 1.6 * (k == 10)),
               "K = 1": NodeSequence([-1, 0, 1], [-1.1, 0.0, 1.1])}[name]
        assert build_tail(seq) is None
        gf = build_generating_function(seq)
        assert not gf.tail_compensated and gf.trust_radius == np.inf

    def test_complex_window_tail_matches_its_continuation(self):
        # k + 0.1i(-1)^k continues with real shift 0; its tail's Re T on
        # [-r, r] against a direct sum over the complex nodes |k| > K
        from scipy.special import polygamma
        K, eps = 4096, 0.1
        k = np.arange(-K, K + 1)
        tail = build_tail(NodeSequence(k, k + 1j * eps * (-1.0) ** k))
        x = np.linspace(-tail.radius, tail.radius, 41)
        # the pair +-k: |(1 - x/lambda_k)(1 - x/lambda_-k)|^2
        # = (1 - x^2/q)^2 + (2 eps x/q)^2 with q = k^2 + eps^2
        n = 1 << 18
        q = np.arange(K + 1, n + 1, dtype=float) ** 2 + eps ** 2
        direct = np.array([0.5 * np.sum(np.log1p(
            -2 * xx ** 2 / q + (xx ** 2 / q) ** 2 + (2 * eps * xx / q) ** 2))
            for xx in x])
        # pairs past n: -x^2 sum k^-2 - (x^4/2) sum k^-4, error ~ x^6/n^5
        rest = (-x ** 2 * polygamma(1, n + 1)
                - x ** 4 / 2 * polygamma(3, n + 1) / 6)
        np.testing.assert_allclose(tail.log_tail(x), direct + rest,
                                   rtol=0.0, atol=1e-6)


class TestClosedFormNumerics:
    # q = 0.75 is the smallest Hurwitz argument of a K = 2 window,
    # (K + 1 - MAX_SHIFT)/2; 15.9 and 16 sit either side of the shift bound
    @pytest.mark.parametrize("q", [0.75, 15.9, 16.0, 1000.5, 2.0 ** 20])
    def test_hurwitz_zeta_matches_mpmath(self, q):
        got = [float(_hurwitz_zeta(P, np.array([q]))[0])
               for P in range(2, 17)]
        with mpmath.workdps(50):
            qq = mpmath.mpf(q)
            # the direct sum, each term scaled by q^P so that nsum's
            # tolerance is relative to the sum
            expect = [float(mpmath.nsum(lambda i: (1 + i / qq) ** -P,
                                        [0, mpmath.inf], method="e")
                            * qq ** -P)
                      for P in range(2, 17)]
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)

    def test_fast_len_is_scipys_real_fft_length(self):
        from scipy.fft import next_fast_len
        # every n below 2^12, then every 5-smooth length up to 2^20 and
        # its neighbours, where the answer changes
        smooth = sorted(2 ** i * 3 ** j * 5 ** k for i in range(21)
                        for j in range(13) for k in range(9)
                        if 2 ** i * 3 ** j * 5 ** k <= 1 << 20)
        ns = sorted(set(range(1, 1 << 12)).union(
            *({h - 1, h, h + 1} for h in smooth if h > 1)) - {(1 << 20) + 1})
        assert [_fast_len(n) for n in ns] == [
            next_fast_len(n, real=True) for n in ns]


def _oracle_windows():
    k = np.arange(-128, 129)
    one_sided = np.arange(0, 200)
    return {
        "symmetric": make_family(FamilySpec("signed", 0.25), 128),
        "zero node": integer_lattice(100),
        "one-sided": NodeSequence(one_sided,
                                  one_sided + 1.0 + 0.3 * np.sin(one_sided)),
        "complex": NodeSequence(k, k + 0.1j * (-1.0) ** k),
    }


def _mp_divided(pos, z, k=-1):
    """S(z) as the plain window product in 50-digit arithmetic, divided by
    z - lambda_k when k >= 0."""
    import mpmath
    with mpmath.workdps(50):
        # with k >= 0, a step of 1e-30 (far below double resolution) keeps
        # the division defined at z = lambda_k, where it gives S'(lambda_k)
        z = mpmath.mpc(z) + (mpmath.mpf("1e-30") if k >= 0 else 0)
        out = mpmath.mpc(1)
        for lam in map(mpmath.mpc, pos):
            out *= z if lam == 0 else 1 - z / lam
        if k >= 0:
            out /= z - mpmath.mpc(pos[k])
        return complex(out)


class TestProductOracle:
    """``eval_points`` on uncompensated cores against a 50-digit product;
    the divided value S(z)/(z - lambda_k) also pins that every node's
    factor is taken exactly once."""

    @pytest.mark.parametrize("name", list(_oracle_windows()))
    def test_matches_mpmath(self, name, rng):
        seq = _oracle_windows()[name]
        core = ProductCore(seq, None)
        pos = seq.positions
        lo, hi = pos.real.min(), pos.real.max()
        span = hi - lo
        z = rng.uniform(lo + 0.2 * span, hi - 0.2 * span, 12) + 0j
        z[6:] += 1j * rng.uniform(-2.0, 2.0, 6)
        exclude = rng.integers(0, pos.size, z.size)
        exclude[::4] = -1
        exclude[1] = int(np.argmin(np.abs(pos - z[1])))
        # at a node the divided product is S'(lambda_k)
        at_node = rng.integers(pos.size // 4, 3 * pos.size // 4, 6)
        if np.any(pos == 0):
            at_node[0] = int(np.flatnonzero(pos == 0)[0])
        cases = [(z, np.full(z.size, -1)), (z, exclude),
                 (pos[at_node], at_node)]
        for pts, exc in cases:
            got = core.eval_points(pts, exclude=exc)
            expect = np.array([_mp_divided(pos, p, k)
                               for p, k in zip(pts, exc)])
            assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-12

    @pytest.mark.parametrize("n_nonzero", [1, 64, 65])
    def test_chunk_edges_match_mpmath(self, n_nonzero, rng):
        # 1 node pads a whole chunk, 64 fill it exactly, 65 spill one node
        # into a second chunk padded with 63 cells; the zero node rides
        # along on the first two
        if n_nonzero == 65:
            k = np.arange(65)
            pos = k + 0.5 + 0.2 * np.sin(k) + 0.05j * np.cos(k)
        else:
            k = np.arange(-(n_nonzero // 2), n_nonzero - n_nonzero // 2 + 1)
            pos = k + 0.2 * np.sin(k) + 0.05j * np.sin(2 * k)
        core = ProductCore(NodeSequence(k, pos), None)
        assert np.count_nonzero(pos) == n_nonzero
        z = (rng.uniform(pos.real.min() - 1, pos.real.max() + 1, 12)
             + 1j * rng.uniform(-2.0, 2.0, 12))
        exclude = rng.integers(0, pos.size, z.size)
        exclude[::3] = -1
        at_node = np.arange(pos.size)
        for pts, exc in [(z, exclude), (pos, at_node)]:
            got = core.eval_points(pts, exclude=exc)
            expect = np.array([_mp_divided(pos, p, k)
                               for p, k in zip(pts, exc)])
            assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-12

    def test_bulk_logabs_on_complex_window(self, rng):
        # Im lambda enters the near distances, Re(delta^j) the far moments
        seq = _oracle_windows()["complex"]
        core = ProductCore(seq, None)
        assert core.fast_ok
        x = rng.uniform(-100.0, 100.0, 12)
        L, _, nearest = core.logabs_real(x)
        expect = np.log(np.abs([_mp_divided(seq.positions, p, n)
                                for p, n in zip(x, nearest)]))
        assert np.max(np.abs(L - expect)) < 1e-8


class TestPointwisePath:
    def test_lattice_matches_sine(self):
        core = _core("integer", K=2000)
        x = np.linspace(-10, 10, 401)
        vals = core.eval_points(x.astype(complex))
        assert np.max(np.abs(vals - np.sin(np.pi * x) / np.pi)) < 1e-10

    def test_exact_zero_at_nodes(self):
        core = _core("integer", K=500)
        z = np.array([3.0 + 0j, -7.0 + 0j, 0.0 + 0j])
        assert np.all(core.eval_points(z) == 0)

    def test_conjugate_symmetry(self):
        core = _core("alternating", 0.2, K=512)
        z = np.array([0.3 + 1.7j, -2.2 + 0.4j, 5.5 - 3.1j])
        a = core.eval_points(z)
        b = core.eval_points(np.conj(z))
        assert np.max(np.abs(np.conj(a) - b)) < 1e-12 * np.max(np.abs(a))

    def test_overflow_reported(self):
        from pwinterp._engine import OverflowReported
        core = _core("integer", K=512, tail=False)
        with pytest.raises(OverflowReported):
            core.eval_points(np.array([400.0 + 400.0j]))

    def test_chunk_overflow_reported(self):
        # one 64-factor chunk of a one-sided window already overflows here
        from pwinterp._engine import OverflowReported
        k = np.arange(200)
        core = ProductCore(NodeSequence(k, k + 1.0), None)
        with pytest.raises(OverflowReported), np.errstate(all="ignore"):
            core.eval_points(np.array([1e7 + 0j]))

    def test_point_blocks_match_one_call_per_part(self, rng):
        # a batch over more than three passes, with exclusions, gives every
        # point bit for bit the value it has when evaluated alone
        from pwinterp._engine import _PASS_FACTORS
        k = np.arange(-1024, 1025)
        core = ProductCore(NodeSequence(k, k + 0.1j * (-1.0) ** k), None)
        n = 3 * (_PASS_FACTORS // core.pointwise_layout().size) + 3
        z = rng.uniform(-30, 30, n) + 1j * rng.uniform(-2, 2, n)
        exc = np.where(rng.random(n) < 0.2, rng.integers(0, k.size, n), -1)
        whole = core.eval_points(z, exc)
        assert np.array_equal(whole, np.concatenate(
            [core.eval_points(z[i:i + 1], exc[i:i + 1]) for i in range(n)]))

    def test_racing_first_calls_share_one_layout(self, rng):
        # the layout is built on a core's first pointwise call and set
        # whole, the node array last: eight threads racing on that call of
        # a fresh core all get the values of a serial call
        import sys
        import threading
        k = np.arange(-512, 513)
        seq = NodeSequence(k, k + 0.1j * (-1.0) ** k)
        z = rng.uniform(-30, 30, 64) + 1j * rng.uniform(-2, 2, 64)
        expect = ProductCore(seq, None).eval_points(z)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                core = ProductCore(seq, None)
                out = [None] * 8

                def run(i, core=core, out=out):
                    out[i] = core.eval_points(z)
                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert all(np.array_equal(v, expect) for v in out)
        finally:
            sys.setswitchinterval(interval)

    def test_full_window_lattice_matches_sine(self, rng):
        # K = 2^15: 1024 chunks; at z = x + 200i, |S| is about 1e270, so
        # the summed exponents pass through every level of the reduction;
        # at |x| ~ 5000 the chunks below |x| alone multiply to about
        # e^10000, so the levels must rescale before the total comes back
        core = _core("integer", K=1 << 15)
        x = rng.integers(-50, 50, 30) + rng.uniform(0.1, 0.9, 30)
        x[:2] = -5000.25, 5000.5
        z = np.concatenate([x, x[:15] + 1j * rng.uniform(-3.0, 3.0, 15),
                            np.linspace(-40.3, 40.7, 8) + 200j,
                            np.linspace(-40.3, 40.7, 8) - 200j])
        got = core.eval_points(z)
        expect = np.sin(np.pi * z) / np.pi
        assert np.max(np.abs(expect[-16:])) > 1e270
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-10


class TestPointwiseMemory:
    """Working memory of ``eval_points`` and the per-core arrays stay
    bounded; numpy reports its buffers to ``tracemalloc``."""

    @pytest.fixture(scope="class")
    def core(self):
        k = np.arange(-4096, 4097)
        seq = NodeSequence(k, k + 0.1j * (-1.0) ** k)
        return ProductCore(seq, build_tail(seq))

    def test_eval_points_peak(self, core, rng):
        import tracemalloc
        z = rng.uniform(-500, 500, 20_000) + 1j * rng.uniform(-1, 1, 20_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            core.eval_points(z)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_core_arrays(self, core):
        # the pointwise layout is built on the first pointwise call
        core.eval_points(np.array([0.5 + 0.5j]))
        seq = core.seq
        own = [a for a in vars(core).values() if isinstance(a, np.ndarray)
               and not np.shares_memory(a, seq.positions)
               and not np.shares_memory(a, seq.indices)]
        assert sum(a.nbytes for a in own) <= 400 << 10


class TestBulkMemory:
    """Working memory of the bulk kernel's first call and what a core keeps
    between calls; numpy reports its buffers to ``tracemalloc``."""

    def test_first_call_peak(self):
        # the genfn-dump grid: 800,001 points over 8001 cells at K = 2^15
        import tracemalloc
        seq = make_family(FamilySpec("signed", 0.2), 1 << 15)
        core = ProductCore(seq, build_tail(seq))
        x = GridSpec.parse("-4000:4000:0.01").points()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            core.logabs_real(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 36 << 20

    def test_cache_after_call(self):
        # the reconstruct grid: 32,001 points over 321 cells at K = 2^15
        import gc
        import tracemalloc
        seq = integer_lattice(1 << 15)
        core = ProductCore(seq, build_tail(seq))
        x = GridSpec(-160.0, 160.0, 0.01).points()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = core.logabs_real(x)
            del out
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 1 << 20


def _bulk_oracle_windows(rng):
    """Seven K = 256 windows for the bulk kernel, with the offsets of their
    nodes at |delta| > 0.95: none, 20 at 1.5 or 1.4 in modulus, or all of
    them (the translate k - 1.5, which moves every far node toward one
    side of a cell, real shifts of random sign with magnitudes drawn from
    (0.95, 1.5], and such moduli at random angles)."""
    K = 256
    k = np.arange(-K, K + 1)
    small = rng.uniform(-0.45, 0.45, k.size)
    wide = np.arange(20, k.size - 20, 24)  # 20 nodes
    one_five = small.copy()
    one_five[wide] = np.where(np.arange(wide.size) % 2, 1.5, -1.5)
    offaxis = 0.3 * small + 0.1j * (-1.0) ** k
    offaxis_wide = offaxis.copy()
    offaxis_wide[wide] = np.where(np.arange(wide.size) % 2, 1.4j, -1.4j)
    # drawn apart, so that the windows above stay as they are
    draw = rng.spawn(1)[0]
    every_complex = (draw.uniform(np.nextafter(0.95, 1.0), 1.5, k.size)
                     * np.exp(1j * draw.uniform(0.0, 2 * np.pi, k.size)))
    every_real = (draw.uniform(np.nextafter(0.95, 1.0), 1.5, k.size)
                  * draw.choice([-1.0, 1.0], k.size))
    none = np.array([], dtype=np.int64)
    every = np.arange(k.size)
    return {"real": (NodeSequence(k, k + small), none),
            "real 1.5": (NodeSequence(k, k + one_five), wide),
            "complex": (NodeSequence(k, k + offaxis), none),
            "complex 1.4i": (NodeSequence(k, k + offaxis_wide), wide),
            "real shift -1.5": (NodeSequence(k, k - 1.5), every),
            "real all wide": (NodeSequence(k, k + every_real), every),
            "complex all wide": (NodeSequence(k, k + every_complex), every)}


def _wide_count(seq):
    """The number of nodes more than 0.95 from their index."""
    return np.count_nonzero(np.abs(seq.positions - seq.indices) > 0.95)


def _full_order_far_moments(core, n_min, n_max):
    """The far field's cell-table rows 0..5 at full order, whatever the
    window's shifts: every delta moment to j = 8 and every kernel to
    m^-13, as the kernel took them before the truncation rule."""
    K = core.K
    o_min, o_max = n_min - K, n_max + K
    L = _fast_len(o_max - o_min + 1)
    delta = lattice_shifts(core.seq)
    if core.real:
        delta = delta.real
    dhat = []
    data = np.ones_like(delta)
    for j in range(9):
        if j:
            data = data * delta
        dhat.append(np.fft.rfft(data.real, L) if np.any(data.real)
                    else None)
    o = np.arange(o_min, o_max + 1, dtype=np.float64)
    far = np.abs(o) > _W_NEAR
    m = o + 0.5
    with np.errstate(divide="ignore"):
        kern = np.where(far, np.log(np.abs(m)), 0.0)
    inv = np.where(far, 1.0 / m, 0.0)
    acc = np.zeros((6, L // 2 + 1), dtype=np.complex128)
    scratch = np.empty(L // 2 + 1, dtype=np.complex128)
    for P in range(14):
        if P == 1:
            kern = inv.copy()
        elif P > 1:
            kern *= inv
        terms = [(s, P - s) for s in range(min(P, 5) + 1)
                 if P - s <= 8 and dhat[P - s] is not None]
        if not terms:
            continue
        khat = np.fft.rfft(kern, L)
        for s, j in terms:
            coef = (1.0 if P == 0 else -1.0 / j if s == 0
                    else _SERIES_COEF[s] * math.comb(s + j - 1, j))
            np.multiply(dhat[j], khat, out=scratch)
            scratch *= coef
            acc[s] += scratch
    return np.array([np.fft.irfft(acc[s], L)[2 * K:2 * K + n_max - n_min + 1]
                     for s in range(6)])


def _truncation_bound(D):
    """The far field's bound on the budgeted table less the full-order one,
    at the window's largest shift D, on |u| <= 1/2: the term u^s
    Re(delta^j) m^-(s+j) is below C(s+j-1, j) D^j 2^-s/(s 24.5^(s+j)) per
    node (D^j/(j 24.5^j) for s = 0), the sum of |m|^-P over |m| >= 24.5 is
    below 2 (1 + 24.5/(P - 1)) 24.5^-P, and the terms counted are those
    that one of the two keeps and the other does not: the full order keeps
    j <= 8, the rule every term above 3e-13 per node and s + j <= 1."""
    def per_node(s, j):
        return (D ** j / (j * 24.5 ** j) if s == 0 else math.comb(s + j - 1, j)
                * D ** j / (2 ** s * s * 24.5 ** (s + j)))
    full = {(s, j) for s in range(6) for j in range(9)}
    rule = {(s, j) for s in range(6) for j in range(16)
            if s + j <= 1 or per_node(s, j) > 3e-13}
    return sum(per_node(s, j) * 2 * (1 + 24.5 / (s + j - 1))
               for s, j in full ^ rule)


class TestFarTruncation:
    """The far field's terms cut at the window's own largest shift, against
    the full-order table."""

    @pytest.mark.parametrize("name", ["real", "real 1.5", "complex",
                                      "complex 1.4i", "real shift -1.5",
                                      "real all wide", "complex all wide",
                                      "signed:0.1", "random:0.35"])
    def test_within_the_bound_of_full_order(self, name, rng):
        if ":" in name:
            # a K = 2^15 verdict's sweep range, x_max = 8192
            kind, d = name.split(":")
            seq = make_family(FamilySpec(kind, float(d), seed=5), 1 << 15)
            n_min, n_max = -8192, 8191
        else:
            seq = _bulk_oracle_windows(rng)[name][0]
            n_min, n_max = 25 - seq.half_width, seq.half_width - 25
        core = ProductCore(seq, None)
        D = float(np.max(np.abs(seq.positions - seq.indices)))
        ref = _full_order_far_moments(core, n_min, n_max)
        got = np.empty_like(ref)
        core._far_moments(n_min, n_max, got)
        # the largest change of each cell's polynomial on |u| <= 1/2
        err = np.sum(np.abs(got - ref) * 0.5 ** np.arange(6)[:, None], axis=0)
        # row 0 is the sum of log|m|, up to 6.2e5 at K = 2^15: a few ulps
        # of it are the rounding of the transforms.  Measured: at most 0.40
        # of the bound at K = 256 (real shift -1.5, 6.2e-12 of 1.3e-11 +
        # 2.2e-12), and 1.2e-10 of 5.5e-10 on random:0.35 at K = 2^15
        bound = (_truncation_bound(D)
                 + 4 * np.finfo(float).eps * np.max(np.abs(ref[0])))
        assert np.max(err) <= bound


class TestGridPath:
    @pytest.mark.parametrize("kind,d", [("integer", 0.0),
                                        ("signed", 0.25),
                                        ("constant_shift", 0.3),
                                        ("alternating", 0.3),
                                        ("random", 0.4)])
    def test_agrees_with_pointwise(self, kind, d, rng):
        core = _core(kind, d, K=2048, seed=9)
        xs = rng.uniform(-400, 400, 1200)  # any order
        L, dist, nearest = core.logabs_real(xs)
        # the divided product D, and S = D (x - lambda_n) through value
        for got, vals in ((L, core.eval_points(xs.astype(complex), nearest)),
                          (L + np.log(dist),
                           core.eval_points(xs.astype(complex)))):
            assert np.max(np.abs(got - np.log(np.abs(vals)))) < 1e-7
        # sign reconstruction matches the signed products
        D = core.sign_real(xs, nearest) * np.exp(L)
        for got, vals in ((D, core.eval_points(xs.astype(complex), nearest)),
                          (core.value(xs), core.eval_points(xs))):
            assert np.max(np.abs(got - vals.real)) < 1e-6 * np.max(
                np.abs(vals))

    @pytest.mark.parametrize("name", ["real", "real 1.5", "complex",
                                      "complex 1.4i", "real shift -1.5",
                                      "real all wide", "complex all wide"])
    def test_matches_fsum_of_logs(self, name, rng):
        # log|D| of the bare window, the nearest node left out, and log|S|
        # = log|D| + log dist against exactly rounded sums of the logs; the
        # cell-edge points u -> +-1/2 put a node at 1.5 off its index in
        # slot +-5, where the mid-field series converges slowest.  The
        # translate k - 1.5 moves every far node toward one side of each
        # cell, so the far field's first omitted order, u^6, adds up there
        # rather than cancelling.  The points keep 56 slots from the
        # window edge
        import math
        seq, wide = _bulk_oracle_windows(rng)[name]
        core = ProductCore(seq, None)
        assert core.fast_ok and _wide_count(seq) == wide.size
        pos = seq.positions
        cells = (seq.indices[wide][:, None] + np.array([-5, 5])).ravel()
        x = np.concatenate([rng.uniform(-200.0, 200.0, 2000), cells,
                            np.nextafter(cells + 1.0, cells)])
        x = x[np.abs(x) < 200.0]
        norm = np.log(np.abs(pos[pos != 0])).tolist()
        L, dist, nearest = core.logabs_real(x)
        for got, divided in ((L, True), (L + np.log(dist), False)):
            expect = []
            for i, xx in enumerate(x):
                logs = np.log(np.abs(xx - pos))
                if divided:
                    logs = np.delete(logs, nearest[i])
                expect.append(math.fsum(logs.tolist() + [-v for v in norm]))
            assert np.max(np.abs(got - expect)) < 2e-9

    def test_nearest_and_dist(self, rng):
        core = _core("random", 0.4, K=256, seed=4)
        xs = np.sort(rng.uniform(-100, 100, 300))
        _, dist, nearest = core.logabs_real(xs)
        brute = np.abs(xs[:, None] - core.pos[None, :])
        assert np.allclose(dist, brute.min(axis=1))
        assert np.array_equal(nearest, np.argmin(brute, axis=1))

    def test_exclusion_agrees(self, rng):
        core = _core("signed", 0.25, K=1024)
        xs = np.sort(rng.uniform(-50, 50, 64))
        L, _, nearest = core.logabs_real(xs)
        vals = core.eval_points(xs.astype(complex), exclude=nearest)
        assert np.max(np.abs(L - np.log(np.abs(vals)))) < 1e-8

    @pytest.mark.parametrize("name", ["special", "signed", "ties",
                                      "offaxis-alternating",
                                      "offaxis-random", "complex-special"])
    def test_band_nearest_is_full_scan(self, name, rng):
        # the bulk kernel seeks the nearest node among 9 slots; a scan over
        # every node must give the same dist and offset, bit for bit
        K = 512
        k = np.arange(-K, K + 1)
        if name in ("special", "complex-special"):
            # 64 nodes between 0.95 and 1.5 off their slot: 48 at random
            # and 4 clusters that put the nearest node of x in [c + 0.9,
            # c + 1) at c + 3, the farthest slot the band can need
            delta = rng.uniform(-0.4, 0.4, k.size) + 0j
            special = rng.choice(np.arange(25, k.size - 20, 10), 48,
                                 replace=False) + rng.integers(0, 4, 48)
            starts = np.array([-302, -102, 98, 298])
            if name == "special":
                delta[special] = (rng.choice([-1.0, 1.0], 48)
                                  * rng.uniform(0.95, 1.5, 48))
                cluster = [-1.45, 1.45, 1.45, -1.45]
            else:
                # every node off the axis; |delta| is what makes a node
                # wide, and 16 of the wide ones lie within 0.95 in real part
                delta += 1j * rng.uniform(-0.25, 0.25, k.size)
                angle = rng.uniform(0.0, 2.0 * np.pi, 48)
                angle[:16] = rng.choice([-1.0, 1.0], 16) * np.pi / 2
                delta[special] = rng.uniform(0.95, 1.5, 48) * np.exp(
                    1j * angle)
                cluster = [-1.45, 1.2 + 0.8j, 1.3 + 0.7j, -1.45 + 0.3j]
            for c in starts:
                delta[c + K:c + K + 4] = cluster
            seq = NodeSequence(k, k + delta)
            x = np.concatenate([rng.uniform(-480, 480, 3000),
                                (starts[:, None]
                                 + np.linspace(0.9, 0.99, 10)).ravel(),
                                seq.positions.real[special] + 1e-9,
                                seq.positions.real[special]])
            x = x[np.abs(x) < 480]
        elif name == "signed":
            # delta = 1 at the origin node
            seq = make_family(FamilySpec("signed", 0.25), K)
            x = np.concatenate([rng.uniform(-480, 480, 3000),
                                np.linspace(-3.0, 3.0, 601)])
        elif name == "ties":
            # x = n + 1/2 lies as far from node n as from n + 1
            seq = integer_lattice(K)
            x = np.arange(-480, 480) + 0.5
        else:
            # the two complex windows of the offaxis benchmark
            eta = (0.1 * (-1.0) ** k if name == "offaxis-alternating"
                   else rng.uniform(-0.2, 0.2, k.size))
            seq = NodeSequence(k, k + 1j * eta)
            x = np.concatenate([rng.uniform(-480, 480, 3000),
                                np.arange(-480, 480, 0.25)])
        core = ProductCore(seq, None)
        assert core.fast_ok
        _, dist, nearest = core.logabs_real(x)
        ref_dist, ref_nearest = all_pairs_nearest(core.pos, x)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(nearest, ref_nearest)
        if name in ("special", "complex-special"):
            assert _wide_count(seq) == 64
            assert np.any(nearest - np.floor(x).astype(int) - K == 3)
        if name == "ties":
            # the lower offset wins the tie
            assert np.array_equal(nearest, np.floor(x).astype(int) + K)

    def test_complex_delta_bounds_use_modulus(self):
        # fast_ok is set by |delta|, not |Re delta|
        k = np.arange(-128, 129)
        delta = np.zeros(k.size, dtype=complex)
        delta[10] = 1.2 + 0.95j  # |delta| = 1.53 > 1.5
        assert not ProductCore(NodeSequence(k, k + delta), None).fast_ok
        delta[10] = 0.0
        delta[20:85:4] = 1.2j  # 17 nodes past 0.95 in modulus only
        seq = NodeSequence(k, k + delta)
        assert ProductCore(seq, None).fast_ok and _wide_count(seq) == 17
        delta[20:150:2] = 1.2j  # 65 of them: wide nodes have no cap
        assert ProductCore(NodeSequence(k, k + delta), None).fast_ok

    def test_sprime_paths_agree(self):
        core = _core("constant_shift", 0.2, K=2048)
        # node indexes within the tail-series radius K/4
        sel = np.arange(2048 - 500, 2048 + 500, 7)
        bulk, logabs = _bulk_sprime(core, sel)
        point = _pointwise_sprime(core, sel[::10])
        assert np.max(np.abs(logabs[::10] - np.log(np.abs(point)))) < 1e-8
        assert np.max(np.abs(bulk[::10] - point) / np.abs(point)) < 1e-8

    def test_window_edge_guard(self):
        core = _core("integer", K=128)
        with pytest.raises(ValueError, match="window edge"):
            core.logabs_real(np.array([120.0]))

    @pytest.mark.parametrize("kind,d,seed", [("integer", 0.0, 0),
                                             ("signed", 0.25, 0),
                                             ("signed", -0.2, 0),
                                             ("random", 0.4, 3),
                                             ("alternating", 0.3, 0)])
    def test_signed_bulk_sprime_matches_pointwise(self, kind, d, seed):
        core = _core(kind, d, K=1024, seed=seed)
        sel = np.arange(1024 - 150, 1024 + 151, 3)
        bulk, logabs = _bulk_sprime(core, sel)
        point = _pointwise_sprime(core, sel)
        assert np.max(np.abs(bulk - point) / np.abs(point)) < 1e-7
        assert np.max(np.abs(logabs - np.log(np.abs(point)))) < 1e-7
        # of these families only the lattice has a node at 0, and sel holds
        # it: S = sin(pi z)/pi there, so S'(0) = 1
        at_zero = core.pos[sel] == 0
        assert np.all(np.abs(bulk[at_zero] - 1.0) < 1e-7)


def _dyadic_grid(n0, cells, M):
    """The midpoint grid n + (j + 1/2)/M over cells n0..n0 + cells - 1, as
    ``continuous_ap`` builds it."""
    return (np.arange(n0 * M, (n0 + cells) * M) + 0.5) * (1.0 / M)


def _tile_logabs(core, n0, M, cells):
    """log|D| on the dyadic midpoint grid: the grid kernel's tiles, in row
    order, joined into one array."""
    return np.concatenate([tile.reshape(-1)
                           for tile in core.grid_tiles(n0, M, cells)])


def _takes_tiles(core, M, n_half, run=1):
    """Whether ``grid_logabs`` serves the midpoint grid of step 1/M, x_i =
    (i + 1/2)/M for i = -n_half..n_half - 1, from the grid kernel's tiles
    over the whole cells it meets, bit for bit, in rows of gcd(run, M,
    n_half) points (at most a tile): the off = -n_half % M points of each
    end cell that lie off the grid are cut."""
    off = -n_half % M
    cells = 2 * (n_half + off) // M
    tiles = _tile_logabs(core, -cells // 2, M, cells)[off:off + 2 * n_half]
    pieces = list(core.grid_logabs(1.0 / M, n_half, run))
    width = math.gcd(run, min(M, _BLOCK), n_half)
    return (all(p.shape[1] == width for p in pieces)
            and _same_bits(np.concatenate([p.ravel() for p in pieces]),
                           tiles))


def _grid_windows():
    """Five K = 2048 windows for the midpoint-grid kernel."""
    K = 2048
    k = np.arange(-K, K + 1)
    return {"lattice": integer_lattice(K),
            "signed:0.2": make_family(FamilySpec("signed", 0.2), K),
            "k - 1.5": NodeSequence(k, k - 1.5),
            "random:0.35": make_family(FamilySpec("random", 0.35, seed=1), K),
            "k + 0.1i(-1)^k": NodeSequence(k, k + 0.1j * (-1.0) ** k)}


class TestMidpointGridKernel:
    """``grid_tiles`` on the dyadic midpoint grid of ``continuous_ap``: the
    grid kernel against ``logabs_real``, exact node hits, memory, and the
    far tail carried by the cell table."""

    @pytest.fixture(scope="class")
    def cores(self):
        return {name: ProductCore(seq, build_tail(seq))
                for name, seq in _grid_windows().items()}

    @pytest.mark.parametrize("M", [1, 2, 128])
    @pytest.mark.parametrize("name", list(_grid_windows()))
    def test_agrees_with_logabs_real(self, cores, name, M):
        # 600 cells inside the trust radius 512.25; on the complex window
        # both kernels take complex moduli
        core = cores[name]
        x = _dyadic_grid(-300, 600, M)
        assert _takes_tiles(core, M, 300 * M)
        rel = np.expm1(_tile_logabs(core, -300, M, 600)
                       - core.logabs_real(x)[0])
        assert np.max(np.abs(rel)) <= 1e-9

    def test_exact_hits_take_the_other_eight(self):
        # h = 1/16 puts the first point of every cell, n + 1/32, on a node
        gf = build_generating_function(
            make_family(FamilySpec("constant_shift", 1 / 32), 2048))
        x = _dyadic_grid(-300, 600, 16)
        F = np.exp(_tile_logabs(gf._core, -300, 16, 600))
        assert np.all(np.isfinite(F)) and np.all(F > 0)
        assert np.array_equal(x[::16], gf.seq.positions.real[
            gf.seq.array_offset(np.arange(-300, 300))])
        sprime = gf.node_derivatives(np.arange(-300, 300))
        np.testing.assert_allclose(F[::16], np.abs(sprime), rtol=1e-8)

    def test_memory_stays_within_tiles(self, cores):
        # M = 2^20 over two cells: 2M points, 16 MiB as one array, in 128
        # tiles consumed as they come
        import tracemalloc
        core = cores["signed:0.2"]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sizes = []
            for tile in core.grid_tiles(3, 1 << 20, 2):
                assert np.all(np.isfinite(tile))
                sizes.append(tile.size)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sizes == [_BLOCK] * 128
        assert peak <= 8 << 20

    def test_table_tail_matches_log_tail_to_the_radius(self):
        # K = 2^15: the radius (K+1)/4 = 8192.25 takes cells -8192..8191
        seq = make_family(FamilySpec("signed", 0.2), 1 << 15)
        core = ProductCore(seq, build_tail(seq))
        lo, hi = core._tail_cells
        assert (lo, hi) == (-8192, 8191)
        table = core._tail_taylor(lo - 3, hi + 3)
        assert not np.any(table[:, :3]) and not np.any(table[:, -3:])
        centre = np.arange(lo, hi + 1) + 0.5
        for u in np.linspace(-0.5, 0.5, 9):
            T = core.tail.log_tail(centre + u)
            got = np.polynomial.polynomial.polyval(u, table[:, 3:-3])
            assert np.all(np.abs(got - T) <= 1e-12 * np.maximum(1.0,
                                                                np.abs(T)))

    def test_weight_across_the_trust_radius(self):
        # K = 1024: the radius 256.25 falls inside cell 256, so cells
        # 250..255 carry the tail in their table and cells 256..261 take it
        # point by point, none past the radius; there |T| is about 64
        gf = build_generating_function(
            make_family(FamilySpec("signed", 0.2), 1024))
        core = gf._core
        assert core._tail_cells[1] == 255
        assert abs(core.tail.log_tail(np.array(256.0))) > 10.0
        x = _dyadic_grid(250, 12, 32)
        nearest = nearest_nodes(core.pos, x)[1]
        point = np.abs(core.eval_points(x.astype(complex), nearest))
        np.testing.assert_allclose(np.exp(_tile_logabs(core, 250, 32, 12)),
                                   point, rtol=1e-7)
        np.testing.assert_allclose(np.exp(core.logabs_real(x[::-1])[0]),
                                   point[::-1], rtol=1e-7)


def _same_bits(a, b):
    """Equal shape, dtype and bytes: -0.0 differs from 0.0, NaN from
    nothing but itself."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


class TestRealBlocks:
    """The real-point producer, ``real_blocks``, and the grid tiles in the
    order its blocks cut the grid."""

    @pytest.fixture(scope="class")
    def cores(self):
        return {name: ProductCore(seq, build_tail(seq))
                for name, seq in _grid_windows().items()}

    @pytest.mark.parametrize("name", ["signed:0.2", "k + 0.1i(-1)^k"])
    def test_blocks_concatenate_to_logabs_real(self, cores, name, rng):
        # 2.5 blocks in random order across the bulk span, past the trust
        # radius 512.25 too, where points take the tail point by point
        core = cores[name]
        x = rng.uniform(-2000.0, 2000.0, 5 * _BLOCK // 2)
        blocks = list(core.real_blocks(x))
        assert [b[0].size for b in blocks] == [_BLOCK, _BLOCK, _BLOCK // 2]
        whole = core.logabs_real(x)
        for part, full in zip(zip(*blocks), whole):
            assert _same_bits(np.concatenate(part), full)
        # a point's values do not depend on how the batch is cut: the
        # same points in another order land in other blocks
        order = rng.permutation(x.size)
        for moved, full in zip(core.logabs_real(x[order]), whole):
            assert _same_bits(moved, full[order])

    @pytest.mark.parametrize("M,cells", [(8, 4000), (128, 300),
                                         (1 << 15, 3)])
    def test_grid_tiles_come_in_row_order(self, cores, M, cells):
        # each tile the next _BLOCK points, whole cells by a run of offsets
        core = cores["signed:0.2"]
        n0 = -cells // 2
        tiles = list(core.grid_tiles(n0, M, cells))
        n = M * cells
        assert [t.size for t in tiles] == [min(_BLOCK, n - c0)
                                           for c0 in range(0, n, _BLOCK)]
        assert all(t.shape[1] == min(M, _BLOCK) for t in tiles)
        flat = np.concatenate([tile.reshape(-1) for tile in tiles])
        want = core.logabs_real(_dyadic_grid(n0, cells, M))[0]
        assert np.max(np.abs(np.expm1(flat - want))) <= 1e-9


def _materialized_sums(gf, p, h, n_half, block):
    """``power_sums`` the direct way: F^p and its dual over the whole grid,
    summed per run by ``reduceat``."""
    v = gf.weight((np.arange(-n_half, n_half) + 0.5) * h) ** p
    runs = np.arange(0, v.size, block)
    return np.array([np.add.reduceat(v, runs),
                     np.add.reduceat(v ** (-1.0 / (p - 1.0)), runs)])


def _keep_cell_tables(monkeypatch, gf):
    """Keep each cell table that ``gf``'s core builds, by range, for one
    test alone, so that a measured call reads the table an earlier call
    built and its peak is the tiles' own; returns the kept tables."""
    core = gf._core
    build = core._cell_table
    tables = {}

    def kept(n_min, n_max):
        if (n_min, n_max) not in tables:
            tables[n_min, n_max] = build(n_min, n_max)
        return tables[n_min, n_max]
    monkeypatch.setattr(core, "_cell_table", kept)
    return tables


class TestPowerSums:
    """``GeneratingFunction.power_sums``, the ``A_p`` sweep's block sums of
    F^p and its dual, against the materialized grid."""

    @pytest.fixture(scope="class")
    def gfs(self):
        return {name: build_generating_function(seq)
                for name, seq in _grid_windows().items()}

    @pytest.mark.parametrize("M,n_half,block", [
        # cells -300..299 in runs of 16, the last run 8 cells
        pytest.param(1, 300, 16, id="1"),
        pytest.param(2, 600, 32, id="2"),
        pytest.param(128, 300 * 128, 16 * 128, id="128"),
        # runs shorter than a cell, 48 points no power of two
        pytest.param(128, 300 * 128, 32, id="128-run32"),
        pytest.param(128, 300 * 128, 1, id="128-run1"),
        pytest.param(128, 300 * 128, 48, id="128-run48"),
        # cells of two tiles each, in runs of a quarter tile
        pytest.param(1 << 15, 2 << 15, 1 << 12, id="32768-run4096"),
        # an odd n_half: rows of one point
        pytest.param(1, 301, 16, id="1-odd"),
        # grids ending in part cells, x_max = 250.375 and 299.5, in rows of
        # one and of 32 points; the last run of the second is 64 points
        pytest.param(8, 2003, 24, id="8-part-run24"),
        pytest.param(128, 38336, 96, id="128-part-run96"),
        # x_max = 1.25: a tile and a half of each end cell off the grid
        pytest.param(1 << 15, 5 << 13, 1 << 12, id="32768-part-run4096"),
    ])
    @pytest.mark.parametrize("name", list(_grid_windows()))
    def test_tiles_match_the_materialized_grid(self, gfs, name, M, n_half,
                                               block):
        gf = gfs[name]
        assert _takes_tiles(gf._core, M, n_half, block)
        got = gf.power_sums(2.0, 1.0 / M, n_half, block)
        want = _materialized_sums(gf, 2.0, 1.0 / M, n_half, block)
        assert got.shape == want.shape == (2, -(-2 * n_half // block))
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("h", [1.5, 1 / 20000, 0.01])
    def test_steps_off_the_powers_of_two_are_refused(self, gfs, h):
        with pytest.raises(ValueError, match="is not a power of two") as exc:
            gfs["signed:0.2"].power_sums(2.0, h, 300, 30)
        assert f"h = {h!r} " in str(exc.value)

    def test_step_of_two_is_one_logabs_chunk(self, gfs):
        # no cell holds a point of h = 2, so the 300-point grid on the
        # bulk window is one logabs chunk: the sampled weight's bits
        gf = gfs["signed:0.2"]
        got = gf.power_sums(2.0, 2.0, 150, 30)
        want = sampled_power_sums(lambda x: gf.weight(x) ** 2.0, 2.0, 2.0,
                                  150, 30)
        assert _same_bits(got, want)

    @pytest.fixture(scope="class")
    def gf_wide(self):
        return build_generating_function(
            make_family(FamilySpec("signed", 0.1), 1 << 15))

    def test_short_runs_take_the_tiles(self, gf_wide, monkeypatch):
        # runs of 64 points, half a cell, on the 2M-point grid of h = 2^-7
        # that a signed:0.1 verdict at K = 2^15 sweeps, with the cell table
        # that a sweep in runs of 16 cells built: the whole grid as three
        # arrays took 48.8 MiB
        import tracemalloc
        gf = gf_wide
        h, n_half = 2.0 ** -7, 8192 * 128
        tables = _keep_cell_tables(monkeypatch, gf)
        cells16 = gf.power_sums(2.0, h, n_half, 16 * 128)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sums = gf.power_sums(2.0, h, n_half, 64)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(tables) == 1
        assert peak <= 8 << 20
        assert sums.shape == (2, 2 * n_half // 64)
        regrouped = np.add.reduceat(sums, np.arange(0, sums.shape[1], 32),
                                    axis=1)
        assert np.max(np.abs(regrouped - cells16) / cells16) <= 1e-13

    def test_grid_ending_in_half_cells_streams(self, gf_wide, monkeypatch):
        # x_max = 8191.5 on the same window: the grid of h = 2^-7 ends in
        # half cells, which the tiles of its whole cells cut, with the cell
        # table that a whole-cell sweep built; sampling the grid whole took
        # 66.6 MiB.  Its runs of 64 points are those of the x_max = 8192
        # grid but the first and the last, to the kernels' rounding
        import tracemalloc
        h, n_half = 2.0 ** -7, 8192 * 128
        tables = _keep_cell_tables(monkeypatch, gf_wide)
        cells = gf_wide.power_sums(2.0, h, n_half, 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sums = gf_wide.power_sums(2.0, h, n_half - 64, 64)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(tables) == 1
        assert peak <= 8 << 20
        assert sums.shape == (2, 2 * n_half // 64 - 2)
        assert np.max(np.abs(sums - cells[:, 1:-1]) / sums) <= 1e-13

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_cells_wider_than_a_tile(self, gfs, p):
        # M = 2^15 over cells -2..1: each cell is two tiles of 2^14 offsets
        gf = gfs["signed:0.2"]
        M = 1 << 15
        got = gf.power_sums(p, 1.0 / M, 2 * M, 2 * M)
        want = _materialized_sums(gf, p, 1.0 / M, 2 * M, 2 * M)
        assert got.shape == (2, 2)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_pointwise_window_samples_in_chunks(self, monkeypatch):
        # one node deleted: no lattice gate, so the pointwise path, whose
        # weight is sampled in chunks of whole runs, never the whole grid
        k = np.delete(np.arange(-128, 129), 130)
        gf = build_generating_function(NodeSequence(k, k.astype(float)))
        assert not gf._core.fast_ok
        want = _materialized_sums(gf, 2.0, 1.0 / 512, 32 * 512, 4 * 512)
        sizes = []
        eval_points = ProductCore.eval_points

        def counted(core, z, *nodes):
            sizes.append(np.size(z))
            return eval_points(core, z, *nodes)
        monkeypatch.setattr(ProductCore, "eval_points", counted)
        got = gf.power_sums(2.0, 1.0 / 512, 32 * 512, 4 * 512)
        assert sizes == [16384, 16384]
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_weight_out_of_range_is_refused(self, gfs):
        # F falls to about 300^-0.4 = 0.10 on signed:0.2, where F^400
        # underflows to 0, and rises to about 9.8 on signed:-0.2, where it
        # overflows with numpy's warning
        gf = gfs["signed:0.2"]
        assert _takes_tiles(gf._core, 8, 300 * 8)
        with pytest.raises(ValueError, match="finite positive"):
            gf.power_sums(400.0, 1.0 / 8, 300 * 8, 16 * 8)
        gf = build_generating_function(
            make_family(FamilySpec("signed", -0.2), 2048))
        assert _takes_tiles(gf._core, 8, 300 * 8)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="finite positive"):
                gf.power_sums(400.0, 1.0 / 8, 300 * 8, 16 * 8)


class TestRouting:
    """Which kernel each entry point runs, counted by wrapping all three."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        for name, path in (("logabs_real", "bulk"),
                           ("eval_points", "pointwise")):
            orig = getattr(ProductCore, name)

            # the third entry: a pointwise call divides out given nodes
            def counted(core, z, *nodes, _orig=orig, _path=path):
                log.append((_path, np.size(z), bool(nodes)))
                return _orig(core, z, *nodes)
            monkeypatch.setattr(ProductCore, name, counted)
        grid = ProductCore.grid_tiles

        def grid_counted(core, n0, M, cells):
            log.append(("grid", M * cells, False))
            return grid(core, n0, M, cells)
        monkeypatch.setattr(ProductCore, "grid_tiles", grid_counted)
        return log

    def test_other_grids_go_to_logabs_real(self, gf, calls, rng):
        # the grid kernel's one entrance is power_sums: a batch, even the
        # dyadic midpoint grid itself, takes the general kernel
        h = 1.0 / 64
        mid = _dyadic_grid(-40, 80, 64)
        others = {"dyadic midpoint grid": mid,
                  "i h": np.arange(-40 * 64, 40 * 64) * h,
                  "step 0.01": GridSpec(-40.0, 40.0, 0.01).points(),
                  "short of its last point": mid[:-1],
                  "permuted": rng.permutation(mid)}
        for name, x in others.items():
            calls.clear()
            gf.weight(x)
            assert calls == [("bulk", x.size, False)], name

    @pytest.fixture(scope="class")
    def gf(self):
        return build_generating_function(integer_lattice(2048))

    def test_part_cell_grid_takes_the_tiles(self, gf, calls):
        # x_max = 40.25 at h = 1/8: the grid's end cells are cut from one
        # call of the grid kernel over the 82 cells it meets
        gf.power_sums(2.0, 1.0 / 8, 322, 2)
        assert calls == [("grid", 8 * 82, False)]

    def test_real_batch_of_256_goes_bulk(self, gf, calls):
        x = np.linspace(-50.3, 50.3, 256)
        gf.value(x)
        gf.weight(x[::-1])
        # off the nodes the weight is one bulk pass, with no second batch
        assert calls == [("bulk", 256, False), ("bulk", 256, False)]

    def test_weight_at_exact_node_hits(self, gf, calls):
        x = np.linspace(-50.3, 50.3, 256)
        x[::8] = np.round(x[::8])
        F = gf.weight(x)
        hits = np.flatnonzero(x == np.round(x))
        # the exact hits take no second batch: F is |D|, which is |S'|
        # on a node
        assert calls == [("bulk", 256, False)]
        D, nearest = gf.divided(x)
        np.testing.assert_allclose(F, np.abs(D), rtol=1e-12)
        offsets = gf.seq.array_offset(x[hits].astype(int))
        assert np.array_equal(nearest[hits], offsets)
        sprime = gf.node_derivatives(x[hits].astype(int))
        np.testing.assert_allclose(F[hits], np.abs(sprime), rtol=1e-8)
        assert np.all(np.isfinite(F)) and np.all(F > 0)

    def test_small_and_complex_batches_go_pointwise(self, gf, calls):
        x = np.linspace(-50.3, 50.3, 256)
        gf.value(x[:255])
        gf.value(x + 0.1j)
        gf.weight(x[:255])
        assert calls[:3] == [("pointwise", 255, False),
                             ("pointwise", 256, False),
                             ("pointwise", 255, True)]
        assert all(c[0] == "pointwise" for c in calls)

    def test_batch_near_the_window_edge_goes_pointwise(self, calls):
        # the bulk kernel needs 24 slots of window on both sides of every
        # point's cell, which K = 20 has nowhere: 256 points run pointwise,
        # as 255 do, with the same values
        gf = build_generating_function(integer_lattice(20))
        calls.clear()
        x = np.linspace(-2.95, 2.95, 256)
        values = gf.value(x), gf.weight(x)
        assert calls == [("pointwise", 256, False), ("pointwise", 256, True)]
        for whole, part in zip(values, (gf.value(x[:255]),
                                        gf.weight(x[:255]))):
            assert np.array_equal(whole[:255], part)

    def test_complex_window_weight_goes_bulk(self, calls):
        k = np.arange(-2048, 2049)
        gf = build_generating_function(NodeSequence(k, k + 0.1j * (-1.0) ** k))
        calls.clear()
        x = np.linspace(-50.3, 50.3, 256)
        gf.weight(x)
        # the bulk kernel has no phase off the axis: values run pointwise
        gf.value(x)
        assert calls == [("bulk", 256, False), ("pointwise", 256, False)]

    def test_bulk_only_verdict_builds_no_pointwise_layout(self, calls,
                                                         monkeypatch):
        # a real window's verdict sweeps its weight on the grid kernel, and
        # its convergence probe forms no product: the pointwise kernel's
        # node layout is never built
        built = []
        layout = ProductCore.pointwise_layout
        monkeypatch.setattr(ProductCore, "pointwise_layout",
                            lambda core: built.append(core) or layout(core))
        report = full_verdict(integer_lattice(1024), 2.0)
        assert report.verdict == "PASS"
        assert {c[0] for c in calls} == {"grid"} and built == []

    def test_reconstruct_near_node_batch_goes_bulk(self, gf, calls):
        ks = np.arange(-150, 150, 1.5).astype(int)[:200]
        grid = GridSpec(-160.0, 160.0, 0.01)
        rec = reconstruct(gf, SampleSet(ks, np.ones(ks.size)), grid)
        # S' at the 200 support nodes, then the divided product over the
        # whole grid, near-node points included, in one bulk batch
        assert calls == [("pointwise", 200, True),
                         ("bulk", grid.points().size, False)]
        assert np.max(np.abs(rec.values[np.isin(rec.grid, ks)] - 1.0)) < 1e-9


class TestNonFinitePoints:
    """NaN and inf are refused, by name, at every entry point before any
    routing: 300 real points would run on the bulk kernel, 10 pointwise."""

    @pytest.fixture(scope="class")
    def core(self):
        return _core("integer", K=1024)

    @pytest.mark.parametrize("size", [300, 10])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["value", "divided", "logabs"])
    def test_refused_by_name(self, core, entry, bad, size):
        x = np.linspace(-5.0, 5.0, size)
        x[size // 2] = bad
        with pytest.raises(ValueError, match="non-finite evaluation points"
                           ) as exc:
            getattr(core, entry)(x)
        assert f"the first {bad} at position {size // 2}" in str(exc.value)


class TestWindowConvergence:
    def test_compensated_doubling_is_stable(self):
        # with the far-tail series, K and K/2 agree far beyond tol
        vals = {}
        for K in (1024, 2048):
            core = _core("signed", 0.25, K=K)
            vals[K] = core.eval_points(np.array([5.3 + 0j, 13.7 + 0j]))
        rel = np.abs(vals[2048] - vals[1024]) / np.abs(vals[2048])
        assert np.max(rel) < 1e-6
