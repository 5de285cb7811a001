import warnings

import mpmath
import numpy as np
import pytest

from pwinterp import (Exponents, FamilySpec, NodeSequence,
                      build_generating_function, comparability_stats,
                      fit_weight_exponent, integer_lattice, load_nodes,
                      make_family, save_nodes, select_subsequence)
from pwinterp._engine import _BLOCK
from pwinterp._tails import build_tail
from pwinterp.genfn import _PROBE_POINTS, _linear_fit

SINC_D = np.pi  # |S| for the lattice is |sin(pi x)| / pi


def sine_over_pi(z):
    return np.sin(np.pi * z) / np.pi


class TestExponents:
    def test_conjugate_identity(self):
        for p in (1.2, 1.5, 2.0, 3.0, 7.5):
            e = Exponents(p)
            assert 1 / e.p + 1 / e.q == pytest.approx(1.0, abs=1e-15)
            assert e.p_max == max(e.p, e.q)
            assert e.p_max >= 2.0

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            Exponents(p)


class TestBuild:
    def test_lattice_node_derivatives(self, gf_lattice_100k):
        gf = gf_lattice_100k
        assert gf.node_derivative(0) == pytest.approx(1.0, abs=1e-3)
        assert gf.node_derivative(3) == pytest.approx(-1.0, abs=1e-3)

    def test_constant_shift_uniform_derivatives(self):
        # the zero-normalized product for the shifted lattice is
        # sin(pi (d - z)) / sin(pi d), so |S'| = pi / sin(pi d) at each node
        d = 0.3
        seq = make_family(FamilySpec("constant_shift", d), 4096)
        gf = build_generating_function(seq)
        expect = np.pi / np.sin(np.pi * d)
        for k in (-5, 0, 2, 9):
            assert abs(gf.node_derivative(k)) == pytest.approx(expect,
                                                               rel=1e-3)

    def test_zero_separation_rejected(self):
        from pwinterp import NodeSequence
        seq = NodeSequence([0, 1], [0.5 + 0j, 0.5 + 0j])
        with pytest.raises(ValueError, match="separation"):
            build_generating_function(seq)

    def test_convergence_probe_small(self, gf_lattice_8k):
        assert gf_lattice_8k.convergence_probe < 1e-6


def _mp_convergence_probe(seq):
    """max |1 - S_half/S_full| at the probe points from the full and half
    windows' products, each times exp of its own tail (the float
    coefficients, dropped past the trust radius as ``log_tail`` drops
    them), in 50-digit arithmetic.  Every point is read 1e-30 to the right
    of itself, so a point on a node reads the ratio's limit there."""
    K = seq.half_width
    reach = min(_PROBE_POINTS[-1], (K // 2 + 1) / 4)
    pts = _PROBE_POINTS * reach / _PROBE_POINTS[-1]
    worst = mpmath.mpf(0)
    with mpmath.workdps(50):
        windows = [([mpmath.mpc(complex(lam)) for lam in w.positions],
                    build_tail(w)) for w in (seq, seq.restrict(K // 2))]
        for x in pts:
            z = mpmath.mpf(float(x)) + mpmath.mpf("1e-30")
            S = []
            for lams, tail in windows:
                v = mpmath.mpf(1)
                for lam in lams:
                    v *= z if lam == 0 else 1 - z / lam
                if tail is not None and x <= tail.radius:
                    v *= mpmath.exp(mpmath.polyval(
                        [mpmath.mpf(float(c)) for c in tail.coeffs[::-1]], z))
                S.append(v)
            worst = max(worst, abs(1 - S[1] / S[0]))
    return float(worst)


class TestConvergenceProbe:
    """``convergence_probe`` against 50-digit products of both windows."""

    @pytest.mark.parametrize("name", ["integer", "signed:0.25",
                                      "random:0.35", "complex", "loaded"])
    def test_matches_products(self, name, tmp_path):
        k = np.arange(-256, 257)
        if name == "loaded":
            # 0.01 k off its index: past 1.5 from K = 151 on, so no tail
            k = np.arange(-200, 201)
            save_nodes(NodeSequence(k, 1.01 * k), tmp_path / "n.csv")
            seq = load_nodes(tmp_path / "n.csv")
            assert build_tail(seq) is None
        elif name == "complex":
            seq = NodeSequence(k, k + 0.1j * (-1.0) ** k)
        elif name == "integer":
            seq = integer_lattice(256)
        else:
            kind, d = name.split(":")
            seq = make_family(FamilySpec(kind, float(d), seed=3), 256)
        got = build_generating_function(seq).convergence_probe
        want = _mp_convergence_probe(seq)
        # measured: 1.1e-16 (integer) and 2.0e-17 (signed) against values
        # near 1e-16 and 1e-17; 1.2e-15 on random's 1.9e-3 (6.4e-13
        # relative), 1.3e-18 on complex's 3.8e-5, 1.3e-15 on loaded's 0.29
        assert abs(got - want) <= 5e-16 + 2e-12 * want

    def test_point_on_an_outer_node_reads_inf(self):
        # node 7 of this K = 8 window lies on the last probe point, the half
        # window's trust radius 1.25: the full product vanishes there and
        # the half window's does not
        k = np.arange(-8, 9)
        pos = k.astype(float)
        pos[15] = 1.25
        gf = build_generating_function(NodeSequence(k, pos))
        assert gf.convergence_probe == np.inf

    @pytest.mark.parametrize("K", [4, 8])
    def test_point_on_a_node_reads_the_ratio(self, K):
        # the last probe point, the half window's trust radius (K//2 + 1)/4,
        # is a node of both windows of this shifted lattice: both products
        # vanish there, and the probe reads their ratio, its factor
        # cancelled, as it does next to the node
        reach = (K // 2 + 1) / 4
        seq = make_family(FamilySpec("constant_shift", reach % 1), K)
        pts = _PROBE_POINTS * reach / _PROBE_POINTS[-1]
        assert pts[-1] == reach and reach in seq.restrict(K // 2).positions
        got = build_generating_function(seq).convergence_probe
        want = _mp_convergence_probe(seq)
        # measured: 2.0e-17 on 3.5e-10 (K = 4) and 1.2e-17 on 4.8e-12
        assert abs(got - want) <= 5e-16 + 1e-12 * want

    @pytest.mark.parametrize("K", [4, 8, 16, 32, 63])
    @pytest.mark.parametrize("name", ["integer", "signed:0.2"])
    def test_small_windows_converge(self, name, K):
        # every probe point lies inside the half window's trust radius, so
        # the exact lattice and a subcritical family read rounding alone
        seq = (integer_lattice(K) if name == "integer"
               else make_family(FamilySpec("signed", 0.2), K))
        got = build_generating_function(seq).convergence_probe
        assert got <= 1e-11  # measured worst: 4.1e-12 (integer, K = 63)


class TestValue:
    def test_lattice_half(self, gf_lattice_100k):
        assert gf_lattice_100k.value(0.5) == pytest.approx(1 / np.pi,
                                                           abs=1e-4)

    def test_zero_node_exact(self, gf_lattice_100k):
        assert gf_lattice_100k.value(0.0) == 0.0

    def test_imaginary_argument(self, gf_lattice_100k):
        v = gf_lattice_100k.value(1j)
        assert v == pytest.approx(np.sinh(np.pi) / np.pi * 1j, abs=1e-3)

    def test_zero_set_fidelity(self):
        seq = make_family(FamilySpec("random", 0.3, seed=8), 1024)
        gf = build_generating_function(seq)
        ks = [-200, -31, 0, 17, 200]
        for k in ks:
            lam = seq.node(k).position
            bound = 1e-9 * (1 + abs(lam)) * max(
                1.0, abs(gf.node_derivative(k)))
            assert abs(gf.value(lam)) <= bound

    def test_grid_route_matches_scalar_route(self, gf_lattice_8k):
        x = np.linspace(-9.7, 9.7, 1001)
        grid_vals = gf_lattice_8k.value(x)
        point_vals = np.array([gf_lattice_8k.value(float(t))
                               for t in x[::100]])
        assert np.max(np.abs(grid_vals[::100] - point_vals)) < 1e-10

    def test_translation_covariance_up_to_normalization(self, gf_lattice_8k):
        # the product is pinned to S(0) = 1, so the shifted family matches
        # the translated lattice only after undoing pi / sin(pi d)
        d = 0.3
        seq = make_family(FamilySpec("constant_shift", d), 8192)
        gf = build_generating_function(seq)
        x = np.linspace(-10, 10, 501)
        shifted = np.abs(gf_lattice_8k.value(x - d))
        scaled = np.abs(gf.value(x)) * np.sin(np.pi * d) / np.pi
        assert np.max(np.abs(scaled - shifted)) < 1e-3

    def test_pair_order_robustness(self):
        a = build_generating_function(integer_lattice(2048))
        b = build_generating_function(integer_lattice(4096))
        x = np.linspace(-10, 10, 201)
        va, vb = a.value(x), b.value(x)
        assert np.max(np.abs(va - vb)) <= 1e-3 * np.max(np.abs(vb))


class TestWeight:
    def test_midpoint(self, gf_lattice_100k):
        assert gf_lattice_100k.weight(0.5) == pytest.approx(2 / np.pi,
                                                            abs=1e-4)

    def test_at_node_equals_derivative_modulus(self, gf_lattice_100k):
        assert gf_lattice_100k.weight(3.0) == pytest.approx(1.0, abs=1e-3)

    def test_positive_everywhere(self, gf_lattice_8k, rng):
        x = np.sort(rng.uniform(-1000, 1000, 4096))
        x = np.concatenate([x, np.arange(-5, 6).astype(float)])
        F = gf_lattice_8k.weight(np.sort(x))
        assert np.all(F > 0)
        assert np.all(np.isfinite(F))

    def test_scalar_matches_vector(self, gf_lattice_8k):
        xs = [0.2, 1.5, 17.3, 3.0]
        vec = gf_lattice_8k.weight(np.array(xs))
        for t, expect in zip(xs, vec):
            assert gf_lattice_8k.weight(t) == pytest.approx(expect,
                                                            rel=1e-12)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def _midpoints(n0, cells, M):
    return (np.arange(n0 * M, (n0 + cells) * M) + 0.5) * (1.0 / M)


def _routing_cases():
    """(window, points) for every way ``value`` and ``weight`` route a
    batch; the bulk ones span several blocks, the last one partial."""
    k = np.arange(-512, 513)
    complex_window = NodeSequence(k, k + 0.1j * (-1.0) ** k)
    # the K = 256 lattice loaded with a node at 1/2: not a perturbed lattice
    lat = np.arange(-256, 257)
    loaded = NodeSequence(np.arange(-256, 258),
                          np.insert(lat.astype(complex), 257, 0.5))
    signed = make_family(FamilySpec("signed", 0.2), 2048)
    return {
        "bulk": (signed, np.linspace(-500.0, 500.0, 100_001)),
        "exact hits": (integer_lattice(4096),
                       np.arange(-1000.0, 1000.0, 1.0 / 16)),
        "near the window edge": (integer_lattice(20),
                                 np.linspace(-2.95, 2.95, 601)),
        "complex window": (complex_window, np.linspace(-100, 100, 20_001)),
        "loaded window": (loaded, np.linspace(-50.0, 50.0, 20_001)),
        "fewer than 256 points": (signed, np.linspace(0.0, 2.5, 251)),
        "dyadic midpoint grid": (signed, _midpoints(-100, 200, 128)),
        "dyadic grid, complex window": (complex_window,
                                        _midpoints(-100, 200, 128)),
    }


class TestValueWeightBlocks:
    """``value_weight_blocks`` against ``value`` and ``weight`` on the
    whole batch, bit for bit, on every route."""

    @pytest.mark.parametrize("case", list(_routing_cases()))
    def test_blocks_match_whole_batch(self, case):
        seq, x = _routing_cases()[case]
        gf = build_generating_function(seq)
        blocks = list(gf.value_weight_blocks(x))
        sizes = [S.size for S, _ in blocks]
        assert sizes == [min(_BLOCK, x.size - c0)
                         for c0 in range(0, x.size, _BLOCK)]
        fresh = build_generating_function(seq)
        assert _same_bits(np.concatenate([S for S, _ in blocks]),
                          fresh.value(x))
        assert _same_bits(np.concatenate([F for _, F in blocks]),
                          fresh.weight(x))

    def test_exact_hits_give_signed_zeros(self):
        seq, x = _routing_cases()["exact hits"]
        gf = build_generating_function(seq)
        S = np.concatenate([S for S, _ in gf.value_weight_blocks(x)])
        zeros = S.real == 0.0
        assert np.array_equal(zeros, x == np.round(x))
        assert np.any(np.signbit(S.real[zeros]))
        assert not np.all(np.signbit(S.real[zeros]))

    def test_dyadic_grid_takes_the_general_kernels_weight(self):
        # a batch never reaches the grid kernel, whose F differs from the
        # general kernel's by rounding: the dyadic grid's F is logabs_real's
        seq = make_family(FamilySpec("signed", 0.2), 4096)
        x = np.arange(-199.5, 200.0)
        gf = build_generating_function(seq)
        F = np.concatenate([F for _, F in gf.value_weight_blocks(x)])
        assert _same_bits(F, gf.weight(x))
        assert _same_bits(F, np.exp(gf._core.logabs_real(x)[0]))

    def test_values_do_not_depend_on_earlier_calls(self):
        # a cell table cached for a sub-range is not reused for the batch
        seq, x = _routing_cases()["bulk"]
        ref = list(build_generating_function(seq).value_weight_blocks(x))
        gf = build_generating_function(seq)
        part = x[1000:3000]
        gf.weight(part)
        for (S, F), (S0, F0) in zip(gf.value_weight_blocks(x), ref):
            assert _same_bits(S, S0) and _same_bits(F, F0)
        assert _same_bits(gf.weight(part),
                          build_generating_function(seq).weight(part))


class TestWeightExponent:
    def test_lattice_flat(self, gf_lattice_8k):
        fit = fit_weight_exponent(gf_lattice_8k, 16, 512)
        assert abs(fit.slope) <= 0.05

    def test_signed_outward(self, gf_signed_quarter_out):
        fit = fit_weight_exponent(gf_signed_quarter_out, 32, 4096)
        assert fit.slope == pytest.approx(-0.5, abs=0.05)

    def test_signed_inward_reflection(self, gf_signed_quarter_in):
        fit = fit_weight_exponent(gf_signed_quarter_in, 32, 4096)
        assert fit.slope == pytest.approx(0.5, abs=0.05)

    def test_range_guard(self, gf_lattice_8k):
        with pytest.raises(ValueError):
            fit_weight_exponent(gf_lattice_8k, 16, 2000)


class TestLinearFit:
    @staticmethod
    def _unscaled(t, y):
        A = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        ss_res = float(np.sum((y - A @ coef) ** 2))
        return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot

    def test_ordinary_fit_is_unchanged(self, rng):
        # scaling by a power of two is exact, so ordinary fits keep
        # every bit of the plain formula
        t = np.log1p(np.geomspace(32, 1024, 6))
        for y in (1.0 + 0.3 * t + rng.normal(0, 0.1, t.size),
                  np.exp(3 * t) * rng.uniform(1, 2, t.size)):
            assert _linear_fit(t, y) == self._unscaled(t, y)

    def test_flat_levels_keep_r2_in_unit_interval(self, rng):
        # levels equal to rounding, as a weight with no growth gives them:
        # the residuals and the spread are both noise, and their ratio
        # would put r2 anywhere
        t = np.log1p(2.0 ** np.arange(5, 14))
        for _ in range(2000):
            y = 1.0 + rng.integers(-2, 3, t.size) * 2.0 ** -52
            if np.ptp(y) == 0.0:
                continue
            r2 = _linear_fit(t, y)[2]
            assert 0.0 <= r2 <= 1.0

    def test_huge_quotients_do_not_overflow(self):
        # the A_p levels of signed:0.2 at K = 4096 with node 7 deleted:
        # their squares overflow, which unscaled gives two warnings and
        # r2 = nan
        t = np.log1p(2.0 ** np.arange(5, 11))
        y = np.array([7.986867230678125e10, 6.018993064227415e23,
                      5.709124369356158e48, 6.917375649112388e93,
                      1.0175017025575708e163, 2.0896772615245416e216])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, icpt, r2 = _linear_fit(t, y)
        scale = 2.0 ** 700
        expect = self._unscaled(t, y / scale)
        assert (slope, icpt) == (expect[0] * scale, expect[1] * scale)
        assert r2 == expect[2] and 0.0 < r2 < 1.0


class TestComparability:
    def test_lattice_midpoint_value(self, gf_lattice_8k):
        anchors = np.arange(-4, 6).astype(complex)
        stats = comparability_stats(gf_lattice_8k, anchors,
                                    np.array([0.5]))
        assert stats.min == pytest.approx(np.pi / 2, abs=1e-3)

    def test_unity_at_anchor(self, gf_lattice_8k):
        anchors = np.arange(-4, 6).astype(complex)
        stats = comparability_stats(gf_lattice_8k, anchors,
                                    np.array([2.0]))
        assert stats.min == pytest.approx(1.0, abs=1e-6)

    def test_signed_spread_bounded(self, gf_signed_quarter_out):
        sel = select_subsequence(gf_signed_quarter_out.seq, r=1.0, j_max=260)
        x = np.linspace(10, 1000, 397)
        stats = comparability_stats(gf_signed_quarter_out, sel, x)
        assert stats.spread <= 100.0

    def test_outside_span_rejected(self, gf_lattice_8k):
        anchors = np.arange(-4, 5).astype(complex)
        with pytest.raises(ValueError, match="span"):
            comparability_stats(gf_lattice_8k, anchors, np.array([100.0]))


class TestModulusMargin:
    def test_high_imaginary_sample(self, gf_lattice_8k):
        # the normalized lower-bound margin |S(z)| (1+|z|)^(1/p)
        # e^(-pi |Im z|) at p = 2, far off the axis where S = sin(pi z)/pi
        # is about 7e12
        z = 0.5 + 10j
        m = (abs(gf_lattice_8k.value(z)) * np.sqrt(1 + abs(z))
             * np.exp(-np.pi * abs(z.imag)))
        expect = (np.cosh(10 * np.pi) / np.pi * np.exp(-10 * np.pi)
                  * np.sqrt(1 + abs(z)))
        assert m == pytest.approx(expect, rel=1e-3)


class TestNodeDerivativeTrustRadius:
    """The K = 128 lattice's tail holds for |x| <= (K+1)/4 = 32.25."""

    def test_past_radius_refused(self):
        from pwinterp.genfn import TrustRadiusError
        gf = build_generating_function(integer_lattice(128))
        with pytest.raises(TrustRadiusError, match="node 40 at"):
            gf.node_derivatives([0, 40])
        # S = sin(pi z)/pi, so S'(32) = cos(32 pi) = 1
        assert gf.node_derivative(32) == pytest.approx(1.0, abs=1e-3)
        # every evaluation: S(32.25) = sin(pi/4)/pi, 1/4 from node 32
        S = np.sin(np.pi / 4) / np.pi
        for ask, want in [
            (gf.value, S),
            (lambda x: gf.divided(x)[0], 4 * S),
            (gf.weight, 4 * S),
            (lambda x: np.concatenate(
                [v for v, _ in gf.value_weight_blocks([-x, x])])[1], S),
            # F^2 at the grid's last midpoint, x - 1/8
            (lambda x: gf.power_sums(2.0, 0.25, round(4 * x), 1)[0, -1],
             (8 * np.sin(np.pi / 8) / np.pi) ** 2),
        ]:
            assert ask(32.25) == pytest.approx(want, rel=1e-6)
            with pytest.raises(TrustRadiusError, match="= 32.25 of"):
                ask(32.5)

    def test_importable_from_criteria_and_cli(self):
        from pwinterp import cli, criteria, genfn
        assert (criteria.TrustRadiusError is cli.TrustRadiusError
                is genfn.TrustRadiusError)


class TestOffAxisSequences:
    """Loaded sequences may carry complex nodes.  Values with their phase
    always run pointwise; log|S| and the weight run on the bulk kernel for
    batches of at least 256 real points when the window is index-contiguous
    with every node within 1.5 of its index (these batches are smaller)."""

    def _seq(self):
        from pwinterp import NodeSequence
        k = np.arange(-40, 41)
        eta = np.where(k % 2 == 0, 0.3, -0.3)
        return NodeSequence(k, k + 1j * eta)

    def test_build_and_evaluate(self):
        seq = self._seq()
        # the window continues past K = 40 with the real shift 0 per parity
        assert build_generating_function(seq).tail_compensated
        gf = build_generating_function(seq, compensate=False)
        assert not gf.tail_compensated
        zs = np.array([0.25, 1.5, 3.8, 0.5 + 0.9j])
        vals = gf.value(zs)
        # brute-force product over the 81 nodes
        fac = 1.0 - zs[:, None] / seq.positions[None, :]
        brute = np.prod(fac, axis=1)
        assert np.max(np.abs(vals - brute)) < 1e-10 * np.max(np.abs(brute))

    def test_weight_positive_without_switch(self):
        gf = build_generating_function(self._seq())
        x = np.linspace(-8, 8, 101)  # includes integers under the nodes
        F = gf.weight(x)
        assert np.all(F > 0)
        assert np.all(np.isfinite(F))

    def test_node_derivatives_finite(self):
        gf = build_generating_function(self._seq())
        vals = gf.node_derivatives([-3, 0, 7])
        assert np.all(np.abs(vals) > 0)
