import math
import warnings

import numpy as np
import pytest

from pwinterp import (FamilySpec, IntervalFamily, NodeSequence, Thresholds,
                      WeightSequence, build_generating_function,
                      carleson_sum, continuous_ap, discrete_ap,
                      full_verdict, integer_lattice, load_nodes, make_family,
                      save_nodes, select_probe_points, select_subsequence)
from pwinterp import criteria, nodes
from pwinterp.criteria import (BracketingError, QuadratureStepError,
                               SelectionError)


class TestCarleson:
    def test_lattice_value(self):
        seq = integer_lattice(100_000)
        res = carleson_sum(seq)
        assert res.sup == pytest.approx(np.pi ** 2 / 3, abs=1e-3)

    def test_toy_pair(self):
        seq = NodeSequence([0, 1], [0j, 1j])
        res = carleson_sum(seq)
        assert res.sup == pytest.approx(2.0)

    def test_rigid_shift_invariance(self):
        a = carleson_sum(integer_lattice(4096)).sup
        b = carleson_sum(make_family(FamilySpec("constant_shift", 0.37),
                                     4096)).sup
        assert b == pytest.approx(a, rel=1e-12, abs=0)

    def test_real_terms_reduce_to_inverse_square_gaps(self):
        # hand-rolled real-axis formula against the generic path
        seq = make_family(FamilySpec("random", 0.3, seed=13), 256)
        res = carleson_sum(seq, max_probes=10_000)
        xi = seq.positions.real
        best = -np.inf
        n = xi.size
        for j in range(n // 4, n - n // 4):
            d2 = (xi[j] - xi) ** 2
            d2[j] = np.inf
            best = max(best, float(np.sum(1.0 / d2)))
        assert res.sup == pytest.approx(best, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["signed", "random", "one-sided",
                                      "alternating", "complex random"])
    def test_matches_complex_abs_reference(self, name, rng):
        # every inner row is probed for K <= 256: the sup is the row maximum
        # of the complex-modulus formula, summed over all k != j
        k = np.arange(-256, 257)
        half = k[::2]
        seq = {
            "signed": make_family(FamilySpec("signed", 0.25), 256),
            "random": make_family(FamilySpec("random", 0.45, seed=2), 200),
            "one-sided": NodeSequence(np.arange(300), np.arange(300) + 1.0
                                      + 0.3 * np.sin(np.arange(300))),
            "alternating": NodeSequence(half, half + 0.1j * (-1.0) ** half),
            "complex random": NodeSequence(
                k, k + rng.uniform(-0.3, 0.3, k.size)
                + 1j * rng.uniform(-0.5, 0.5, k.size)),
        }[name]
        pos = seq.positions
        n = pos.size
        rows = np.arange(n // 4, n - n // 4)
        facs = 1.0 + np.abs(pos.imag)
        d2 = np.abs(pos[rows, None] - pos[None, :]) ** 2
        d2[np.arange(rows.size), rows] = np.inf
        sums = facs[rows] * np.sum(facs[None, :] / d2, axis=1)
        res = carleson_sum(seq)
        assert res.sup == pytest.approx(sums.max(), rel=1e-13, abs=0)
        assert res.argmax_index == seq.indices[rows[np.argmax(sums)]]

    def test_coincident_nodes_rejected(self):
        seq = NodeSequence([0, 1], [1 + 0j, 1 + 0j])
        with pytest.raises(ValueError):
            carleson_sum(seq)

    @pytest.mark.parametrize("x_row", [1.05, 2.01])
    def test_far_series_on_a_dominant_block(self, x_row):
        # one block of 256 nodes with c = 0 and h = 1/2, 96 and 160 of them
        # at its two ends, carries nearly all of the probed row at x_row:
        # at 1.05 it is near (|w| < 4h), at 2.01 far with every node at
        # |t/w| = 0.249, where the series' terms past order 24 add about
        # 5e-15 and those past 30 below 1e-17; two wide blocks of nodes 1e4
        # apart fill the rest
        edge = 0.5 - 1e-4 * np.arange(160)
        dense = np.concatenate([-edge[:96], edge])
        sparse = np.concatenate([-10.0 - 1e4 * np.arange(1, 257), [x_row],
                                 10.0 + 1e4 * np.arange(1, 256)])
        # the dense block on the outer indices, the row at index 0
        k = np.concatenate([np.arange(-384, -256), np.arange(256, 384),
                            np.arange(-256, 256)])
        x = np.concatenate([dense, sparse])
        seq = NodeSequence(k, x)
        exact = math.fsum(1.0 / (x_row - x[x != x_row]) ** 2)
        res = carleson_sum(seq)
        assert res.argmax_index == 0
        assert abs(res.sup - exact) <= 2e-15 * exact

    def test_peak_memory_does_not_grow_with_probes(self):
        # 8195 probed rows of a K = 2^15 real window: one pass over every
        # (row, block) pair would take about 70 MiB, the near field of all
        # rows at once about 35 MiB; numpy reports its buffers to tracemalloc
        import tracemalloc
        seq = make_family(FamilySpec("random", 0.35, seed=7), 1 << 15)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            carleson_sum(seq, max_probes=8192)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20


class TestDiscreteAp:
    def test_unit_weight(self):
        res = discrete_ap(np.ones(4096), 2.0, n_max=2048)
        assert res.sup == pytest.approx(1.0, abs=1e-12)

    def test_constant_weight_scale_invariance(self):
        w = np.full(512, 7.3)
        res = discrete_ap(w, 2.5, n_max=256)
        assert res.sup == pytest.approx(1.0, abs=1e-12)

    def test_scaling_exact(self, rng):
        w = rng.uniform(0.5, 2.0, 512)
        a = discrete_ap(w, 2.0, n_max=128)
        b = discrete_ap(100.0 * w, 2.0, n_max=128)
        assert b.sup == pytest.approx(a.sup, rel=1e-12)

    def test_linear_weight_log_growth(self):
        w = np.arange(1, 4097, dtype=float)
        res = discrete_ap(w, 2.0, n_max=2048)
        # max quotient at length n tracks (log n)/2
        assert res.slope == pytest.approx(0.5, rel=0.2)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            discrete_ap(np.array([1.0, 0.0, 2.0]), 2.0, n_max=1)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="2 n_max"):
            discrete_ap(np.ones(10), 2.0, n_max=8)


class TestContinuousAp:
    def test_unit_weight(self):
        fam = IntervalFamily(x_max=64.0, m_min=2, m_max=6)
        res = continuous_ap(lambda x: np.ones_like(x), 2.0, fam, 1 / 64)
        assert res.sup == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_power_weight(self):
        fam = IntervalFamily(x_max=1024.0, m_min=5, m_max=10)
        res = continuous_ap(lambda x: np.sqrt(np.abs(x)), 2.0, fam, 1 / 128)
        # origin-anchored quotient of |x|^(1/2) is 4/3 at every length
        assert np.all(np.abs(res.level_max - 4 / 3) < 0.02 * 4 / 3)

    def test_linear_power_weight_grows(self):
        fam = IntervalFamily(x_max=8192.0, m_min=5, m_max=13)
        res = continuous_ap(lambda x: np.abs(x), 2.0, fam, 1 / 128)
        th = Thresholds()
        assert res.growth_slope > th.slope_factor * np.mean(res.level_max)
        assert res.growth_r2 >= 0.9
        assert res.growth_persistence >= th.persistence_min
        assert abs(res.ring_ratio - 1.0) <= th.ring_band

    def test_quotients_at_least_one(self, rng):
        fam = IntervalFamily(x_max=32.0, m_min=2, m_max=5)
        res = continuous_ap(lambda x: np.exp(np.sin(x)), 1.7, fam, 1 / 64)
        assert np.all(res.level_max >= 1.0)

    def test_periodic_weight_centres_at_the_origin(self):
        # every whole-period interval has the same quotient, so each level
        # ties to rounding and the tie goes to the centre nearest 0
        fam = IntervalFamily(x_max=1024.0, m_min=0, m_max=10)
        res = continuous_ap(lambda x: 2.0 + np.cos(2 * np.pi * x), 2.0, fam,
                            1 / 16)
        assert np.ptp(res.level_max) < 1e-12 * res.sup
        assert np.all(res.level_argmax == 0.0)

    @pytest.mark.parametrize("scale", [1 + 1e-10, 1 - 1e-10])
    @pytest.mark.parametrize("copy", ["reported", "farthest"])
    def test_centres_ignore_rounding_among_copies(self, monkeypatch, scale,
                                                  copy):
        # alternating:0.2 repeats every 2 cells, so each level's largest
        # quotient comes in copies that differ by rounding alone (up to
        # 8.7e-11 relative at K = 2^15); scaling one copy, the reported
        # one or the one farthest from 0, by 1 +- 1e-10 moves no centre
        seq = make_family(FamilySpec("alternating", 0.2), 4096)
        want = [row[2] for row in full_verdict(seq, 2.0).ap_quotients]
        pick = criteria._max_centre
        copies = []

        def nudged(q, centres):
            tied = np.flatnonzero(q >= q.max() * (1.0 - 1e-9))
            copies.append(tied.size)
            j = (np.flatnonzero(centres == pick(q, centres))[0]
                 if copy == "reported"
                 else tied[np.argmax(np.abs(centres[tied]))])
            q = q.copy()
            q[j] *= scale
            return pick(q, centres)
        monkeypatch.setattr(criteria, "_max_centre", nudged)
        got = [row[2] for row in full_verdict(seq, 2.0).ap_quotients]
        assert len(copies) == len(want) and min(copies) >= 2
        assert got == want

    def test_nonpositive_sampler_rejected(self):
        fam = IntervalFamily(x_max=32.0, m_min=2, m_max=5)
        with pytest.raises(ValueError):
            continuous_ap(lambda x: x, 2.0, fam, 1 / 32)

    def test_interval_shorter_than_the_step_is_refused(self):
        # round(2^-7 / 2^-4) = 0: level -7's intervals hold no sample
        fam = IntervalFamily(x_max=256.0, m_min=-7, m_max=8)
        with pytest.raises(QuadratureStepError,
                           match=r"level m = -7: .* h = 2\^-4 "):
            continuous_ap(lambda x: np.ones_like(x), 2.0, fam, 1 / 16)

    def test_weight_sweep_forms_no_grid_sized_array(self):
        # signed:0.1 at K = 2^15: a 2,097,152-point grid, h = 2^-7, whose
        # x, F^p and dual arrays would take 48 MiB; numpy reports its
        # buffers to tracemalloc
        import tracemalloc
        gf = build_generating_function(
            make_family(FamilySpec("signed", 0.1), 1 << 15))
        fam = IntervalFamily(x_max=8192.0, m_min=5, m_max=13)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = continuous_ap(gf, 2.0, fam, gf.separation / 8.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20
        assert 1.0 <= res.sup < 3.0


class TestSelection:
    def test_lattice_r1_picks_multiples_of_four(self):
        sel = select_subsequence(integer_lattice(256), r=1.0)
        assert np.array_equal(sel.anchors.real, 4.0 * sel.j_values)

    def test_lattice_small_r_fails(self):
        with pytest.raises(SelectionError):
            select_subsequence(integer_lattice(256), r=0.3)

    def test_signed_quarter_nonempty(self):
        seq = make_family(FamilySpec("signed", 0.25), 256)
        sel = select_subsequence(seq, r=1.0)
        assert np.all(np.abs(sel.anchors.real - 4.0 * sel.j_values) <= 1.0)

    def test_anchors_inside_squares(self):
        seq = make_family(FamilySpec("random", 0.4, seed=6), 512)
        sel = select_subsequence(seq, r=0.75)
        assert np.all(np.abs(sel.anchors.real - 3.0 * sel.j_values) <= 0.75)
        assert np.all(np.abs(sel.anchors.imag) <= 0.75)


class TestProbePoints:
    def test_circle_condition_at_origin(self, gf_lattice_8k):
        sel = select_subsequence(gf_lattice_8k.seq, r=1.0, j_max=4)
        out = select_probe_points(gf_lattice_8k, sel, eps=0.05)
        assert np.all(np.abs(np.abs(out.probes - out.anchors) - 0.05) < 1e-12)
        target = 0.05 * np.abs(gf_lattice_8k.node_derivatives(
            out.node_indices))
        got = np.abs(gf_lattice_8k.value(out.probes))
        assert np.max(np.abs(got - target)) < 1e-6

    def test_eps_capped_by_separation(self, gf_lattice_8k):
        sel = select_subsequence(gf_lattice_8k.seq, r=1.0, j_max=2)
        out = select_probe_points(gf_lattice_8k, sel, eps=0.5)
        assert out.eps == pytest.approx(gf_lattice_8k.separation / 10.0)

    def test_translated_family_matches_lattice(self):
        d = 0.2
        seq = make_family(FamilySpec("constant_shift", d), 8192)
        gf = build_generating_function(seq)
        sel = select_subsequence(seq, r=1.0, j_max=2)
        out = select_probe_points(gf, sel, eps=0.05)
        resid = np.abs(np.abs(gf.value(out.probes))
                       - 0.05 * np.abs(gf.node_derivatives(out.node_indices)))
        assert np.max(resid) < 1e-6


def _sweep_families():
    return [FamilySpec("signed", 0.1), FamilySpec("signed", -0.1),
            FamilySpec("signed", 0.25), FamilySpec("signed", -0.25),
            FamilySpec("integer"), FamilySpec("constant_shift", 0.2),
            FamilySpec("alternating", 0.2), FamilySpec("random", 0.35, seed=7)]


class TestFullVerdict:
    # K = 128 sweeps x_max = 32 with 4-cell blocks, K = 4096 x_max = 1024
    # with 16-cell blocks
    @pytest.mark.parametrize("K", [128, 4096])
    @pytest.mark.parametrize("spec", _sweep_families(), ids=FamilySpec.tag)
    def test_block_sums_match_the_materialized_grid(self, spec, K,
                                                    monkeypatch):
        seq = make_family(spec, K)
        rep = full_verdict(seq, 2.0)
        sweep = criteria.continuous_ap

        def materialized(gf, p, fam, quad_step):
            return sweep(lambda x: gf.weight(x) ** p.p, p, fam, quad_step)
        monkeypatch.setattr(criteria, "continuous_ap", materialized)
        ref = full_verdict(seq, 2.0)
        assert (rep.verdict, rep.failed_checks) == (ref.verdict,
                                                    ref.failed_checks)
        got, want = np.array(rep.ap_quotients), np.array(ref.ap_quotients)
        # lengths and centres exactly, quotients to rounding
        assert np.array_equal(got[:, [0, 2]], want[:, [0, 2]])
        np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=1e-13, atol=0)
        for field in ("ap_sup", "ring_ratio"):
            assert getattr(rep, field) == pytest.approx(
                getattr(ref, field), rel=1e-13, abs=0)

    @pytest.mark.parametrize("x_max", [0.0, -1.0, np.nan, np.inf])
    def test_x_max_not_positive_and_finite_is_refused(self, x_max):
        with pytest.raises(ValueError, match="x_max must be positive"):
            full_verdict(integer_lattice(256), 2.0, x_max=x_max)

    def test_separation_once_per_verdict(self, monkeypatch):
        calls = []
        separation = nodes.separation

        def counted(seq):
            calls.append(len(seq))
            return separation(seq)
        monkeypatch.setattr(nodes, "separation", counted)
        full_verdict(make_family(FamilySpec("signed", 0.1), 4096), 2.0)
        assert calls == [8193]

    def test_carleson_once_per_verdict(self, monkeypatch):
        # one whole-window sum, reported; no gate reads a Carleson sum
        calls = []
        carleson = criteria.carleson_sum

        def counted(seq, **kwargs):
            calls.append(len(seq))
            return carleson(seq, **kwargs)
        monkeypatch.setattr(criteria, "carleson_sum", counted)
        rep = full_verdict(make_family(FamilySpec("signed", 0.1), 4096), 2.0)
        assert calls == [8193]
        assert not hasattr(rep, "carleson_half")

    @pytest.mark.parametrize("seed", [1, 3])
    def test_random_window_passes(self, seed):
        # random:0.35 at K = 2^15 passes on the theorem's gates alone; the
        # sampled Carleson sups of these two windows and of their halves
        # lie over 5% apart, and gate nothing
        seq = make_family(FamilySpec("random", 0.35, seed=seed), 1 << 15)
        rep = full_verdict(seq, 2.0)
        assert (rep.verdict, rep.failed_checks) == ("PASS", ())

    def test_lattice_passes(self):
        rep = full_verdict(integer_lattice(2048), 2.0)
        assert rep.verdict == "PASS"
        assert rep.failed_checks == ()
        assert rep.density_r0 is not None
        assert rep.separation == 1.0

    def test_verdict_consistency_fields(self):
        rep = full_verdict(integer_lattice(1024), 2.0)
        assert rep.carleson_sup == pytest.approx(np.pi ** 2 / 3, abs=1e-2)
        assert rep.ap_sup >= 1.0

    def test_failed_check_recorded_on_fail(self):
        seq = make_family(FamilySpec("signed", 0.25), 1 << 14)
        rep = full_verdict(seq, 2.0, x_max=2048.0)
        assert rep.verdict == "FAIL"
        assert len(rep.failed_checks) > 0

    def test_sparse_sequence_fails_density(self):
        idx = np.arange(-64, 65)
        seq = NodeSequence(idx, (idx * 7.0).astype(complex))
        rep = full_verdict(seq, 2.0, x_max=32.0, quad_step=1 / 16)
        assert rep.verdict == "FAIL"
        assert "relative_density" in rep.failed_checks

    @pytest.mark.parametrize("spec", [
        FamilySpec("integer"), FamilySpec("constant_shift", 0.2),
        FamilySpec("signed", 0.2), FamilySpec("signed", 0.25),
        FamilySpec("alternating", 0.3), FamilySpec("random", 0.35, seed=101),
    ], ids=FamilySpec.tag)
    def test_loaded_family_gets_generated_verdict(self, spec, tmp_path):
        # the tail is read off the window, so the CSV round trip keeps it
        seq = make_family(spec, 4096)
        save_nodes(seq, tmp_path / "n.csv")
        rep = full_verdict(seq, 2.0)
        loaded = full_verdict(load_nodes(tmp_path / "n.csv"), 2.0)
        assert loaded.verdict == rep.verdict
        assert loaded.ap_sup == pytest.approx(rep.ap_sup, rel=1e-8)

    @pytest.mark.parametrize("name", ["alternating 0.1i", "random 0.2i"])
    def test_complex_window_passes_without_warnings(self, name):
        # |lambda_k - k| <= 0.2 < 1/4: complete interpolating by Kadets'
        # theorem; the fitted tail keeps the sweep's quotients in range
        k = np.arange(-4096, 4097)
        eta = {"alternating 0.1i": 0.1 * (-1.0) ** k,
               "random 0.2i": np.random.default_rng(101).uniform(
                   -0.2, 0.2, k.size)}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = full_verdict(NodeSequence(k, k + 1j * eta), 2.0)
        assert rep.verdict == "PASS"
        assert np.isfinite(rep.ap_sup) and np.isfinite(rep.growth_r2)


def _derivative_weight_sups(seq, gf, p, windows=(256, 512, 1024)):
    """Discrete quotient sup of |S'(anchor)|^p over nested anchor windows."""
    sups = []
    for jm in windows:
        sel = select_subsequence(seq, r=1.0, j_max=jm)
        logw = gf.node_derivative_logabs(sel.node_indices)
        w = np.exp(p * (logw - logw.max()))
        res = discrete_ap(w, p, n_max=min(len(w) // 2, 1024))
        sups.append(res.sup)
    return np.asarray(sups)


class TestCrossChecks:
    """The discrete quotients of the derivative weights and the continuous
    quotients of the weight function agree on the same family: both
    stabilize under window doubling, or neither does."""

    @pytest.mark.parametrize("d", [0.0, 0.1, 0.2])
    def test_subcritical_weights_stable_both_ways(self, d):
        seq = (integer_lattice(1 << 14) if d == 0.0
               else make_family(FamilySpec("signed", d), 1 << 14))
        gf = build_generating_function(seq)
        sups = _derivative_weight_sups(seq, gf, 2.0)
        rel = np.abs(np.diff(sups)) / sups[1:]
        assert np.all(rel < 0.05)
        rep = full_verdict(seq, 2.0, gf=gf, x_max=2048.0)
        assert rep.verdict == "PASS"

    def test_critical_weights_grow_both_ways(self):
        seq = make_family(FamilySpec("signed", 0.25), 1 << 14)
        gf = build_generating_function(seq)
        sups = _derivative_weight_sups(seq, gf, 2.0)
        rel = np.abs(np.diff(sups)) / sups[1:]
        assert np.all(rel > 0.05)
        rep = full_verdict(seq, 2.0, gf=gf, x_max=2048.0)
        assert rep.verdict == "FAIL"
