import numpy as np
import pytest

from pwinterp import (FamilySpec, GridSpec, NodeSequence, SampleSet,
                      build_generating_function, integer_lattice,
                      make_family, reconstruct, round_trip, stability_ratio,
                      weighted_data_norm)
from pwinterp.interp import load_samples, save_samples


def sinc(x):
    return np.sinc(np.asarray(x, dtype=np.complex128) / np.pi * np.pi)


def np_sinc(x):
    # normalized sin(pi x)/(pi x) with the limit at 0
    return np.sinc(np.asarray(x))


class TestWeightedDataNorm:
    def test_single_real_node(self, gf_lattice_8k):
        s = SampleSet.unit(0)
        assert weighted_data_norm(s, gf_lattice_8k.seq, 2.0) == 1.0

    def test_imaginary_node(self):
        seq = NodeSequence([0, 1], [1j, 2.0 + 0j])
        s = SampleSet(np.array([0]), np.array([1.0 + 0j]))
        expect = np.sqrt(2.0 * np.exp(-2 * np.pi))
        assert weighted_data_norm(s, seq, 2.0) == pytest.approx(expect,
                                                                rel=1e-12)

    def test_two_unit_entries(self, gf_lattice_8k):
        s = SampleSet(np.array([0, 5]), np.array([1.0, 1.0]))
        assert weighted_data_norm(s, gf_lattice_8k.seq, 2.0) == \
            pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_unknown_index(self, gf_lattice_8k):
        s = SampleSet(np.array([10 ** 6]), np.array([1.0]))
        with pytest.raises(KeyError):
            weighted_data_norm(s, gf_lattice_8k.seq, 2.0)


class TestReconstruct:
    def test_unit_at_zero_midpoint(self, gf_lattice_8k):
        rec = reconstruct(gf_lattice_8k, SampleSet.unit(0),
                          GridSpec(0.5, 0.6, 0.1))
        assert rec.values[0] == pytest.approx(2 / np.pi, abs=1e-4)

    def test_interpolation_property_on_integers(self, gf_lattice_8k):
        rec = reconstruct(gf_lattice_8k, SampleSet.unit(3),
                          GridSpec(-10.0, 10.0, 1.0))
        expect = np.zeros(21)
        expect[13] = 1.0
        assert np.max(np.abs(rec.values - expect)) < 1e-9

    def test_interpolation_property_general_data(self, rng):
        seq = make_family(FamilySpec("random", 0.35, seed=21), 2048)
        gf = build_generating_function(seq)
        ks = np.array([-5, -1, 0, 2, 7])
        vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        s = SampleSet(ks, vals)
        pts = seq.positions[seq.array_offset(ks)].real
        for x0, a in zip(pts, vals):
            rec = reconstruct(gf, s, GridSpec(x0 - 0.005, x0 + 0.005, 0.005))
            got = rec.values[np.argmin(np.abs(rec.grid - x0))]
            assert abs(got - a) <= 1e-9 * abs(a)

    def test_two_term_sinc_sum(self, gf_lattice_100k):
        s = SampleSet(np.array([3, -2]), np.array([1.0, 0.5]))
        grid = GridSpec(-8.0, 8.0, 0.01)
        rec = reconstruct(gf_lattice_100k, s, grid)
        x = rec.grid
        oracle = np_sinc(x - 3) + 0.5 * np_sinc(x + 2)
        assert np.max(np.abs(rec.values - oracle)) <= 1e-3

    def test_linearity(self, gf_lattice_8k, rng):
        ks = np.array([0, 4, -3])
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3)
        grid = GridSpec(-5.0, 5.0, 0.25)
        ra = reconstruct(gf_lattice_8k, SampleSet(ks, a), grid).values
        rb = reconstruct(gf_lattice_8k, SampleSet(ks, b), grid).values
        rab = reconstruct(gf_lattice_8k, SampleSet(ks, a + b), grid).values
        assert np.max(np.abs(rab - (ra + rb))) < 1e-12 * np.max(np.abs(rab))

    def test_residual_decays_as_window_doubles(self):
        # sinc-combination data is reproduced better by wider windows:
        # the unique interpolant emerges in the window limit
        ks = np.arange(-64, 65)
        truth = lambda x: (np_sinc(np.asarray(x).real - 1)
                           + 0.25 * np_sinc(np.asarray(x).real + 4))
        grid = GridSpec(-12.0, 12.0, 0.05)
        errs = {}
        for K in (256, 512, 1024):
            gf = build_generating_function(integer_lattice(K),
                                           compensate=False)
            data = truth(ks.astype(float))
            rec = reconstruct(gf, SampleSet(ks, data), grid)
            errs[K] = np.max(np.abs(rec.values - truth(rec.grid)))
        assert errs[512] < errs[256]
        assert errs[1024] < errs[512]

    def test_unit_data_matches_basis_function(self, gf_lattice_8k):
        # reconstruct with unit data equals S(x)/(S'(k)(x - k)) pointwise
        k = 2
        grid = GridSpec(-6.0, 6.0, 0.31)
        rec = reconstruct(gf_lattice_8k, SampleSet.unit(k), grid)
        x = rec.grid
        direct = (gf_lattice_8k.value(x)
                  / (gf_lattice_8k.node_derivative(k) * (x - k)))
        assert np.max(np.abs(rec.values - direct)) < 1e-9


class TestGridSpec:
    @pytest.mark.parametrize("x_min,x_max,step", [
        (1.0, 0.0, 0.1), (np.nan, 1.0, 0.1), (0.0, np.inf, 0.1),
        (-np.inf, 0.0, 0.1), (0.0, 1.0, np.inf), (0.0, 1.0, np.nan)])
    def test_reversed_or_non_finite_rejected(self, x_min, x_max, step):
        with pytest.raises(ValueError, match="finite x_min < x_max"):
            GridSpec(x_min, x_max, step)


class TestStabilityRatio:
    def test_unit_sinc_ratio_one(self, gf_lattice_8k):
        ratio = stability_ratio(gf_lattice_8k, SampleSet.unit(0), 2.0,
                                GridSpec(-60.0, 60.0, 0.02))
        assert ratio == pytest.approx(1.0, abs=2e-2)

    def test_homogeneous_in_data(self, gf_lattice_8k, rng):
        ks = np.arange(-6, 7)
        a = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        grid = GridSpec(-30.0, 30.0, 0.05)
        r1 = stability_ratio(gf_lattice_8k, SampleSet(ks, a), 2.0, grid)
        r2 = stability_ratio(gf_lattice_8k, SampleSet(ks, 3.7 * a), 2.0,
                             grid)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_random_sweep_stable_under_window_doubling(self, rng):
        grids = GridSpec(-40.0, 40.0, 0.05)
        ks = np.arange(-8, 9)
        draws = [rng.standard_normal(17) + 1j * rng.standard_normal(17)
                 for _ in range(20)]
        draws = [a / np.linalg.norm(a) for a in draws]
        ratios = {}
        for K in (2048, 4096):
            seq = make_family(FamilySpec("signed", 0.2), K)
            gf = build_generating_function(seq)
            ratios[K] = max(stability_ratio(gf, SampleSet(ks, a), 2.0, grids)
                            for a in draws)
        assert ratios[4096] < np.inf
        assert abs(ratios[4096] - ratios[2048]) / ratios[4096] < 0.1

    def test_zero_data_rejected(self, gf_lattice_8k):
        s = SampleSet(np.array([0]), np.array([0.0 + 0j]))
        with pytest.raises(ValueError, match="zero data norm"):
            stability_ratio(gf_lattice_8k, s, 2.0, GridSpec(-5, 5, 0.1))


class TestRoundTrip:
    def test_lattice_shifted_sinc(self, gf_lattice_100k):
        rep = round_trip(gf_lattice_100k, lambda z: np_sinc(z.real - 3),
                         support_k_max=5000, grid=GridSpec(-16, 16, 0.01))
        assert rep.max_abs_error <= 1e-3

    def test_constant_shift_sinc(self):
        # node window 8192 keeps the 2000-node support inside the region
        # where the far-tail series is trusted
        seq = make_family(FamilySpec("constant_shift", 0.2), 8192)
        gf = build_generating_function(seq)
        rep = round_trip(gf, lambda z: np_sinc(np.asarray(z).real),
                         support_k_max=2000, grid=GridSpec(-100, 100, 0.05))
        assert rep.rel_lp_error <= 5e-2

    def test_zero_oracle_exact(self, gf_lattice_8k):
        rep = round_trip(gf_lattice_8k, lambda z: np.zeros(np.shape(z)),
                         support_k_max=100, grid=GridSpec(-20, 20, 0.1))
        assert rep.max_abs_error == 0.0


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        s = SampleSet(np.array([3, -2]), np.array([1.0 + 2.0j, -0.5 + 0j]))
        path = tmp_path / "samples.csv"
        save_samples(s, path)
        back = load_samples(path)
        assert np.array_equal(back.indices, np.sort(s.indices)) or \
            np.array_equal(back.indices, s.indices)
        assert set(zip(back.indices, back.values)) == \
            set(zip(s.indices, s.values))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_samples(path)
