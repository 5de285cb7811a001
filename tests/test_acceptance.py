"""Acceptance battery: one test per criterion, run at the stated
tolerances.  Each test prints its own pass line so `pytest -v -s` reads as
the acceptance checklist."""
import json
import time

import numpy as np
import pytest

from pwinterp import (FamilySpec, GridSpec, SampleSet, Thresholds,
                      build_generating_function, carleson_sum,
                      discrete_ap, continuous_ap, DiscreteHilbertOperator,
                      IntervalFamily, fit_weight_exponent, full_verdict,
                      integer_lattice, make_family, probe_norm, reconstruct,
                      select_subsequence, comparability_stats)
from pwinterp.cli import main as cli_main


def _ok(name):
    print(f"acceptance {name}: PASS")


def _bad_orientation(p: float) -> float:
    """Sign of the perturbation whose critical magnitude breaks the
    weight condition: the weight power lands on the non-integrable
    boundary of the Muckenhoupt cone (dual side for p <= 2, direct side
    for p > 2)."""
    return -1.0 if p <= 2.0 else 1.0


class TestAcceptance:
    def test_c01_lattice_product_oracle(self, gf_lattice_100k):
        x = np.round(np.arange(-1000, 1001) * 0.01, 10)
        t0 = time.monotonic()
        vals = gf_lattice_100k.value(x)
        elapsed = time.monotonic() - t0
        sup = np.max(np.abs(vals - np.sin(np.pi * x) / np.pi))
        assert sup <= 1e-3
        assert elapsed <= 60.0
        _ok(f"c01 lattice oracle (sup err {sup:.2e}, {elapsed:.2f}s)")

    def test_c02_node_derivatives(self, gf_lattice_100k):
        ks = np.arange(-10, 11)
        vals = gf_lattice_100k.node_derivatives(ks)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-3
        signs = np.sign(vals.real)
        assert np.array_equal(signs, (-1.0) ** ks)
        _ok("c02 node derivatives alternate with unit modulus")

    def test_c03_carleson_sum(self, gf_lattice_100k):
        res = carleson_sum(gf_lattice_100k.seq)
        assert res.sup == pytest.approx(np.pi ** 2 / 3, abs=1e-3)
        _ok(f"c03 carleson sum {res.sup:.6f} vs pi^2/3")

    def test_c04_discrete_ap(self):
        flat = discrete_ap(np.ones(1 << 12), 2.0, n_max=1 << 11)
        assert flat.sup == pytest.approx(1.0, abs=1e-12)
        lin = discrete_ap(np.arange(1, (1 << 12) + 1, dtype=float), 2.0,
                          n_max=1 << 11)
        assert lin.slope == pytest.approx(0.5, rel=0.2)
        _ok(f"c04 discrete quotients (flat {flat.sup:.2e}, "
            f"linear slope {lin.slope:.3f})")

    def test_c05_continuous_ap_power_oracles(self):
        fam = IntervalFamily(x_max=8192.0, m_min=5, m_max=13)
        sqrt_res = continuous_ap(lambda x: np.sqrt(np.abs(x)), 2.0, fam,
                                 1 / 128)
        assert np.all(np.abs(sqrt_res.level_max - 4 / 3) <= 0.02 * 4 / 3)
        th = Thresholds()
        lin_res = continuous_ap(lambda x: np.abs(x), 2.0, fam, 1 / 128)
        fires = (
            lin_res.growth_slope
            > th.slope_factor * np.mean(lin_res.level_max)
            and lin_res.growth_r2 >= th.r2_min
            and lin_res.growth_persistence >= th.persistence_min
        )
        assert fires
        _ok("c05 continuous quotients (4/3 flat, |x| detector fires)")

    def test_c06_interpolation_and_sinc_round_trip(self, gf_lattice_100k):
        rec = reconstruct(gf_lattice_100k, SampleSet.unit(3),
                          GridSpec(-8.0, 8.0, 0.01))
        err = np.max(np.abs(rec.values - np.sinc(rec.grid - 3)))
        assert err <= 1e-3
        nodes = reconstruct(gf_lattice_100k, SampleSet.unit(3),
                            GridSpec(-10.0, 10.0, 1.0))
        expect = np.zeros(21)
        expect[13] = 1.0
        assert np.max(np.abs(nodes.values - expect)) <= 1e-9
        _ok(f"c06 sinc round trip (max err {err:.2e})")

    @pytest.mark.parametrize("kind", ["constant_shift", "signed"])
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2])
    def test_c07_subcritical_families_pass(self, kind, d):
        seq = make_family(FamilySpec(kind, d), 1 << 15)
        rep = full_verdict(seq, 2.0)
        assert rep.verdict == "PASS"
        _ok(f"c07 {kind} d={d} PASS")

    def test_c07_critical_signed_fails(self, gf_signed_quarter_out,
                                       gf_signed_quarter_in):
        gf = (gf_signed_quarter_in if _bad_orientation(2.0) < 0
              else gf_signed_quarter_out)
        fit = fit_weight_exponent(gf, 32, 4096)
        assert fit.slope == pytest.approx(2 * 0.25, abs=0.05)
        rep = full_verdict(gf.seq, 2.0, gf=gf, x_max=8192.0)
        assert rep.verdict == "FAIL"
        assert rep.growth_slope > 0
        assert rep.growth_r2 >= 0.9
        assert float(rep.ap_quotients[0][0]) == 32.0
        assert float(rep.ap_quotients[-1][0]) == 8192.0
        _ok(f"c07 signed 0.25 bad orientation FAIL "
            f"(slope {rep.growth_slope:.3f}, r2 {rep.growth_r2:.3f})")

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_c08_boundary_matches_for_conjugate_pair(self, p):
        crit = 1.0 / (2.0 * max(p, p / (p - 1)))
        assert crit == pytest.approx(1 / 6)
        seq = make_family(FamilySpec("signed", 0.1), 1 << 15)
        assert full_verdict(seq, p).verdict == "PASS"
        bad = make_family(
            FamilySpec("signed", _bad_orientation(p) * crit), 1 << 15)
        rep = full_verdict(bad, p)
        assert rep.verdict == "FAIL"
        _ok(f"c08 p={p}: d=0.1 PASS, critical 1/6 FAIL")

    def test_c09_weight_exponents(self, gf_lattice_8k,
                                  gf_signed_quarter_out,
                                  gf_signed_quarter_in):
        out = fit_weight_exponent(gf_signed_quarter_out, 32, 4096)
        inw = fit_weight_exponent(gf_signed_quarter_in, 32, 4096)
        flat = fit_weight_exponent(gf_lattice_8k, 32, 768)
        assert out.slope == pytest.approx(-0.5, abs=0.05)
        assert inw.slope == pytest.approx(+0.5, abs=0.05)
        assert abs(flat.slope) <= 0.05
        _ok(f"c09 exponents out {out.slope:.3f} / in {inw.slope:.3f} / "
            f"lattice {flat.slope:.4f}")

    def test_c10_comparability_spread(self, gf_lattice_8k):
        x = np.linspace(10.0, 1000.0, 1024)
        for gf in (
            gf_lattice_8k,
            build_generating_function(
                make_family(FamilySpec("constant_shift", 0.2), 1 << 13)),
            build_generating_function(
                make_family(FamilySpec("signed", 0.2), 1 << 13)),
        ):
            sel = select_subsequence(gf.seq, r=1.0, j_max=260)
            stats = comparability_stats(gf, sel, x)
            assert stats.spread <= 100.0
        _ok("c10 derivative/weight comparability spread <= 100")

    def test_c11_boundedness_cooccurrence_matrix(self):
        windows = (64, 128, 256)
        K = 1 << 13
        matrix = {}

        def probe_and_quotient(weight_of):
            probes, quotients = [], []
            for N in windows:
                seq, sel, w = weight_of(N)
                eps = 0.05
                op = DiscreteHilbertOperator(sel, sel + 1j * eps)
                probes.append(
                    probe_norm(op, w, 2.0, trials=8, seed=3).lower_bound)
                quotients.append(
                    discrete_ap(w, 2.0, n_max=len(w) // 2).sup)
            def stable(seq_vals):
                a, b = seq_vals[-2], seq_vals[-1]
                return abs(b - a) <= 0.05 * abs(b)
            return stable(probes), stable(quotients)

        def ones_case(N):
            k = np.arange(-N, N + 1, dtype=float)
            return None, k, np.ones(k.size)

        matrix["ones"] = probe_and_quotient(ones_case)

        for d in (0.0, 0.1, 0.2):
            seq = (integer_lattice(K) if d == 0.0
                   else make_family(FamilySpec("signed", d), K))
            gf = build_generating_function(seq)

            def derivative_case(N, gf=gf, seq=seq):
                sel = select_subsequence(seq, r=1.0, j_max=N // 2)
                logw = gf.node_derivative_logabs(sel.node_indices)
                w = np.exp(2.0 * (logw - logw.max()))
                return seq, sel.anchors, w

            matrix[f"derivative d={d}"] = probe_and_quotient(derivative_case)

        def exponential_case(N):
            k = np.arange(-N, N + 1, dtype=float)
            return None, k, np.exp(k - k.max() / 2)

        matrix["exponential"] = probe_and_quotient(exponential_case)

        for name, (probe_ok, quot_ok) in matrix.items():
            assert probe_ok == quot_ok, f"discordant cell: {name}"
        assert matrix["ones"] == (True, True)
        assert matrix["exponential"] == (False, False)
        _ok(f"c11 co-occurrence matrix concordant: "
            f"{ {k: v[0] for k, v in matrix.items()} }")

    def test_c12_exponent_scaling(self):
        base_d = 0.2
        K = 1 << 15
        base = build_generating_function(
            make_family(FamilySpec("signed", base_d), K))
        base_fit = fit_weight_exponent(base, 32, 2048)
        for alpha in (0.25, 0.5, 1.0):
            spec = FamilySpec("signed", alpha * base_d, delta0=alpha)
            gf = build_generating_function(make_family(spec, K))
            fit = fit_weight_exponent(gf, 32, 2048)
            assert fit.slope == pytest.approx(alpha * base_fit.slope,
                                              abs=0.1)
        _ok("c12 exponent scales linearly with alpha")

    def test_c13_cli_determinism(self, tmp_path):
        runs = []
        for tag in ("first", "second"):
            jpath = tmp_path / f"check-{tag}.json"
            cpath = tmp_path / f"nodes-{tag}.csv"
            gpath = tmp_path / f"genfn-{tag}.csv"
            code = cli_main(["check", "--family", "random:0.3:seed=9",
                             "--K", "2048", "--xmax", "512", "--seed", "4",
                             "--json", str(jpath)])
            assert code in (0, 1, 2)
            assert cli_main(["family", "--family", "random:0.3:seed=9",
                             "--K", "2048", "-o", str(cpath)]) == 0
            assert cli_main(["genfn", "--family", "signed:0.25",
                             "--K", "1024", "--grid", "-5:5:0.25",
                             "-o", str(gpath)]) == 0
            runs.append((code, jpath.read_bytes(), cpath.read_bytes(),
                         gpath.read_bytes()))
        assert runs[0] == runs[1]
        payload = json.loads(runs[0][1])
        assert payload["schema_version"] == 2
        _ok("c13 CLI runs byte-identical")
