import numpy as np
import pytest

from pwinterp import (FamilySpec, NodeSequence, integer_lattice, load_nodes,
                      make_family, relative_density, save_nodes, separation)
from pwinterp._engine import nearest_nodes


def nearest_distance(seq, x):
    """dist(x, Lambda) by the engine's sorted nearest-node search."""
    return float(nearest_nodes(seq.positions, x)[0][0])


class TestIntegerLattice:
    def test_positions(self):
        seq = integer_lattice(3)
        assert np.array_equal(seq.positions.real,
                              np.array([-3, -2, -1, 0, 1, 2, 3]))
        assert np.all(seq.positions.imag == 0)

    def test_node_count(self):
        assert len(integer_lattice(3)) == 7

    def test_origin_node(self):
        assert integer_lattice(1).node(0).position == 0j


class TestMakeFamily:
    def test_signed_tail_pattern(self):
        seq = make_family(FamilySpec("signed", 0.25), 5)
        assert seq.node(2).position == pytest.approx(2.25)
        assert seq.node(-2).position == pytest.approx(-2.25)

    def test_signed_origin_default(self):
        seq = make_family(FamilySpec("signed", 0.25), 5)
        assert seq.node(0).position == pytest.approx(1.0)

    def test_constant_zero_is_lattice(self):
        a = make_family(FamilySpec("constant_shift", 0.0), 8)
        b = integer_lattice(8)
        assert np.array_equal(a.positions, b.positions)

    def test_alternating(self):
        seq = make_family(FamilySpec("alternating", 0.2), 4)
        assert seq.node(1).position == pytest.approx(1 - 0.2)
        assert seq.node(2).position == pytest.approx(2 + 0.2)

    def test_random_deterministic(self):
        spec = FamilySpec("random", 0.3, seed=11)
        a = make_family(spec, 64)
        b = make_family(spec, 64)
        assert np.array_equal(a.positions, b.positions)

    def test_random_within_bound(self):
        seq = make_family(FamilySpec("random", 0.3, seed=5), 128)
        assert np.max(np.abs(seq.positions.real - seq.indices)) <= 0.3

    @pytest.mark.parametrize("kind,d", [("alternating", 0.5),
                                        ("random", 0.7),
                                        ("constant_shift", 1.0),
                                        ("signed", 1.2)])
    def test_rejects_collapsing_d(self, kind, d):
        with pytest.raises(ValueError):
            FamilySpec(kind, d)

    @pytest.mark.parametrize("K", [6, 7])
    @pytest.mark.parametrize("spec", [
        FamilySpec("integer"), FamilySpec("constant_shift", 0.3),
        FamilySpec("signed", 0.25), FamilySpec("signed", -0.2, delta0=0.5),
        FamilySpec("alternating", -0.3), FamilySpec("random", 0.4, seed=3),
    ], ids=lambda spec: spec.tag())
    def test_positions_match_per_kind_formulas(self, spec, K):
        # each kind's pattern written out on its own, bit for bit
        k = np.arange(-K, K + 1)
        d = spec.d
        expect = {
            "integer": lambda: k + 0.0,
            "constant_shift": lambda: k + d,
            "signed": lambda: np.array([kk + (spec.delta0 if kk == 0 else
                                              (d if kk > 0 else -d))
                                        for kk in k]),
            "alternating": lambda: np.array([kk + (d if kk % 2 == 0 else -d)
                                             for kk in k]),
            "random": lambda: k + np.random.default_rng(spec.seed).uniform(
                -d, d, size=k.size),
        }[spec.kind]()
        got = make_family(spec, K)
        assert np.array_equal(got.indices, k)
        assert np.array_equal(got.positions, expect + 0j)

    def test_delta_beyond_window(self):
        # the pattern past any window
        k = np.array([-9, -8, 8, 9])
        assert np.array_equal(FamilySpec("alternating", 0.2).delta(k),
                              [-0.2, 0.2, 0.2, -0.2])
        assert np.array_equal(FamilySpec("signed", 0.2).delta(k),
                              [-0.2, -0.2, 0.2, 0.2])

    def test_signed_wide_d_allowed(self):
        # the signed pattern keeps its gaps for 1/2 <= |d| < 1
        seq = make_family(FamilySpec("signed", 0.6), 16)
        assert separation(seq) > 0


class TestNodesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n0,0,0\n1,1,0\n")
        seq = load_nodes(path)
        assert len(seq) == 2
        assert seq.node(1).position == 1 + 0j

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n0,0,0\n0,1,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_nodes(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n")
        with pytest.raises(ValueError, match="empty sequence"):
            load_nodes(path)

    def test_unsorted_rows_sorted_on_load(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n2,2.5,0\n-1,-1,0\n0,0.25,0\n")
        seq = load_nodes(path)
        assert list(seq.indices) == [-1, 0, 2]

    def test_save_load_identity(self, tmp_path):
        seq = make_family(FamilySpec("random", 0.4, seed=3), 32)
        path = tmp_path / "out.csv"
        save_nodes(seq, path)
        back = load_nodes(path)
        assert np.array_equal(back.positions, seq.positions)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n0,nan,0\n")
        with pytest.raises(ValueError):
            load_nodes(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n0,0.5\n")
        with pytest.raises(ValueError, match="malformed"):
            load_nodes(path)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("k,re,im\n0,1.5e-1,0\n1,1.0e0,-2E-3\n")
        seq = load_nodes(path)
        assert seq.node(0).position == pytest.approx(0.15)
        assert seq.node(1).position == pytest.approx(1.0 - 0.002j)


class TestNearestDistance:
    def test_lattice_interior(self):
        seq = integer_lattice(10)
        assert nearest_distance(seq, 0.3) == pytest.approx(0.3)
        assert nearest_distance(seq, 0.5) == pytest.approx(0.5)

    def test_complex_toy(self):
        seq = NodeSequence([0, 1], [0j, 1j])
        # distance to the node at 0 beats |2 - i|
        assert nearest_distance(seq, 2.0) == pytest.approx(2.0)

    def test_zero_at_real_nodes(self):
        seq = make_family(FamilySpec("constant_shift", 0.3), 6)
        for node in seq:
            assert nearest_distance(seq, node.position.real) == 0.0


class TestSeparation:
    def test_lattice(self):
        for K in (1, 5, 50):
            assert separation(integer_lattice(K)) == 1.0

    def test_rigid_shift_preserves_gaps(self):
        assert separation(make_family(FamilySpec("constant_shift", 0.2), 32)) \
            == pytest.approx(1.0)

    def test_signed_origin_pair(self):
        seq = make_family(FamilySpec("signed", 0.25), 16)
        # lambda_0 = 1 and lambda_1 = 1.25 are the closest pair
        assert separation(seq) == pytest.approx(0.25)

    def test_complex_sweep(self):
        seq = NodeSequence([0, 1, 2], [0j, 0.6j, 3 + 0j])
        assert separation(seq) == pytest.approx(0.6)


class TestRelativeDensity:
    def test_lattice_candidates(self):
        seq = integer_lattice(50)
        assert relative_density(seq, [0.4, 0.6, 1.1]) == pytest.approx(0.6)

    def test_large_gap_unmet(self):
        idx = np.concatenate([np.arange(-20, 0), np.arange(10, 30)])
        seq = NodeSequence(idx, idx.astype(complex) + np.where(idx < 0, 0, 10))
        assert relative_density(seq, [0.5, 1.0, 3.0]) is None

    def test_signed_scan(self):
        # with the origin node at delta0 = d the gap around 0 is 1 + 2d
        seq = make_family(FamilySpec("signed", 0.25, delta0=0.25), 64)
        assert relative_density(seq, [0.5, 0.75, 1.0]) == pytest.approx(0.75)
        # the default delta0 = 1 widens the origin gap to 2.25
        seq = make_family(FamilySpec("signed", 0.25), 64)
        assert relative_density(seq, [0.75, 1.0, 1.25]) == pytest.approx(1.25)

    def test_half_perturbation_regime(self):
        for spec in (FamilySpec("constant_shift", 0.4),
                     FamilySpec("alternating", 0.4),
                     FamilySpec("random", 0.4, seed=2),
                     FamilySpec("signed", 0.4, delta0=0.4)):
            seq = make_family(spec, 64)
            r0 = relative_density(seq, [0.25, 0.5, 0.75, 1.0])
            assert r0 is not None and r0 <= 1.0

    def test_imaginary_nodes_need_wider_square(self):
        seq = NodeSequence(np.arange(-5, 6),
                           np.arange(-5, 6) + 2.0j)
        assert relative_density(seq, [0.5, 1.0]) is None
        assert relative_density(seq, [0.5, 2.5]) == pytest.approx(2.5)


class TestSequenceInvariants:
    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            NodeSequence([0, 0], [0j, 1j])

    def test_iteration_ascending(self):
        seq = make_family(FamilySpec("random", 0.2, seed=1), 16)
        ks = [node.index for node in seq]
        assert ks == sorted(ks)

    def test_restrict(self):
        seq = integer_lattice(16)
        half = seq.restrict(8)
        assert half.half_width == 8
        assert len(half) == 17

    def test_immutable(self):
        seq = integer_lattice(4)
        with pytest.raises((AttributeError, ValueError)):
            seq.positions[0] = 5.0
