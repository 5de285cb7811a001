import numpy as np
import pytest
from scipy.special import digamma

from pwinterp import DiscreteHilbertOperator, probe_norm
from pwinterp.hilbert import weighted_norm


def _lattice_op(N):
    k = np.arange(-N, N + 1, dtype=float)
    return DiscreteHilbertOperator(sources=k, targets=k + 0.5)


class TestApply:
    def test_unit_vector_single_terms(self):
        op = _lattice_op(50)
        a = np.zeros(101)
        a[50] = 1.0  # node k = 0
        out = op.apply(a)
        j = np.arange(-50, 51, dtype=float)
        assert np.allclose(out, 1.0 / (j + 0.5))

    def test_zero_vector(self):
        op = _lattice_op(10)
        assert np.all(op.apply(np.zeros(21)) == 0)

    def test_all_ones_digamma_oracle(self):
        # sum_{k=-N..N} 1/(1/2 - k) telescopes to psi(N+3/2) - psi(N+1/2)
        N = 100
        op = _lattice_op(N)
        out = op.apply(np.ones(2 * N + 1))
        j0 = N  # target 0.5
        expect = digamma(N + 1.5) - digamma(N + 0.5)
        assert out[j0].real == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.0 / (N + 0.5), rel=1e-10)

    def test_length_mismatch(self):
        op = _lattice_op(4)
        with pytest.raises(ValueError, match="match"):
            op.apply(np.ones(5))

    def test_linearity(self, rng):
        op = _lattice_op(30)
        a = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        b = rng.standard_normal(61)
        lhs = op.apply(a + b)
        rhs = op.apply(a) + op.apply(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))

    def test_coincident_pair_rejected(self):
        with pytest.raises(ValueError, match="coincides"):
            DiscreteHilbertOperator([0.0, 1.0], [1.0, 2.0])


class TestProbeNorm:
    def test_lattice_window_reaches_three(self):
        op = _lattice_op(100)  # window of 201 sources
        res = probe_norm(op, np.ones(201), 2.0, trials=8, seed=1)
        assert res.lower_bound >= 3.0
        assert res.lower_bound <= np.pi  # never beats the true norm

    def test_rank_one_exact(self):
        op = DiscreteHilbertOperator([0.0], [2.5])
        res = probe_norm(op, np.ones(1), 2.0, trials=4, seed=0)
        assert res.lower_bound == pytest.approx(1 / 2.5, rel=1e-12)

    def test_weight_scale_invariance(self, rng):
        op = _lattice_op(40)
        w = rng.uniform(0.5, 2.0, 81)
        a = probe_norm(op, w, 2.0, trials=6, seed=3).lower_bound
        b = probe_norm(op, 17.0 * w, 2.0, trials=6, seed=3).lower_bound
        assert b == pytest.approx(a, rel=1e-12)

    def test_history_monotone(self):
        op = _lattice_op(60)
        res = probe_norm(op, np.ones(121), 1.7, trials=20, seed=2)
        hist = np.asarray(res.history)
        assert np.all(np.diff(hist) >= 0)

    def test_sigma_choice_insensitive(self):
        # two admissible probe sets at the same circle radius
        k = np.arange(-80, 81, dtype=float)
        eps = 0.09
        op1 = DiscreteHilbertOperator(k, k + eps)
        op2 = DiscreteHilbertOperator(k, k + 1j * eps)
        w = np.ones(k.size)
        a = probe_norm(op1, w, 2.0, trials=8, seed=5).lower_bound
        b = probe_norm(op2, w, 2.0, trials=8, seed=5).lower_bound
        assert max(a, b) / min(a, b) <= 4.0


class TestWeightedNorm:
    def test_matches_manual(self, rng):
        a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        w = rng.uniform(0.1, 3.0, 32)
        for p in (1.5, 2.0, 3.0):
            manual = np.sum(np.abs(a) ** p * w) ** (1 / p)
            assert weighted_norm(a, w, p) == pytest.approx(manual, rel=1e-12)
