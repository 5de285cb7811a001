"""Property tests (hypothesis) for invariants that hold on every input:
Carleson sums under translation and against all pairs, agreement of the
two product kernels on the weight, the divided product against S' and the
weight on both kernels, conjugate symmetry and exact zeros of the
product, the separation scan and the nearest-node search against all
pairs, and the node CSV round trip."""
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from pwinterp import (FamilySpec, NodeSequence, build_generating_function,
                      carleson_sum, load_nodes, make_family, save_nodes,
                      separation)
from pwinterp._engine import nearest_nodes
from test_engine import all_pairs_nearest

# fixed examples, so a tier-1 run is repeatable
_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                     database=None)


@st.composite
def real_families(draw, k_min, k_max, d_max):
    kind = draw(st.sampled_from(["integer", "signed", "constant_shift",
                                 "alternating", "random"]))
    # |d| >= 0.05 keeps the signed family's origin node (at 1) off node 1
    d = draw(st.floats(0.05, d_max))
    if kind == "integer":
        d = 0.0
    elif kind != "random":
        d *= draw(st.sampled_from([-1.0, 1.0]))
    spec = FamilySpec(kind, d, seed=draw(st.integers(0, 1 << 16)))
    return make_family(spec, draw(st.integers(k_min, k_max)))


@_SETTINGS
@given(seq=real_families(4, 128, 0.4), shift=st.floats(-16.0, 16.0),
       eta=st.sampled_from([0.0, 0.1, 0.5]))
def test_carleson_sum_translation_invariant(seq, shift, eta):
    # alternating imaginary offsets +-eta i make the window complex for
    # eta > 0; a real shift leaves them as they are
    pos = seq.positions + 1j * eta * (-1.0) ** seq.indices
    base = carleson_sum(NodeSequence(seq.indices, pos))
    moved = carleson_sum(NodeSequence(seq.indices, pos + shift))
    assert abs(moved.sup - base.sup) <= 1e-12 * base.sup


@st.composite
def real_windows(draw):
    """Real windows of 3 to 4096 nodes with jittered spacing: index-
    contiguous, with gaps and shuffled indices, two clusters at least 1000
    apart, or fewer nodes than one Carleson block."""
    shape = draw(st.sampled_from(["contiguous", "scattered", "clusters",
                                  "small"]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))
    if shape == "small":
        n = draw(st.integers(2, 255))
    else:
        # up to 15 full blocks, so most blocks are far from most rows
        n = 256 * draw(st.integers(1, 15)) + draw(st.integers(0, 255))
    if shape in ("contiguous", "small"):
        K = n // 2
        k = np.arange(-K, K + 1)
        return NodeSequence(k, k + rng.uniform(-0.45, 0.45, k.size))
    pos = np.cumsum(rng.uniform(0.3, 2.0, n))
    if shape == "clusters":
        cut = draw(st.integers(1, n - 1))
        pos[cut:] += draw(st.floats(1000.0, 1e5))
    # indices with gaps, in an order unrelated to the positions
    k = rng.choice(4 * n, n, replace=False) - 2 * n
    return NodeSequence(k, pos)


def _carleson_rows(n, max_probes):
    """The rows ``carleson_sum`` probes: the inner half of the window,
    subsampled past ``max_probes`` with both ends and the centre kept."""
    inner = np.arange(n // 4, n - n // 4)
    if inner.size <= max_probes:
        return inner
    return np.unique(np.concatenate([
        inner[:: max(1, inner.size // max_probes)],
        [inner[0], inner[inner.size // 2], inner[-1]]]))


@_SETTINGS
@given(seq=real_windows(), max_probes=st.sampled_from([16, 512, 10_000]))
def test_carleson_sum_real_is_all_pairs(seq, max_probes):
    # far blocks through their moments, near blocks directly, against
    # every pair over the same rows
    xi = seq.positions.real
    rows = _carleson_rows(xi.size, max_probes)
    sums = np.empty(rows.size)
    for c0 in range(0, rows.size, 256):
        r = rows[c0:c0 + 256]
        d2 = (xi[r, None] - xi[None, :]) ** 2
        d2[np.arange(r.size), r] = np.inf
        sums[c0:c0 + 256] = np.sum(1.0 / d2, axis=1)
    res = carleson_sum(seq, max_probes=max_probes)
    assert abs(res.sup - sums.max()) <= 1e-13 * sums.max()
    assert res.argmax_index == seq.indices[rows[np.argmax(sums)]]


@_SETTINGS
@given(seq=real_families(256, 2048, 0.45), seed=st.integers(0, 1 << 32),
       n_pts=st.integers(256, 600), hits=st.integers(0, 8),
       eta=st.sampled_from([0.0, 0.1, 0.5]))
def test_bulk_and_pointwise_weight_agree(seq, seed, n_pts, hits, eta):
    # one batch of >= 256 real points runs the bulk kernel, three batches
    # of fewer than 256 run the pointwise product; eta > 0 moves the nodes
    # off the axis by +-eta i (with the fitted real-shift tail, which
    # holds within a quarter of the window)
    lim = seq.half_width - 26
    if eta:
        seq = NodeSequence(seq.indices,
                           seq.positions + 1j * eta * (-1.0) ** seq.indices)
        lim = seq.half_width / 4
    gf = build_generating_function(seq)
    rng = np.random.default_rng(seed)
    lim = min(gf.trust_radius, lim)
    x = rng.uniform(-lim, lim, n_pts)
    # exact node hits take the divided product on both kernels
    nodes = seq.positions.real
    x[:hits] = rng.choice(nodes[np.abs(nodes) < lim], hits)
    bulk = gf.weight(x)
    pointwise = np.concatenate([gf.weight(part)
                                for part in np.array_split(x, 3)])
    assert np.all(np.isfinite(bulk)) and np.all(bulk > 0)
    np.testing.assert_allclose(bulk, pointwise, rtol=1e-8, atol=0.0)


@_SETTINGS
@given(seq=real_families(1024, 2048, 0.45), seed=st.integers(0, 1 << 32))
def test_divided_is_sprime_and_weight_on_both_kernels(seq, seed):
    # one batch of 256 real points runs the bulk kernel, four batches of
    # 64 the pointwise product: on nodes within the trust radius the
    # divided product is S', and on real points its modulus is the weight
    gf = build_generating_function(seq)
    rng = np.random.default_rng(seed)
    inner = np.flatnonzero(np.abs(seq.positions) <= gf.trust_radius)
    pick = rng.choice(inner, 256, replace=False)
    x = rng.uniform(-gf.trust_radius, gf.trust_radius, 256)
    x[:8] = seq.positions.real[pick[:8]]  # exact node hits

    def both(f, a):
        return f(a), np.concatenate([f(part) for part in np.split(a, 4)])

    def divided(z):
        return gf.divided(z)[0]

    sprime = both(gf.node_derivatives, seq.indices[pick])
    D = both(divided, seq.positions[pick])
    for i, j in ((0, 0), (1, 1), (0, 1), (1, 0)):
        np.testing.assert_allclose(D[i], sprime[j],
                                   rtol=1e-12 if i == j else 1e-8)
    F = both(gf.weight, x)
    absD = both(lambda z: np.abs(divided(z)), x)
    for i in (0, 1):
        np.testing.assert_allclose(absD[i], F[i], rtol=1e-12)


@st.composite
def node_windows(draw):
    """Windows of at most 300 nodes, indices in shuffled order: real,
    with +-i offsets, clustered on a coarse grid (ties and duplicate
    positions) or near-vertical (many nodes sharing a real part)."""
    n = draw(st.integers(2, 300))
    shape = draw(st.sampled_from(["real", "offset", "clustered",
                                  "vertical"]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))
    k = np.arange(n)
    if shape == "real":
        pos = k + rng.uniform(-0.45, 0.45, n) + 0j
    elif shape == "offset":
        # at eta = 1 the closest pair is two places apart by real part
        eta = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
        pos = k + rng.uniform(-0.45, 0.45, n) + 1j * eta * (-1.0) ** k
    elif shape == "clustered":
        pos = (rng.integers(0, max(1, n // 8), n)
               + np.round(rng.normal(0.0, 1e-2, n), 3)
               + 1j * np.round(rng.normal(0.0, 1e-2, n), 3))
    else:
        pos = rng.normal(0.0, 1e-6, n) + 1j * (k + rng.uniform(0, 0.5, n))
    return NodeSequence(rng.permutation(n), pos)


@_SETTINGS
@given(seq=node_windows())
def test_separation_is_all_pairs_minimum(seq):
    p = seq.positions
    d = np.abs(p[:, None] - p[None, :])
    np.fill_diagonal(d, np.inf)
    assert separation(seq) == np.min(d)


@_SETTINGS
@given(seq=node_windows(), seed=st.integers(0, 1 << 32))
def test_nearest_nodes_is_all_pairs_scan(seq, seed):
    # points: anywhere around the window, real, on the nodes, and halfway
    # between two nodes (a tie where those two are the nearest)
    p = seq.positions
    rng = np.random.default_rng(seed)
    lo, hi = p.real.min() - 2.0, p.real.max() + 2.0
    ylo, yhi = p.imag.min() - 2.0, p.imag.max() + 2.0
    z = rng.uniform(lo, hi, 200) + 1j * rng.uniform(ylo, yhi, 200)
    z[:40] = z[:40].real
    z[40:60] = rng.choice(p, 20)
    z[60:80] = (rng.choice(p, 20) + rng.choice(p, 20)) / 2
    dist, nearest = nearest_nodes(p, z)
    ref_dist, ref_nearest = all_pairs_nearest(p, z)
    assert dist.tobytes() == ref_dist.tobytes()
    assert np.array_equal(nearest, ref_nearest)


@_SETTINGS
@given(seq=real_families(4, 512, 0.45), seed=st.integers(0, 1 << 32))
def test_conjugate_symmetry_on_real_windows(seq, seed):
    gf = build_generating_function(seq)
    rng = np.random.default_rng(seed)
    lim = min(gf.trust_radius, seq.half_width / 2)
    z = rng.uniform(0.0, lim, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
    z[:8] = z[:8].real  # real arguments inside a complex batch
    np.testing.assert_array_equal(gf.value(np.conj(z)), np.conj(gf.value(z)))


@_SETTINGS
@given(seq=real_families(256, 1024, 0.45), seed=st.integers(0, 1 << 32))
def test_product_vanishes_at_nodes_on_both_kernels(seq, seed):
    # one batch of 256 real points runs the bulk kernel, four batches of
    # 64 the pointwise product; a small window has fewer than 256 nodes
    # inside the trust radius, so nodes are drawn with replacement
    gf = build_generating_function(seq)
    rng = np.random.default_rng(seed)
    inner = np.flatnonzero(np.abs(seq.positions) <= gf.trust_radius)
    lam = seq.positions.real[rng.choice(inner, 256)]
    assert np.all(gf.value(lam) == 0)
    for part in np.split(lam, 4):
        assert np.all(gf.value(part) == 0)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@_SETTINGS
@given(indices=st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                        max_size=40, unique=True),
       data=st.data())
def test_nodes_csv_round_trip_bit_for_bit(indices, data):
    re = data.draw(st.lists(_finite, min_size=len(indices),
                            max_size=len(indices)))
    im = data.draw(st.lists(_finite, min_size=len(indices),
                            max_size=len(indices)))
    seq = NodeSequence(indices, np.array(re) + 1j * np.array(im))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nodes.csv")
        save_nodes(seq, path)
        back = load_nodes(path)
    assert np.array_equal(back.indices, seq.indices)
    # compare bits, so -0.0 and 0.0 count as different
    assert back.positions.tobytes() == seq.positions.tobytes()
