"""Property tests (hypothesis) for invariants that hold on every input:
Carleson sums under translation, and agreement of the two product kernels
on the weight."""
import numpy as np
from hypothesis import given, settings, strategies as st

from pwinterp import (FamilySpec, NodeSequence, build_generating_function,
                      carleson_sum, make_family)

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


@_SETTINGS
@given(seq=real_families(256, 2048, 0.45), seed=st.integers(0, 1 << 32),
       n_pts=st.integers(256, 600), hits=st.integers(0, 8))
def test_bulk_and_pointwise_weight_agree(seq, seed, n_pts, hits):
    # one batch of >= 256 real points runs the bulk kernel, three batches
    # of fewer than 256 run the pointwise product
    gf = build_generating_function(seq)
    rng = np.random.default_rng(seed)
    lim = min(gf.trust_radius, seq.half_width - 26)
    x = rng.uniform(-lim, lim, n_pts)
    # exact node hits take the divided product on both kernels
    nodes = seq.positions.real
    x[:hits] = rng.choice(nodes[np.abs(nodes) < lim], hits)
    bulk = gf.weight(x)
    pointwise = np.concatenate([gf.weight(part)
                                for part in np.array_split(x, 3)])
    assert np.all(np.isfinite(bulk)) and np.all(bulk > 0)
    np.testing.assert_allclose(bulk, pointwise, rtol=1e-8, atol=0.0)
