import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid import geometry as geo
from clipvid.errors import DimensionError, InputError
from clipvid.geometry import Box
from oracles import (BoxDelta, apply_delta, bilinear_corners, bilinear_sample, box_array,
                     giou, iou, roi_sample)
from oracles import box_from_corners as corners


def test_giou_identity():
    b = Box(0.5, 0.5, 0.4, 0.3)
    assert giou(b, b) == pytest.approx(1.0)


def test_giou_disjoint_hand_case():
    a = corners(0.0, 0.0, 0.2, 0.2)
    b = corners(0.8, 0.8, 1.0, 1.0)
    assert giou(a, b) == pytest.approx(-0.92, abs=1e-12)


def test_giou_nested_hand_case():
    a = Box(0.5, 0.5, 1.0, 1.0)
    b = Box(0.5, 0.5, 0.5, 0.5)
    assert giou(a, b) == pytest.approx(0.25)


def test_giou_degenerate_rejected():
    with pytest.raises(InputError):
        giou(Box(0.5, 0.5, 0.0, 0.1), Box(0.5, 0.5, 0.1, 0.1))


def test_iou_cases():
    b = Box(0.5, 0.5, 0.3, 0.3)
    assert iou(b, b) == pytest.approx(1.0)
    assert iou(corners(0, 0, 0.1, 0.1), corners(0.5, 0.5, 0.7, 0.7)) == 0.0
    assert iou(corners(0, 0, 1, 0.5), corners(0, 0, 1, 1)) == pytest.approx(0.5)


def test_box_overlap_matches_scalar_forms(rng):
    """inter / union is the scalar IoU and the enclosure term the scalar
    GIoU's, pair by pair over broadcast [5, 1] x [1, 7] boxes, and corners
    are Box.corners, all to the last bit."""
    a = np.concatenate([rng.uniform(0.0, 1.0, (5, 2)), rng.uniform(0.01, 0.8, (5, 2))], axis=1)
    b = np.concatenate([rng.uniform(0.0, 1.0, (7, 2)), rng.uniform(0.01, 0.8, (7, 2))], axis=1)
    b[:2] = a[:2]                                          # coincident pairs
    inter, union, enclosure = geo.box_overlap(a[:, None], b[None, :])
    assert inter.shape == union.shape == enclosure.shape == (5, 7)
    for i, j in np.ndindex(5, 7):
        pa, pb = Box(*a[i]), Box(*b[j])
        assert inter[i, j] / union[i, j] == iou(pa, pb)
        assert inter[i, j] / union[i, j] - (enclosure[i, j] - union[i, j]) / enclosure[i, j] \
            == giou(pa, pb)
    assert geo.box_corners(a).tolist() == [list(Box(*row).corners()) for row in a]


boxes_strategy = st.builds(
    lambda cx, cy, w, h: Box(cx, cy, w, h),
    st.floats(0.05, 0.95), st.floats(0.05, 0.95),
    st.floats(0.01, 0.9), st.floats(0.01, 0.9))


@settings(max_examples=80, deadline=None)
@given(boxes_strategy, boxes_strategy)
def test_giou_properties(a, b):
    g = giou(a, b)
    assert giou(b, a) == pytest.approx(g, rel=1e-12)
    assert g <= iou(a, b) + 1e-12
    assert -1.0 - 1e-12 <= g <= 1.0 + 1e-12


def test_apply_delta_zero_is_identity_away_from_clamps():
    b = Box(0.4, 0.6, 0.3, 0.2)
    out = apply_delta(b, BoxDelta(0, 0, 0, 0))
    for got, want in zip(box_array(out), box_array(b)):
        assert got == pytest.approx(want, abs=1e-9)


def test_apply_delta_sigmoid_fixed_point():
    b = Box(0.5, 0.5, 0.5, 0.5)
    out = apply_delta(b, BoxDelta(0.0, 0, 0, 0))
    assert out.cx == pytest.approx(0.5, abs=1e-12)


def test_apply_delta_ln3_moves_center_to_three_quarters():
    b = Box(0.5, 0.5, 0.5, 0.5)
    out = apply_delta(b, BoxDelta(math.log(3.0), 0, 0, 0))
    assert out.cx == pytest.approx(0.75, abs=1e-12)


def test_apply_delta_finite_required():
    with pytest.raises(InputError):
        BoxDelta(float("inf"), 0, 0, 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.2, 0.8), st.floats(0.2, 0.8), st.floats(0.1, 0.6),
       st.floats(0.1, 0.6), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_apply_delta_negation_round_trip(cx, cy, w, h, dx, dw):
    b = Box(cx, cy, w, h)
    d = BoxDelta(dx, -dx, dw, -dw)
    back = apply_delta(apply_delta(b, d), BoxDelta(-dx, dx, -dw, dw))
    for got, want in zip(box_array(back), box_array(b)):
        assert got == pytest.approx(want, abs=1e-6)


def test_box_invariants_after_update():
    b = apply_delta(Box(0.5, 0.5, 0.9, 0.9), BoxDelta(9.0, 9.0, 9.0, 9.0))
    assert 0.0 <= b.cx <= 1.0 and 0.0 <= b.cy <= 1.0
    assert geo.WH_MIN <= b.w <= 1.0 and geo.WH_MIN <= b.h <= 1.0


def test_roi_sample_constant_field():
    f = ad.tensor(np.full((5, 5, 3), 2.5))
    out = roi_sample(f, Box(0.5, 0.5, 0.6, 0.4), 3)
    assert out.shape == (9, 3)
    assert_allclose(out.data, np.full((9, 3), 2.5), atol=1e-12)
    clip = geo.roi_sample_frame(ad.tensor(np.full((2, 5, 5, 3), 2.5)),
                                np.array([[[0.5, 0.5, 0.6, 0.4], [0.2, 0.7, 0.3, 0.5]]] * 2), 3,
                                ad.tensor(np.zeros((2, 2, 3))), ad.tensor(np.zeros((3, 27))))
    assert clip.shape == (2, 2, 9, 3)
    assert_allclose(clip.data, np.full((2, 2, 9, 3), 2.5), atol=1e-12)


def test_roi_sample_full_frame_identity():
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(4, 4, 2))
    out = roi_sample(ad.tensor(grid), Box(0.5, 0.5, 1.0, 1.0), 4)
    assert_allclose(out.data, grid.reshape(16, 2), atol=1e-12)
    clip = geo.roi_sample_frame(ad.tensor(grid[None]), geo.FULL_FRAME[None, None], 4,
                                ad.tensor(np.zeros((1, 1, 2))), ad.tensor(np.zeros((2, 32))))
    assert_allclose(clip.data[0, 0], grid.reshape(16, 2), atol=1e-12)


def test_roi_sample_gradient(rng):
    w = ad.tensor(rng.normal(size=(4, 3)))
    box = Box(0.45, 0.55, 0.5, 0.6)

    def f(x):
        return ad.reduce_sum(ad.mul(roi_sample(x, box, 2), w))

    rep = ad.grad_check(f, ad.tensor(rng.normal(size=(4, 4, 3))))
    assert rep.max_rel_err < 1e-4


def test_bilinear_sample_clip_matches_single_frames_bitexactly(rng):
    f = rng.normal(size=(3, 6, 5, 4))
    pts = rng.uniform(-1.0, 7.0, size=(3, 10, 2))
    g = rng.normal(size=(3, 10, 4))
    x = ad.param(f)
    with ad.ComputationTape() as tape:
        out = bilinear_sample(x, pts)
        loss = ad.reduce_sum(ad.mul(out, ad.tensor(g)))
    tape.backward(loss)
    for t in range(3):
        xt = ad.param(f[t:t + 1])
        with ad.ComputationTape() as tape:
            single = bilinear_sample(xt, pts[t:t + 1])
            loss = ad.reduce_sum(ad.mul(single, ad.tensor(g[t:t + 1])))
        tape.backward(loss)
        assert np.array_equal(out.data[t], single.data[0])
        assert_allclose(x.grad[t], xt.grad[0], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("h,w", [(1, 6), (5, 1), (1, 1), (5, 5)])
def test_bilinear_sample_matches_scalar_corners(rng, h, w):
    """Value and gradient equal the four-corner scalar form, on maps one
    pixel wide or high too, at border-clamped, edge and interior points."""
    t, n, c = 2, 14, 3
    f = ad.param(rng.normal(size=(t, h, w, c)))
    pts = rng.uniform(-1.5, max(h, w) + 0.5, size=(t, n, 2))
    pts[:, :4] = [(0.0, 0.0), (w - 1.0, h - 1.0), (w + 3.0, -2.0), (w / 2.0, h / 2.0)]
    g = rng.normal(size=(t, n, c))
    with ad.ComputationTape() as tape:
        out = bilinear_sample(f, pts)
        loss = ad.reduce_sum(ad.mul(out, ad.tensor(g)))
    tape.backward(loss)
    want = np.zeros((t, n, c))
    grad = np.zeros((t, h, w, c))
    for i in range(t):
        for k in range(n):
            for r, col, wt in bilinear_corners(h, w, *pts[i, k]):
                want[i, k] += wt * f.data[i, r, col]
                grad[i, r, col] += wt * g[i, k]
    assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    assert_allclose(f.grad, grad, rtol=1e-12, atol=1e-12)


def test_roi_sample_linearity(rng):
    f1 = rng.normal(size=(6, 6, 2))
    f2 = rng.normal(size=(6, 6, 2))
    box = Box(0.4, 0.5, 0.7, 0.5)
    a, b = 1.7, -0.6
    lhs = roi_sample(ad.tensor(a * f1 + b * f2), box, 3).data
    rhs = a * roi_sample(ad.tensor(f1), box, 3).data \
        + b * roi_sample(ad.tensor(f2), box, 3).data
    assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("bits", [32, 64])
def test_roi_sample_shared_box_equals_the_tiled_call(bits):
    """A frame's [T, 1, 4] box, which all its queries share, is sampled once:
    the output bytes are those of the box tiled to [T, n, 4], and in 64 bits
    every gradient agrees within 1e-12 relative."""
    rng = np.random.default_rng(6)
    shared = np.array([[[0.4, 0.5, 0.5, 0.4]], [[0.62, 0.38, 0.44, 0.5]]])
    with ad.precision(bits):
        inputs = [ad.param(rng.normal(size=shape)) for shape in [(2, 8, 8, 16), (2, 3, 16),
                                                                  (16, 256)]]
        g = rng.normal(size=(2, 3, 16, 16))
        outs, grads = [], []
        for boxes in (shared, np.tile(shared, (1, 3, 1))):
            for x in inputs:
                x.grad = None
            with ad.ComputationTape() as tape:
                out = geo.roi_sample_frame(inputs[0], boxes, 4, *inputs[1:])
            tape.backward(out, seed=g)
            outs.append(out.data)
            grads.append([x.grad for x in inputs])
    assert np.array_equal(*outs)
    if bits == 64:
        for a, b in zip(*grads, strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("boxes,maps,queries", [
    ((2, 4, 4), (2, 5, 5, 3), (2, 3, 3)),
    ((3, 3, 4), (2, 5, 5, 3), (2, 3, 3)),
    ((2, 3), (2, 5, 5, 3), (2, 3, 3)),
    ((2, 3, 4), (2, 5, 5, 3), (3, 3, 3)),
], ids=["four_boxes_for_three_queries", "three_frames_on_two_maps", "flat_boxes",
        "three_query_frames_on_two_maps"])
def test_roi_sample_rejects_bad_shapes_naming_them(boxes, maps, queries):
    """Boxes that are not [T, 1 or n, 4] against [T, h, w, d] maps and
    [T, n, d] queries raise DimensionError naming all three shapes."""
    with pytest.raises(DimensionError) as exc:
        geo.roi_sample_frame(ad.tensor(np.zeros(maps)), np.full(boxes, 0.5), 3,
                             ad.tensor(np.zeros(queries)), ad.tensor(np.zeros((3, 27))))
    assert all(str(shape) in str(exc.value) for shape in (boxes, maps, queries))


def test_boxes_refine_matches_apply_delta(rng):
    ref = np.array([[0.4, 0.6, 0.3, 0.2], [0.5, 0.5, 0.9, 0.8]])
    delta = rng.normal(size=(2, 4))
    out = geo.boxes_refine(ref, ad.tensor(delta)).data
    for i in range(2):
        want = apply_delta(Box(*ref[i]), BoxDelta(*delta[i]))
        assert_allclose(out[i], box_array(want), atol=1e-12)


def test_box_pair_loss_matches_scalar(rng):
    pred = np.clip(rng.random((5, 4)), 0.1, 0.9)
    gt = np.clip(rng.random((5, 4)), 0.1, 0.9)
    out = geo.box_pair_loss(ad.tensor(pred), gt).data
    assert out.shape == (5, 2)
    for i in range(5):
        assert out[i, 0] == pytest.approx(1.0 - giou(Box(*pred[i]), Box(*gt[i])), abs=1e-10)
        assert out[i, 1] == pytest.approx(np.abs(pred[i] - gt[i]).sum(), abs=1e-12)
