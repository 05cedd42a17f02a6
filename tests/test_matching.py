import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid import matching as mt
from clipvid.errors import CapacityError, NumericError
from clipvid.geometry import Box
from oracles import focal_loss, giou, match_cost


def make_frame(logits, boxes):
    """One frame's predictions as the matcher and loss take them: logits
    [L, C] and boxes_t [L, 4] as tensors, boxes [L, 4] as an array."""
    logits = np.asarray(logits, dtype=np.float64)
    boxes = np.array([b.as_array() for b in boxes])
    return ad.param(logits), ad.param(boxes), boxes


def test_focal_loss_saturated_positive():
    assert focal_loss(20.0, 1) == pytest.approx(0.0, abs=1e-6)


def test_focal_loss_scalar_cases():
    assert focal_loss(0.0, 1, 0.25, 2.0) == pytest.approx(0.04332, abs=1e-5)
    assert focal_loss(0.0, 0, 0.25, 2.0) == pytest.approx(0.12997, abs=1e-5)


def test_focal_loss_logits_matches_scalar(rng):
    logits = rng.normal(size=(3, 4)) * 3
    targets = (rng.random((3, 4)) > 0.5).astype(float)
    out = mt.focal_loss_logits(ad.tensor(logits), targets, 0.25, 2.0).data
    for i in range(3):
        for j in range(4):
            want = focal_loss(logits[i, j], int(targets[i, j]), 0.25, 2.0)
            assert out[i, j] == pytest.approx(want, abs=1e-12)


def test_match_cost_perfect_prediction_near_zero():
    box = Box(0.5, 0.5, 0.4, 0.3)
    logits = np.full(5, -20.0)
    logits[2] = 20.0
    cost = match_cost(logits, box, 2, box, mt.MatchCostConfig())
    assert cost == pytest.approx(0.0, abs=1e-5)


def test_match_cost_classification_cancels_across_gts():
    cfg = mt.MatchCostConfig()
    logits, box = np.array([0.3, 0.3]), Box(0.5, 0.5, 0.2, 0.2)
    g1 = Box(0.4, 0.5, 0.2, 0.2)
    g2 = Box(0.7, 0.5, 0.2, 0.2)
    c1 = match_cost(logits, box, 0, g1, cfg)
    c2 = match_cost(logits, box, 1, g2, cfg)
    box_only_1 = cfg.lambda_giou * (1 - giou(box, g1)) \
        + cfg.lambda_l1 * np.abs(box.as_array() - g1.as_array()).sum()
    box_only_2 = cfg.lambda_giou * (1 - giou(box, g2)) \
        + cfg.lambda_l1 * np.abs(box.as_array() - g2.as_array()).sum()
    assert c1 - c2 == pytest.approx(box_only_1 - box_only_2, abs=1e-12)


def test_cost_matrix_micro_case_matches_scalar_oracle(rng):
    cfg = mt.MatchCostConfig()
    preds = [(rng.normal(size=3), Box(*np.clip(rng.random(4), 0.15, 0.8)))
             for _ in range(3)]
    gts = [(int(rng.integers(3)), Box(*np.clip(rng.random(4), 0.15, 0.8)))
           for _ in range(2)]
    logits = np.stack([lg for lg, _ in preds])
    boxes = np.stack([b.as_array() for _, b in preds])
    mat = mt.cost_matrix(logits, boxes, gts, cfg)
    for i, (lg, box) in enumerate(preds):
        for j, (c, b) in enumerate(gts):
            assert mat[i, j] == pytest.approx(match_cost(lg, box, c, b, cfg), abs=1e-6)


# ---------------------------------------------------------------------------
# Hungarian


def brute_force_min(cost):
    """(optimal fsum cost, column per row) over every injective map of the
    shorter side into the longer; equal costs break to the lexicographically
    smallest column sequence, an unmatched row (-1) sorting last."""
    n, m = cost.shape
    best = None
    for cols in itertools.permutations(list(range(m)) + [-1] * (n - m), n):
        key = (math.fsum(cost[i, j] for i, j in enumerate(cols) if j >= 0),
               [j if j >= 0 else m for j in cols])
        if best is None or key < best[0]:
            best = (key, list(cols))
    return best[0][0], best[1]


def tie_heavy_matrices(rng):
    """Random, integer-valued and duplicate-row L x G matrices, L <= 7,
    G in {0, 1, 2, L}, each also transposed."""
    for L in range(1, 8):
        for G in sorted({0, 1, 2, L} & set(range(L + 1))):
            dup = rng.random((max(L // 2, 1), G))
            for c in (rng.random((L, G)), rng.integers(0, 3, size=(L, G)).astype(float),
                      dup[rng.integers(0, len(dup), size=L)]):
                yield c
                yield c.T


def test_hungarian_forced_diagonal():
    cost = np.ones((4, 4)) - np.eye(4)
    assert mt.hungarian(cost) == [0, 1, 2, 3]


def test_hungarian_two_by_two():
    assert mt.hungarian(np.array([[1.0, 2.0], [2.0, 4.0]])) == [1, 0]


def test_hungarian_matches_brute_force_6x6(rng):
    for _ in range(25):
        cost = rng.random((6, 6))
        cols = mt.hungarian(cost)
        got = mt.assignment_cost(cost, cols)
        want, _ = brute_force_min(cost)
        assert got == want


def test_hungarian_tie_break_lexicographic():
    assert mt.hungarian(np.ones((3, 3))) == [0, 1, 2]
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert mt.hungarian(cost) == [0, 1]


def test_hungarian_beats_random_permutations(rng):
    for n in (5, 9, 12):
        cost = rng.random((n, n))
        cols = mt.hungarian(cost)
        opt = mt.assignment_cost(cost, cols)
        for _ in range(1000):
            perm = rng.permutation(n)
            assert opt <= math.fsum(cost[i, perm[i]] for i in range(n)) + 1e-12


def test_hungarian_rectangular_matches_brute_force(rng):
    for cost in tie_heavy_matrices(rng):
        assert mt.hungarian(cost) == brute_force_min(cost)[1], cost


def test_hungarian_near_tie_keeps_exact_minimum():
    """An 8x3 cost matrix from desk training: [1, -1, 0, -1, -1, 2, -1, -1]
    costs 5.3e-10 more than the optimum and is lexicographically smaller."""
    cost = np.array([
        [9.94426416094825, 11.755066108895198, 10.900141333916517],
        [9.942687492857956, 11.762254098999223, 10.89856466613079],
        [9.939361163145804, 11.758671024020332, 10.895238336037934],
        [9.941407378371514, 11.765663511916795, 10.897284551796636],
        [9.941997809400561, 11.755524165556265, 10.897874982292688],
        [9.938956514637962, 11.769370400892612, 10.894833688063086],
        [9.940030118858814, 11.766868009691803, 10.895907292283937],
        [9.943708568648685, 11.760971619815932, 10.899585741769235]])
    assert mt.hungarian(cost) == brute_force_min(cost)[1] == [1, -1, 2, -1, -1, 0, -1, -1]


def test_hungarian_unmatched_rows_are_minus_one():
    cost = np.array([[5.0, 5.0], [0.0, 9.0], [5.0, 5.0], [9.0, 0.0]])
    assert mt.hungarian(cost) == [-1, 0, -1, 1]
    assert mt.hungarian(cost.T) == [1, 3]
    assert mt.hungarian(np.ones((3, 1))) == [0, -1, -1]
    assert mt.hungarian(np.zeros((2, 0))) == [-1, -1]


@pytest.mark.parametrize("shape", [(30, 5), (72, 5)])
def test_hungarian_optimal_cost_matches_scipy(rng, shape):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    for _ in range(5):
        cost = rng.random(shape)
        cols = mt.hungarian(cost)
        matched = [j for j in cols if j >= 0]
        assert sorted(matched) == list(range(shape[1]))
        rows, scipy_cols = linear_sum_assignment(cost)
        assert mt.assignment_cost(cost, cols) == pytest.approx(
            math.fsum(cost[rows, scipy_cols]), rel=1e-12)


def test_hungarian_rejects_nonfinite():
    with pytest.raises(NumericError):
        mt.hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Set loss


def test_set_loss_zero_gts_is_pure_negative_classification(rng):
    cfg = mt.MatchCostConfig()
    logits, boxes_t, boxes = make_frame(rng.normal(size=(4, 3)), [Box(0.5, 0.5, 0.3, 0.3)] * 4)
    res = mt.set_loss(logits, boxes_t, boxes, [], cfg)
    want = sum(focal_loss(float(x), 0, cfg.focal_alpha, cfg.focal_gamma)
               for x in logits.data.ravel()) * cfg.lambda_cls
    assert float(res.total.data) == pytest.approx(want, abs=1e-9)
    assert res.assignment.pred_of_gt == ()
    assert res.assignment.unmatched_preds == (0, 1, 2, 3)


def test_set_loss_perfect_single_prediction(rng):
    cfg = mt.MatchCostConfig()
    box = Box(0.5, 0.5, 0.4, 0.3)
    frame = make_frame([[25.0, -25.0]], [box])
    res = mt.set_loss(*frame, [(0, box)], cfg)
    assert float(res.total.data) == pytest.approx(0.0, abs=1e-6)


def test_set_loss_matches_brute_force(rng):
    cfg = mt.MatchCostConfig()
    logits, boxes_t, boxes = make_frame(
        rng.normal(size=(4, 2)), [Box(*np.clip(rng.random(4), 0.2, 0.7)) for _ in range(4)])
    gts = [(int(rng.integers(2)), Box(*np.clip(rng.random(4), 0.2, 0.7)))
           for _ in range(2)]
    res = mt.set_loss(logits, boxes_t, boxes, gts, cfg)
    cost = mt.cost_matrix(logits.data, boxes, gts, cfg)
    best = None
    for pair in itertools.permutations(range(4), 2):
        total = cost[pair[0], 0] + cost[pair[1], 1]
        if best is None or total < best[0]:
            best = (total, pair)
    assert tuple(res.assignment.pred_of_gt) == best[1]


def test_set_loss_capacity_error(rng):
    cfg = mt.MatchCostConfig()
    frame = make_frame(rng.normal(size=(1, 2)), [Box(0.5, 0.5, 0.3, 0.3)])
    gts = [(0, Box(0.4, 0.4, 0.2, 0.2)), (1, Box(0.6, 0.6, 0.2, 0.2))]
    with pytest.raises(CapacityError):
        mt.set_loss(*frame, gts, cfg)


def test_set_loss_permutation_equivariance(rng):
    cfg = mt.MatchCostConfig()
    logits = rng.normal(size=(5, 2))
    boxes = [Box(*np.clip(rng.random(4), 0.2, 0.7)) for _ in range(5)]
    gts = [(0, Box(0.3, 0.3, 0.25, 0.25)), (1, Box(0.7, 0.6, 0.3, 0.2))]
    res = mt.set_loss(*make_frame(logits, boxes), gts, cfg)

    perm = [3, 0, 4, 1, 2]          # preds[perm[k]] becomes slot k
    permuted = make_frame(logits[perm], [boxes[i] for i in perm])
    res_p = mt.set_loss(*permuted, gts, cfg)
    assert float(res_p.total.data) == float(res.total.data)
    inv = {orig: new for new, orig in enumerate(perm)}
    assert tuple(inv[i] for i in res.assignment.pred_of_gt) \
        == tuple(res_p.assignment.pred_of_gt)


def test_set_loss_clip_normalization_invariant_under_duplication(rng):
    from clipvid import model as M
    from clipvid import training as tr
    ad.set_precision(64)
    cfg = M.ModelConfig(num_classes=2, num_queries=3, dim=8, heads=2,
                        decoder_layers=2, roi_size=2, ica_layers=0,
                        ica_topk=2, backbone_stride=4,
                        backbone_channels=(4, 4)).validate()
    params = M.init_model(cfg, rng)
    frames = rng.random((2, 8, 8, 3))
    gts = [[(0, Box(0.4, 0.4, 0.3, 0.3), 1)], [(1, Box(0.6, 0.6, 0.3, 0.3), 2)]]
    cost_cfg = mt.MatchCostConfig()
    out1 = M.clip_forward(frames, cfg, params, mode="train")
    l1, _, _ = tr.clip_loss(out1, gts, cost_cfg, False)
    doubled = np.concatenate([frames, frames])
    out2 = M.clip_forward(doubled, cfg, params, mode="train")
    l2, _, _ = tr.clip_loss(out2, gts + gts, cost_cfg, False)
    assert float(l2.data) == pytest.approx(float(l1.data), abs=1e-6)


def test_set_loss_gradient(rng):
    cfg = mt.MatchCostConfig()
    gts = [(0, Box(0.4, 0.4, 0.3, 0.3)), (1, Box(0.65, 0.6, 0.25, 0.3))]
    base_logits = rng.normal(size=(3, 2))
    base_boxes = np.clip(rng.random((3, 4)), 0.2, 0.8)

    def build(x):
        # x packs [logits | box logit-coords] per prediction row
        cols = ad.transpose(x, (1, 0))
        logits = ad.transpose(ad.gather_rows(cols, [0, 1]), (1, 0))
        btens = ad.sigmoid(ad.transpose(ad.gather_rows(cols, [2, 3, 4, 5]), (1, 0)))
        res = mt.set_loss(logits, btens, np.asarray(btens.data, dtype=np.float64), gts, cfg,
                          assignment=mt.Assignment((0, 1), (2,)))
        return res.total

    packed = np.zeros((3, 6))
    packed[:, :2] = base_logits
    packed[:, 2:] = np.log(base_boxes / (1 - base_boxes))
    rep = ad.grad_check(build, ad.tensor(packed))
    assert rep.max_rel_err < 1e-4
