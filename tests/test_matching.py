import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid import matching as mt
from clipvid import model as M
from clipvid import synthvid as sv
from clipvid import training as tr
from clipvid.errors import CapacityError, DimensionError, NumericError
from clipvid.geometry import Box
from oracles import (assignment_cost, box_array, focal_loss, frame_cost_matrix, giou,
                     km_solve, loop_match_frames, match_cost, targets_of)


def playing(*values):
    """A played pass whose held values are the given ones, in order."""
    replay = ad.Replay()
    replay.values = list(values)
    return replay.play()


def make_frame(logits, boxes):
    """One frame's predictions as the loss takes a T=1 clip: logits
    [1, L, C] and boxes_t [1, L, 4] as tensors, boxes [1, L, 4] as an array."""
    logits = np.asarray(logits, dtype=np.float64)[None]
    boxes = np.array([box_array(b) for b in boxes])[None]
    return ad.param(logits), ad.param(boxes), boxes


def test_focal_loss_saturated_positive():
    assert focal_loss(20.0, 1) == pytest.approx(0.0, abs=1e-6)


def test_focal_loss_scalar_cases():
    assert focal_loss(0.0, 1, 0.25, 2.0) == pytest.approx(0.04332, abs=1e-5)
    assert focal_loss(0.0, 0, 0.25, 2.0) == pytest.approx(0.12997, abs=1e-5)


def test_focal_loss_matches_scalar(rng):
    logits = rng.normal(size=(3, 4)) * 3
    targets = rng.random((3, 4)) > 0.5
    out = mt.focal_loss_values(logits, targets)
    for i in range(3):
        for j in range(4):
            want = focal_loss(logits[i, j], int(targets[i, j]), 0.25, 2.0)
            assert out[i, j] == pytest.approx(want, abs=1e-12)
    assert float(mt.focal_loss(ad.tensor(logits), targets).data) == pytest.approx(out.sum(),
                                                                                 abs=1e-12)


def test_match_cost_perfect_prediction_near_zero():
    box = Box(0.5, 0.5, 0.4, 0.3)
    logits = np.full(5, -20.0)
    logits[2] = 20.0
    cost = match_cost(logits, box, 2, box)
    assert cost == pytest.approx(0.0, abs=1e-5)


def test_match_cost_classification_cancels_across_gts():
    logits, box = np.array([0.3, 0.3]), Box(0.5, 0.5, 0.2, 0.2)
    g1 = Box(0.4, 0.5, 0.2, 0.2)
    g2 = Box(0.7, 0.5, 0.2, 0.2)
    c1 = match_cost(logits, box, 0, g1)
    c2 = match_cost(logits, box, 1, g2)
    box_only_1 = mt.LAMBDA_GIOU * (1 - giou(box, g1)) \
        + mt.LAMBDA_L1 * np.abs(box_array(box) - box_array(g1)).sum()
    box_only_2 = mt.LAMBDA_GIOU * (1 - giou(box, g2)) \
        + mt.LAMBDA_L1 * np.abs(box_array(box) - box_array(g2)).sum()
    assert c1 - c2 == pytest.approx(box_only_1 - box_only_2, abs=1e-12)


def test_cost_matrix_micro_case_matches_scalar_oracle(rng):
    preds = [(rng.normal(size=3), Box(*np.clip(rng.random(4), 0.15, 0.8)))
             for _ in range(3)]
    gts = [(int(rng.integers(3)), Box(*np.clip(rng.random(4), 0.15, 0.8)))
           for _ in range(2)]
    logits = np.stack([lg for lg, _ in preds])
    boxes = np.stack([box_array(b) for _, b in preds])
    table = targets_of([gts])
    mat = mt.cost_matrix(logits, boxes, table.cls, table.box)
    for i, (lg, box) in enumerate(preds):
        for j, (c, b) in enumerate(gts):
            assert mat[i, j] == pytest.approx(match_cost(lg, box, c, b), abs=1e-6)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("scale", [1.0, 10.0, 60.0])
def test_cost_matrix_keeps_the_bytes_of_the_both_branch_focal_form(bits, scale):
    """The pairing cost evaluates only the positive branch of the focal
    loss. Its matrix keeps the bytes of frame_cost_matrix, whose
    focal_loss_values evaluates both branches, for 32- and 64-bit
    predictions, seeded logits of each scale and saturated logits of +-800."""
    rng = np.random.default_rng(int(scale))
    logits = (rng.normal(size=(8, 5)) * scale).astype(f"float{bits}")
    logits[:2] = [[800.0], [-800.0]]
    boxes = np.clip(rng.random((8, 4)), 0.15, 0.8).astype(f"float{bits}")
    gt_cls, gt_box = rng.integers(5, size=4), np.clip(rng.random((4, 4)), 0.15, 0.8)
    assert np.array_equal(mt.cost_matrix(logits, boxes, gt_cls, gt_box),
                          frame_cost_matrix(logits, boxes, gt_cls, gt_box))


def test_frame_without_ground_truth_has_empty_cost_matrix(rng):
    """A frame without ground truth costs an [L, 0] matrix, as the
    benchmark's optimality check asks of every match_frame call, and is
    matched to nothing."""
    logits, boxes = rng.normal(size=(4, 3)), np.clip(rng.random((4, 4)), 0.15, 0.8)
    empty = targets_of([[]])
    assert mt.cost_matrix(logits, boxes, empty.cls, empty.box).shape == (4, 0)
    assert mt.match_frame(logits, boxes, empty.cls, empty.box).pred_of_gt == ()


# ---------------------------------------------------------------------------
# Hungarian


def brute_force_min(cost):
    """(optimal fsum cost, column per row) over every injective map of the
    rows into the columns; equal costs break to the lexicographically
    smallest column sequence."""
    n, m = cost.shape
    best = None
    for cols in itertools.permutations(range(m), n):
        key = (math.fsum(cost[i, j] for i, j in enumerate(cols)), list(cols))
        if best is None or key < best:
            best = key
    return best


def tie_heavy_matrices(rng):
    """Random, integer-valued, duplicate-row and duplicate-column G x L
    matrices, L <= 7, G in {0, 1, 2, L}."""
    for L in range(1, 8):
        for G in sorted({0, 1, 2, L} & set(range(L + 1))):
            dup_rows = rng.random((max(G // 2, 1), L))
            dup_cols = rng.random((max(L // 2, 1), G))
            yield rng.random((G, L))
            yield rng.integers(0, 3, size=(G, L)).astype(float)
            yield dup_rows[rng.integers(0, len(dup_rows), size=G)]
            yield dup_cols[rng.integers(0, len(dup_cols), size=L)].T


def test_hungarian_forced_diagonal():
    cost = np.ones((4, 4)) - np.eye(4)
    assert mt.hungarian(cost) == [0, 1, 2, 3]


def test_hungarian_two_by_two():
    assert mt.hungarian(np.array([[1.0, 2.0], [2.0, 4.0]])) == [1, 0]


def test_hungarian_matches_brute_force_6x6(rng):
    for _ in range(25):
        cost = rng.random((6, 6))
        cols = mt.hungarian(cost)
        got = assignment_cost(cost, cols)
        want, _ = brute_force_min(cost)
        assert got == want


def test_hungarian_tie_break_is_the_solvers_own():
    """Equal-cost optima break as the shortest-augmenting-path solve reaches
    them. [[2, 0], [2, 0]] takes [1, 0], not the lexicographically smaller
    [0, 1] of the same cost."""
    cases = [(np.ones((3, 3)), [0, 1, 2]), (np.array([[1.0, 1.0], [1.0, 1.0]]), [0, 1]),
             (np.array([[2.0, 0.0], [2.0, 0.0]]), [1, 0])]
    for cost, want in cases:
        assert mt.hungarian(cost) == km_solve(cost)[0] == want


def test_hungarian_beats_random_permutations(rng):
    for n in (5, 9, 12):
        cost = rng.random((n, n))
        cols = mt.hungarian(cost)
        opt = assignment_cost(cost, cols)
        for _ in range(1000):
            perm = rng.permutation(n)
            assert opt <= math.fsum(cost[i, perm[i]] for i in range(n)) + 1e-12


def test_hungarian_rectangular_matches_brute_force(rng):
    for cost in tie_heavy_matrices(rng):
        assert assignment_cost(cost, mt.hungarian(cost)) == brute_force_min(cost)[0], cost


def test_hungarian_near_tie_keeps_exact_minimum():
    """A 3x8 cost matrix from desk training (ground truths by predictions):
    [2, 0, 5] costs 5.3e-10 more than the optimum and is lexicographically
    smaller."""
    cost = np.array([
        [9.94426416094825, 11.755066108895198, 10.900141333916517],
        [9.942687492857956, 11.762254098999223, 10.89856466613079],
        [9.939361163145804, 11.758671024020332, 10.895238336037934],
        [9.941407378371514, 11.765663511916795, 10.897284551796636],
        [9.941997809400561, 11.755524165556265, 10.897874982292688],
        [9.938956514637962, 11.769370400892612, 10.894833688063086],
        [9.940030118858814, 11.766868009691803, 10.895907292283937],
        [9.943708568648685, 11.760971619815932, 10.899585741769235]]).T
    assert mt.hungarian(cost) == brute_force_min(cost)[1] == [5, 0, 2]


def test_hungarian_rejects_more_rows_than_columns():
    cost = np.array([[5.0, 0.0, 5.0, 9.0], [5.0, 9.0, 5.0, 0.0]])
    assert mt.hungarian(cost) == [1, 3]
    assert mt.hungarian(np.zeros((0, 2))) == []
    for bad in (cost.T, np.ones((3, 1)), np.zeros((2, 0)), np.zeros(3)):
        with pytest.raises(DimensionError):
            mt.hungarian(bad)


@pytest.mark.parametrize("shape", [(5, 30), (5, 72)])
def test_hungarian_optimal_cost_matches_scipy(rng, shape):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    for _ in range(5):
        cost = rng.random(shape)
        cols = mt.hungarian(cost)
        assert len(set(cols)) == shape[0]
        rows, scipy_cols = linear_sum_assignment(cost)
        assert assignment_cost(cost, cols) == pytest.approx(
            math.fsum(cost[rows, scipy_cols]), rel=1e-12)


def test_hungarian_rejects_nonfinite():
    with pytest.raises(NumericError):
        mt.hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# One batched solve per stack, against the one-frame references


def padded_stack(costs):
    """[F, Gmax, L] stack of per-frame [G, L] costs, zero past each frame's
    rows, and each frame's G."""
    rows = np.array([len(c) for c in costs], dtype=np.int64)
    stack = np.zeros((len(costs), rows.max(initial=0), costs[0].shape[1]))
    for f, c in enumerate(costs):
        stack[f, :len(c)] = c
    return stack, rows


def assert_frames_equal_references(costs, rng):
    """Every frame of the lockstep solve has the picks and potentials of
    its own km_solve, bit for bit, and the stack solved in a permuted frame
    order (drawn from rng) gives each frame its one-frame hungarian picks."""
    stack, rows = padded_stack(costs)
    col, u, v = mt._km_solve(stack, rows)
    order = rng.permutation(len(costs))
    permuted = mt._km_solve(stack[order], rows[order])[0][np.argsort(order)]
    for f, c in enumerate(costs):
        G = len(c)
        ref_col, ref_u, ref_v = km_solve(c)
        assert col[f, :G].tolist() == ref_col and (col[f, G:] == -1).all()
        assert np.array_equal(u[f, :G], ref_u) and np.array_equal(v[f], ref_v)
        assert permuted[f, :G].tolist() == mt.hungarian(c) == ref_col, c


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("overrides", [{}, dict(num_queries=30, dim=64, decoder_layers=6)],
                         ids=["desk", "train_mid"])
def test_batched_matching_equals_per_frame_references(bits, overrides):
    """A seeded clip's layer-major stack of decoder outputs, as the
    training loss matches it: match_frames picks what the per-frame loop
    picks, and each frame's solve keeps the reference's bytes."""
    ad.set_precision(bits)
    cfg = M.ModelConfig(**overrides).validate()
    params = M.init_model(cfg, np.random.default_rng(4))
    [clip] = sv.generate_dataset(sv.GenConfig(min_objects=2), 1, seed=3)
    frames, targets = tr.sample_frames(clip, cfg.t_train, np.random.default_rng(0))
    layers = M.clip_forward(frames, cfg, params)
    logits = np.concatenate([layer.logits.data for layer in layers])
    boxes = np.concatenate([layer.boxes for layer in layers])
    stack = sv.Targets.stack([targets] * len(layers), cfg.t_train)
    assert logits.dtype == np.dtype(f"float{bits}")
    assert np.array_equal(mt.match_frames(logits, boxes, stack),
                          loop_match_frames(logits, boxes, stack))
    bounds = np.searchsorted(stack.frame, np.arange(len(logits) + 1))
    costs = [frame_cost_matrix(logits[f], boxes[f], stack.cls[lo:hi], stack.box[lo:hi]).T
             for f, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]
    assert max(map(len, costs)) >= 2
    assert_frames_equal_references(costs, np.random.default_rng(bits))


def integer_tie_stacks():
    """300 stacks of six frames with 0 to 4 rows over 8 columns, costs in
    {0, 1, 2}: equal-cost optima in most frames."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        yield [rng.integers(0, 3, size=(rng.integers(0, 5), 8)).astype(float) for _ in range(6)]


def test_batched_solve_equals_references_under_integer_ties():
    """Where equal-cost optima abound, each frame still keeps its one-frame
    picks, in its stack and in a permuted stack."""
    rng = np.random.default_rng(0)
    for costs in integer_tie_stacks():
        assert_frames_equal_references(costs, rng)


def test_batched_assignment_is_optimal_in_every_frame(rng):
    """Every frame's exact cost is scipy's optimum: a stack of random and
    integer costs over 30 columns, and the integer-tie stacks."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    costs = [rng.random((g, 30)) for g in (5, 0, 3, 30, 1)]
    costs += [rng.integers(0, 3, size=(g, 30)).astype(float) for g in (4, 12)]
    for stack_costs in [costs, *integer_tie_stacks()]:
        stack, rows = padded_stack(stack_costs)
        picks = mt._km_solve(stack, rows)[0]
        for f, c in enumerate(stack_costs):
            mine = picks[f, :len(c)]
            assert len(set(mine.tolist())) == len(c)
            r, cols = linear_sum_assignment(c)
            assert assignment_cost(c, mine) == pytest.approx(math.fsum(c[r, cols]), rel=1e-12)


def test_stack_without_rows_or_ground_truth(rng):
    col, u, v = mt._km_solve(np.zeros((3, 0, 5)), np.zeros(3, dtype=np.int64))
    assert col.shape == u.shape == (3, 0) and np.array_equal(v, np.zeros((3, 5)))
    logits, boxes = rng.normal(size=(4, 5, 3)), np.clip(rng.random((4, 5, 4)), 0.15, 0.8)
    pred = mt.match_frames(logits, boxes, targets_of([[]] * 4))
    assert pred.shape == (0,) and pred.dtype == np.int64
    one = targets_of([[], [], [(1, Box(0.5, 0.5, 0.3, 0.3))], []])
    assert mt.match_frames(logits, boxes, one).tolist() == \
        list(mt.match_frame(logits[2], boxes[2], one.cls, one.box).pred_of_gt)


def test_match_frames_rejects_a_nonfinite_cost_in_any_frame(rng):
    """A non-finite cost in any frame raises; a non-finite prediction in a
    frame without ground truth is costed against nothing."""
    logits, boxes = rng.normal(size=(3, 4, 2)), np.clip(rng.random((3, 4, 4)), 0.15, 0.8)
    gt = (0, Box(0.5, 0.5, 0.3, 0.3))
    targets = targets_of([[gt], [], [gt, gt]])
    bad = logits.copy()
    bad[1, 2, 0] = np.nan
    assert mt.match_frames(bad, boxes, targets).shape == (3,)
    bad[2, 3, 0] = np.nan
    with pytest.raises(NumericError):
        mt.match_frames(bad, boxes, targets)


def test_match_frames_capacity_error_names_the_frame(rng):
    logits, boxes = rng.normal(size=(3, 2, 2)), np.clip(rng.random((3, 2, 4)), 0.15, 0.8)
    gt = (0, Box(0.5, 0.5, 0.3, 0.3))
    with pytest.raises(CapacityError, match="frame 1: 3 ground truths exceed 2"):
        mt.match_frames(logits, boxes, targets_of([[gt], [gt, gt, gt], [gt, gt]]))


# ---------------------------------------------------------------------------
# Set loss


def test_set_loss_zero_gts_is_pure_negative_classification(rng):
    logits, boxes_t, boxes = make_frame(rng.normal(size=(4, 3)), [Box(0.5, 0.5, 0.3, 0.3)] * 4)
    res = mt.set_loss(logits, boxes_t, boxes, targets_of([[]]))
    want = sum(focal_loss(float(x), 0, mt.FOCAL_ALPHA, mt.FOCAL_GAMMA)
               for x in logits.data.ravel()) * mt.LAMBDA_CLS
    assert float(res.total.data) == pytest.approx(want, abs=1e-9)
    assert res.pred.shape == (0,)


def test_set_loss_perfect_single_prediction(rng):
    box = Box(0.5, 0.5, 0.4, 0.3)
    frame = make_frame([[25.0, -25.0]], [box])
    res = mt.set_loss(*frame, targets_of([[(0, box)]]))
    assert float(res.total.data) == pytest.approx(0.0, abs=1e-6)


def test_set_loss_matches_brute_force(rng):
    logits, boxes_t, boxes = make_frame(
        rng.normal(size=(4, 2)), [Box(*np.clip(rng.random(4), 0.2, 0.7)) for _ in range(4)])
    gts = [(int(rng.integers(2)), Box(*np.clip(rng.random(4), 0.2, 0.7)))
           for _ in range(2)]
    table = targets_of([gts])
    res = mt.set_loss(logits, boxes_t, boxes, table)
    cost = mt.cost_matrix(logits.data[0], boxes[0], table.cls, table.box)
    best = None
    for pair in itertools.permutations(range(4), 2):
        total = cost[pair[0], 0] + cost[pair[1], 1]
        if best is None or total < best[0]:
            best = (total, pair)
    assert tuple(res.pred) == best[1]


def test_set_loss_capacity_error(rng):
    frame = make_frame(rng.normal(size=(1, 2)), [Box(0.5, 0.5, 0.3, 0.3)])
    gts = [(0, Box(0.4, 0.4, 0.2, 0.2)), (1, Box(0.6, 0.6, 0.2, 0.2))]
    with pytest.raises(CapacityError):
        mt.set_loss(*frame, targets_of([gts]))


def test_set_loss_permutation_equivariance(rng):
    logits = rng.normal(size=(5, 2))
    boxes = [Box(*np.clip(rng.random(4), 0.2, 0.7)) for _ in range(5)]
    gts = [(0, Box(0.3, 0.3, 0.25, 0.25)), (1, Box(0.7, 0.6, 0.3, 0.2))]
    res = mt.set_loss(*make_frame(logits, boxes), targets_of([gts]))

    perm = [3, 0, 4, 1, 2]          # preds[perm[k]] becomes slot k
    permuted = make_frame(logits[perm], [boxes[i] for i in perm])
    res_p = mt.set_loss(*permuted, targets_of([gts]))
    assert float(res_p.total.data) == float(res.total.data)
    inv = {orig: new for new, orig in enumerate(perm)}
    assert [inv[i] for i in res.pred.tolist()] == res_p.pred.tolist()


def test_set_loss_clip_normalization_invariant_under_duplication(rng):
    from clipvid import model as M
    from clipvid import training as tr
    ad.set_precision(64)
    cfg = M.ModelConfig(num_classes=2, num_queries=3, dim=8, heads=2,
                        decoder_layers=2, roi_size=2, ica_layers=0,
                        ica_topk=2, backbone_channels=(4, 4)).validate()
    params = M.init_model(cfg, rng)
    frames = rng.random((2, 8, 8, 3))
    gts = [[(0, Box(0.4, 0.4, 0.3, 0.3), 1)], [(1, Box(0.6, 0.6, 0.3, 0.3), 2)]]
    l1, _ = tr.clip_loss(M.clip_forward(frames, cfg, params), targets_of(gts))
    doubled = np.concatenate([frames, frames])
    l2, _ = tr.clip_loss(M.clip_forward(doubled, cfg, params), targets_of(gts + gts))
    assert float(l2.data) == pytest.approx(float(l1.data), abs=1e-6)


def test_set_loss_gradient(rng):
    gts = [(0, Box(0.4, 0.4, 0.3, 0.3)), (1, Box(0.65, 0.6, 0.25, 0.3))]
    base_logits = rng.normal(size=(3, 2))
    base_boxes = np.clip(rng.random((3, 4)), 0.2, 0.8)

    def build(x):
        # x packs [logits | box logit-coords] per prediction row
        cols = ad.transpose(x, (1, 0))
        logits = ad.reshape(ad.transpose(ad.gather_rows(cols, [0, 1]), (1, 0)), (1, 3, 2))
        btens = ad.reshape(ad.sigmoid(ad.transpose(ad.gather_rows(cols, [2, 3, 4, 5]), (1, 0))),
                           (1, 3, 4))
        with playing(np.array([0, 1])):
            return mt.set_loss(logits, btens, np.asarray(btens.data, dtype=np.float64),
                               targets_of([gts])).total

    packed = np.zeros((3, 6))
    packed[:, :2] = base_logits
    packed[:, 2:] = np.log(base_boxes / (1 - base_boxes))
    rep = ad.grad_check(build, ad.tensor(packed))
    assert rep.max_rel_err < 1e-4


def test_set_loss_clip_equals_sum_of_single_frames(rng):
    """One [T, L, ·] call scores the same as its T single-frame calls under
    the same assignments, in value, loss parts and gradient; match_frames
    matches each frame as match_frame does."""
    T, L, C = 3, 5, 3
    logits = rng.normal(size=(T, L, C)) * 2
    boxes = np.clip(rng.random((T, L, 4)), 0.15, 0.8)
    gts = [[(int(rng.integers(C)), Box(*np.clip(rng.random(4), 0.2, 0.7)))
            for _ in range(g)] for g in (2, 0, 3)]
    frame_targets = [targets_of([g]) for g in gts]
    pred = np.array([p for t, ft in enumerate(frame_targets)
                     for p in mt.match_frame(logits[t], boxes[t], ft.cls, ft.box).pred_of_gt])
    targets = targets_of(gts)
    assert np.array_equal(mt.match_frames(logits, boxes, targets), pred)

    lt, bt = ad.param(logits), ad.param(boxes)
    with ad.ComputationTape() as tape, playing(pred):
        clip = mt.set_loss(lt, bt, boxes, targets)
    tape.backward(clip.total)
    assert np.array_equal(clip.pred, pred)

    total = cls = giou_t = l1 = 0.0
    for t in range(T):
        lf, bf = ad.param(logits[t:t + 1]), ad.param(boxes[t:t + 1])
        with ad.ComputationTape() as tape, playing(pred[targets.frame == t]):
            res = mt.set_loss(lf, bf, boxes[t:t + 1], frame_targets[t])
        tape.backward(res.total)
        total += float(res.total.data)
        cls, giou_t, l1 = cls + res.cls_term, giou_t + res.giou_term, l1 + res.l1_term
        assert_allclose(lt.grad[t], lf.grad[0], rtol=1e-12, atol=1e-14)
        assert_allclose(bt.grad[t], bf.grad[0], rtol=1e-12, atol=1e-14)
    assert float(clip.total.data) == pytest.approx(total, rel=1e-12)
    assert (clip.cls_term, clip.giou_term, clip.l1_term) == pytest.approx((cls, giou_t, l1),
                                                                         rel=1e-12)
    assert np.array_equal(mt.set_loss(ad.tensor(logits), ad.tensor(boxes), boxes, targets).pred,
                          pred)
