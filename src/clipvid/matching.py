"""Bipartite set matching between predictions and ground truth, and the
matched detection loss: focal classification + GIoU + L1 box terms.

Each frame's G ground truths are assigned to G of its L prediction slots by
an exact rectangular solver over the frame's [G, L] cost matrix; the
discrete assignment is never differentiated through. The loss scores a
stack of frames in one pass: one clip, or every decoder layer of a clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import Tensor
from .errors import CapacityError, DimensionError, NumericError


# Weights of the matching cost and of the matched loss, and the focal
# loss's class balance and focusing exponent.
LAMBDA_CLS = 2.0
LAMBDA_GIOU = 2.0
LAMBDA_L1 = 5.0
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


@dataclass
class Assignment:
    """Injective map from ground-truth index to prediction index."""

    pred_of_gt: tuple[int, ...]


def focal_loss_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise focal loss of a logits tensor against a 0/1 target mask."""
    t = np.asarray(targets, dtype=np.float64)
    p = ad.sigmoid(logits)
    pos = ad.pow_const(1.0 - p, FOCAL_GAMMA) * ad.softplus(-logits) * FOCAL_ALPHA
    neg = ad.pow_const(p, FOCAL_GAMMA) * ad.softplus(logits) * (1.0 - FOCAL_ALPHA)
    return pos * ad.tensor(t) + neg * ad.tensor(1.0 - t)


# ---------------------------------------------------------------------------
# Hungarian assignment


def _km_solve(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Shortest-augmenting-path assignment of an n x m matrix, n <= m
    (Crouse, IEEE TAES 2016): every row gets its own column in O(n^2 m).

    Returns (col_of_row, row_potentials, col_potentials).
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)       # p[j]: row matched to col j (1-based)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            unused = ~used[1:]
            better = unused & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            cand = np.where(unused)[0]
            j1 = cand[np.argmin(minv[1:][cand])] + 1
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[1:][unused] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, m + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    return col_of_row, u[1:], v[1:]


def hungarian(cost) -> list[int]:
    """Minimum-cost assignment of an n x m cost matrix, n <= m: every row
    gets its own column. Returns the column chosen per row.

    Among optima of equal (fsum) cost the lexicographically smallest
    row-to-column sequence is returned: rows are scanned in order, each
    taking the lowest-index column that the later rows can still complete
    to the exact optimum.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] > c.shape[1]:
        raise DimensionError(f"hungarian: expected a matrix with rows <= columns, "
                             f"got shape {c.shape}")
    if not np.isfinite(c).all():
        raise NumericError("hungarian: non-finite cost entry")
    result, u, v = _km_solve(c)

    # Every edge of an optimal assignment is tight (zero reduced cost under
    # the optimal potentials), so the tolerance pre-filters candidates; one
    # is accepted when the best completion of the later rows over the free
    # columns reaches the optimum in exact order-independent (fsum) cost.
    tight = c - u[:, None] - v[None, :] <= 1e-9 * np.maximum(1.0, np.abs(c))
    base = assignment_cost(c, result)
    free = np.ones(c.shape[1], dtype=bool)
    for r in range(c.shape[0]):
        for cand in np.flatnonzero(tight[r, :result[r]] & free[:result[r]]):
            cols = np.setdiff1d(np.flatnonzero(free), cand)
            rest, _, _ = _km_solve(c[r + 1:, cols])
            trial = result[:r] + [int(cand)] + [int(cols[j]) for j in rest]
            if assignment_cost(c, trial) == base:
                result = trial
                break
        free[result[r]] = False
    return result


def assignment_cost(cost, col_of_row) -> float:
    c = np.asarray(cost, dtype=np.float64)
    return math.fsum(c[i, j] for i, j in enumerate(col_of_row))


# ---------------------------------------------------------------------------
# Set prediction loss


@dataclass
class SetLossResult:
    total: Tensor
    assignments: list[Assignment]           # one per frame
    cls_term: float = 0.0
    giou_term: float = 0.0
    l1_term: float = 0.0


def cost_matrix(logits: np.ndarray, boxes: np.ndarray,
                frame_gts: list[tuple[int, geo.Box]]) -> np.ndarray:
    """[preds x gts] pairing costs of one frame's [L, C] logits and [L, 4]
    boxes: the focal loss of the ground-truth class channel with a positive
    target, plus the weighted GIoU and L1 box terms."""
    logits = np.asarray(logits, dtype=np.float64)
    pboxes = np.asarray(boxes, dtype=np.float64)                      # [L, 4] cxcywh
    gboxes = np.stack([b.as_array() for _, b in frame_gts])           # [G, 4]
    gcls = np.array([c for c, _ in frame_gts], dtype=np.int64)

    x = logits[:, gcls]                                               # [L, G]
    p = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    softplus_negx = np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    cls_cost = FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * softplus_negx

    pc = np.stack([pboxes[:, 0] - pboxes[:, 2] / 2, pboxes[:, 1] - pboxes[:, 3] / 2,
                   pboxes[:, 0] + pboxes[:, 2] / 2, pboxes[:, 1] + pboxes[:, 3] / 2], axis=1)
    gc = np.stack([gboxes[:, 0] - gboxes[:, 2] / 2, gboxes[:, 1] - gboxes[:, 3] / 2,
                   gboxes[:, 0] + gboxes[:, 2] / 2, gboxes[:, 1] + gboxes[:, 3] / 2], axis=1)
    iw = np.maximum(np.minimum(pc[:, None, 2], gc[None, :, 2])
                    - np.maximum(pc[:, None, 0], gc[None, :, 0]), 0.0)
    ih = np.maximum(np.minimum(pc[:, None, 3], gc[None, :, 3])
                    - np.maximum(pc[:, None, 1], gc[None, :, 1]), 0.0)
    inter = iw * ih
    areas_p = pboxes[:, 2] * pboxes[:, 3]
    areas_g = gboxes[:, 2] * gboxes[:, 3]
    union = areas_p[:, None] + areas_g[None, :] - inter
    ew = np.maximum(pc[:, None, 2], gc[None, :, 2]) - np.minimum(pc[:, None, 0], gc[None, :, 0])
    eh = np.maximum(pc[:, None, 3], gc[None, :, 3]) - np.minimum(pc[:, None, 1], gc[None, :, 1])
    enclosure = ew * eh
    giou = inter / union - (enclosure - union) / enclosure

    l1 = np.abs(pboxes[:, None, :] - gboxes[None, :, :]).sum(axis=2)
    return LAMBDA_CLS * cls_cost + LAMBDA_GIOU * (1.0 - giou) + LAMBDA_L1 * l1


def match_frame(logits: np.ndarray, boxes: np.ndarray,
                frame_gts: list[tuple[int, geo.Box]]) -> Assignment:
    """Assign each ground truth its own prediction slot at minimum total
    cost, solved as the [G, L] transpose of the cost matrix; under exact
    cost ties each ground truth in order takes the lowest-index slot."""
    L = len(logits)
    G = len(frame_gts)
    if G > L:
        raise CapacityError(f"{G} ground truths exceed {L} prediction slots")
    if G == 0:
        return Assignment(())
    return Assignment(tuple(hungarian(cost_matrix(logits, boxes, frame_gts).T)))


def set_loss(logits: Tensor, boxes_t: Tensor, boxes: np.ndarray,
             gts: list[list[tuple[int, geo.Box]]],
             assignments: list[Assignment] | None = None) -> SetLossResult:
    """Match each frame's predictions to its ground truths and score the
    whole stack of frames: a clip's T frames, or its Ly decoder layers
    stacked layer-major into Ly*T frames.

    logits [T, L, C] and boxes_t [T, L, 4] are the differentiable
    predictions; boxes [T, L, 4] are the detached boxes the matching costs;
    gts holds each frame's (class_id, Box) list. Matched pairs contribute
    the full weighted loss; every other (query, class) slot contributes
    negative focal loss. The returned total is an un-normalized sum;
    callers normalize per clip. Pre-computed per-frame assignments can be
    supplied to hold the discrete matching fixed (finite differencing never
    sees the argmin flip).
    """
    T, L, _ = logits.shape
    if assignments is None:
        assignments = [match_frame(logits.data[t], boxes[t], gts[t]) for t in range(T)]

    targets = np.zeros(logits.shape)
    matched_rows, gt_boxes = [], []
    for t, (frame_gts, assignment) in enumerate(zip(gts, assignments)):
        for j, (cls_id, box) in enumerate(frame_gts):
            targets[t, assignment.pred_of_gt[j], cls_id] = 1.0
            matched_rows.append(t * L + assignment.pred_of_gt[j])
            gt_boxes.append(box.as_array())
    cls_loss = ad.reduce_sum(focal_loss_logits(logits, targets))

    if matched_rows:
        pred_boxes = ad.gather_rows(ad.reshape(boxes_t, (T * L, 4)), matched_rows)
        gt = np.stack(gt_boxes)
        giou_loss = ad.reduce_sum(1.0 - geo.giou_pairs(pred_boxes, gt))
        l1_loss = ad.reduce_sum(geo.l1_pairs(pred_boxes, gt))
    else:
        giou_loss = ad.tensor(np.zeros(()))
        l1_loss = ad.tensor(np.zeros(()))

    total = cls_loss * LAMBDA_CLS + giou_loss * LAMBDA_GIOU + l1_loss * LAMBDA_L1
    return SetLossResult(total, assignments,
                         cls_term=float(cls_loss.data),
                         giou_term=float(giou_loss.data),
                         l1_term=float(l1_loss.data))
