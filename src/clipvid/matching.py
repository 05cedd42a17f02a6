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
from .synthvid import Targets


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


def _focal_positive(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Focal loss of logits x, p = sigmoid(x), against a target of 1."""
    return np.power(1.0 - p, FOCAL_GAMMA) * ad.stable_softplus(-x) * FOCAL_ALPHA


def _focal_negative(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Focal loss of logits x, p = sigmoid(x), against a target of 0."""
    return np.power(p, FOCAL_GAMMA) * ad.stable_softplus(x) * (1.0 - FOCAL_ALPHA)


def focal_loss_values(x: np.ndarray, positive) -> np.ndarray:
    """Elementwise focal loss of logits x against 0/1 targets (broadcast
    against x): alpha * (1 - p)^gamma * softplus(-x) where the target is 1,
    (1 - alpha) * p^gamma * softplus(x) where it is 0, p = sigmoid(x)."""
    p = ad.stable_sigmoid(x)
    return np.where(positive, _focal_positive(x, p), _focal_negative(x, p))


def focal_loss(logits: Tensor, positive: np.ndarray) -> Tensor:
    """Summed focal_loss_values of a logits tensor against a 0/1 target
    mask, as one record. Each branch's derivative is written in terms of its
    own value v: -(gamma p v + alpha (1 - p)^(gamma+1)) for a positive
    target, gamma (1 - p) v + (1 - alpha) p^(gamma+1) for a negative one."""
    x = logits.data
    values = focal_loss_values(x, positive)

    def backward(g):
        p = ad.stable_sigmoid(x)
        q = 1.0 - p
        return (g * np.where(positive,
                             -(FOCAL_GAMMA * p * values
                               + FOCAL_ALPHA * np.power(q, FOCAL_GAMMA + 1.0)),
                             FOCAL_GAMMA * q * values
                             + (1.0 - FOCAL_ALPHA) * np.power(p, FOCAL_GAMMA + 1.0)),)

    return ad._record("focal_loss", (logits,), np.asarray(values.sum()), backward)


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
    pred: np.ndarray                        # [N] the query matched to each target row
    cls_term: float                         # unweighted sums: focal, 1 - GIoU, L1
    giou_term: float
    l1_term: float


def cost_matrix(logits: np.ndarray, boxes: np.ndarray, gt_cls: np.ndarray,
                gt_box: np.ndarray) -> np.ndarray:
    """[L, G] pairing costs of one frame's [L, C] logits and [L, 4] boxes
    against its G ground truths (gt_cls [G], gt_box [G, 4]): the focal loss
    of the ground-truth class channel with a positive target, plus the
    weighted GIoU and L1 box terms. A frame without ground truth gives
    [L, 0]."""
    pboxes = np.asarray(boxes, dtype=np.float64)                      # [L, 4] cxcywh
    gboxes = np.asarray(gt_box, dtype=np.float64)                     # [G, 4]
    x = np.asarray(logits, dtype=np.float64)[:, gt_cls]
    cls_cost = _focal_positive(x, ad.stable_sigmoid(x))
    giou_cost, l1 = geo.box_pair_terms(pboxes[:, None], gboxes[None, :])
    return LAMBDA_CLS * cls_cost + LAMBDA_GIOU * giou_cost + LAMBDA_L1 * l1


def match_frame(logits: np.ndarray, boxes: np.ndarray, gt_cls: np.ndarray,
                gt_box: np.ndarray) -> Assignment:
    """Assign each ground truth its own prediction slot at minimum total
    cost, solved as the [G, L] transpose of the cost matrix; under exact
    cost ties each ground truth in order takes the lowest-index slot."""
    L = len(logits)
    G = len(gt_cls)
    if G > L:
        raise CapacityError(f"{G} ground truths exceed {L} prediction slots")
    if G == 0:
        return Assignment(())
    return Assignment(tuple(hungarian(cost_matrix(logits, boxes, gt_cls, gt_box).T)))


def match_frames(logits: np.ndarray, boxes: np.ndarray, targets: Targets) -> np.ndarray:
    """The query matched to each row of targets: one match_frame per frame
    of the [F, L, C] logits and [F, L, 4] boxes -> [N] int64."""
    pred = np.zeros(len(targets), dtype=np.int64)
    bounds = np.searchsorted(targets.frame, np.arange(len(logits) + 1))
    for f, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        pred[lo:hi] = match_frame(logits[f], boxes[f], targets.cls[lo:hi],
                                  targets.box[lo:hi]).pred_of_gt
    return pred


def set_loss(logits: Tensor, boxes_t: Tensor, boxes: np.ndarray, targets: Targets,
             pred: np.ndarray | None = None) -> SetLossResult:
    """Match each frame's predictions to its ground truths and score the
    whole stack of F frames: a clip's T frames, or its Ly decoder layers
    stacked layer-major into Ly*T frames.

    logits [F, L, C] and boxes_t [F, L, 4] are the differentiable
    predictions; boxes [F, L, 4] are the detached boxes the matching costs;
    targets is the stack's ground-truth table, its frame column indexing
    the F frames. Matched pairs contribute the full weighted loss; every
    other (query, class) slot contributes negative focal loss. The returned
    total is an un-normalized sum; callers normalize per clip. A given
    pred, the matched query of each target row (as a previous result's
    pred), holds the discrete matching fixed, so finite differencing never
    sees the argmin flip.
    """
    F, L, _ = logits.shape
    if pred is None:
        pred = match_frames(logits.data, boxes, targets)

    positive = np.zeros(logits.shape, dtype=bool)
    positive[targets.frame, pred, targets.cls] = True
    pred_boxes = ad.gather_rows(ad.reshape(boxes_t, (F * L, 4)), targets.frame * L + pred)
    # Each column sums as a row of the transpose: in the order of a
    # contiguous [N] sum, which a sum over axis 0 of [N, 2] does not keep.
    box_sums = ad.reduce_sum(ad.transpose(geo.box_pair_loss(pred_boxes, targets.box), (1, 0)),
                             axis=1)
    terms = ad.concat([ad.reshape(focal_loss(logits, positive), (1,)), box_sums])
    total = ad.reduce_sum(terms * np.array([LAMBDA_CLS, LAMBDA_GIOU, LAMBDA_L1]))
    cls_term, giou_term, l1_term = terms.data.tolist()
    return SetLossResult(total, pred, cls_term, giou_term, l1_term)
