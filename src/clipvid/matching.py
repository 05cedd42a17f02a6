"""Bipartite set matching between predictions and ground truth, and the
matched detection loss: focal classification + GIoU + L1 box terms.

Ground truth is padded with empty slots to the number of prediction slots;
the discrete assignment is solved exactly and never differentiated through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import Tensor
from .errors import CapacityError, NumericError

PAD_COST = 1e6


@dataclass
class MatchCostConfig:
    lambda_cls: float = 2.0
    lambda_giou: float = 2.0
    lambda_l1: float = 5.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


@dataclass
class Assignment:
    """Injective map from ground-truth index to prediction index.

    Padding slots (beyond the real ground truths) are flagged empty and
    carry the predictions left over by the matching.
    """

    pred_of_gt: tuple[int, ...]
    unmatched_preds: tuple[int, ...]


def focal_loss_logits(logits: Tensor, targets: np.ndarray, alpha: float,
                      gamma: float) -> Tensor:
    """Elementwise focal loss of a logits tensor against a 0/1 target mask."""
    t = np.asarray(targets, dtype=np.float64)
    p = ad.sigmoid(logits)
    pos = ad.pow_const(1.0 - p, gamma) * ad.softplus(-logits) * alpha
    neg = ad.pow_const(p, gamma) * ad.softplus(logits) * (1.0 - alpha)
    return pos * ad.tensor(t) + neg * ad.tensor(1.0 - t)


# ---------------------------------------------------------------------------
# Hungarian assignment


def _km_solve(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """O(n^3) shortest-augmenting-path assignment on a square matrix.

    Returns (col_of_row, row_potentials, col_potentials).
    """
    n = cost.shape[0]
    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)       # p[j]: row matched to col j (1-based)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
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
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row, u[1:], v[1:]


def _kuhn_match(adj: np.ndarray, fixed_rows: np.ndarray,
                fixed_cols: np.ndarray) -> list[int] | None:
    """Perfect matching on the free rows/cols of a boolean adjacency, or None."""
    n = adj.shape[0]
    match_col = [-1] * n                      # col -> row
    for j, i in enumerate(fixed_cols):
        if i >= 0:
            match_col[j] = i

    def try_row(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if adj[r, c] and not seen[c] and fixed_cols[c] < 0:
                seen[c] = True
                if match_col[c] < 0 or (not fixed_rows[match_col[c]]
                                        and try_row(match_col[c], seen)):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if fixed_rows[r]:
            continue
        if r in match_col:
            continue
        if not try_row(r, [False] * n):
            return None
    out = [-1] * n
    for c, r in enumerate(match_col):
        if r >= 0:
            out[r] = c
    return out


def hungarian(cost) -> list[int]:
    """Minimum-cost perfect matching; returns the column chosen per row.

    Among equal-cost optima the lexicographically smallest row-to-column
    sequence is returned (rows scanned in order, each taking the smallest
    column consistent with optimality).
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise NumericError(f"hungarian: expected a matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise NumericError("hungarian: non-finite cost entry")
    n, m = c.shape
    if n != m:
        size = max(n, m)
        padded = np.full((size, size), PAD_COST)
        padded[:n, :m] = c
        c = padded
    else:
        size = n
    col_of_row, u, v = _km_solve(c)

    # Optimal solutions are exactly the perfect matchings of the tight graph
    # (zero reduced cost under the optimal potentials); pick the smallest one.
    # The tolerance pre-filters candidates; acceptance is verified by exact
    # order-independent (fsum) cost equality against the optimum.
    reduced = c - u[:, None] - v[None, :]
    tight = reduced <= 1e-9 * np.maximum(1.0, np.abs(c))
    for r in range(size):
        tight[r, col_of_row[r]] = True        # guard against potential round-off

    base = assignment_cost(c, col_of_row)
    result = list(col_of_row)
    fixed_rows = np.zeros(size, dtype=bool)
    fixed_cols = np.full(size, -1, dtype=np.int64)
    for r in range(size):
        current = result[r]
        for cand in range(size):
            if cand == current:
                break
            if fixed_cols[cand] >= 0 or not tight[r, cand]:
                continue
            fixed_rows[r] = True
            fixed_cols[cand] = r
            rest = _kuhn_match(tight, fixed_rows, fixed_cols)
            fixed_rows[r] = False
            fixed_cols[cand] = -1
            if rest is not None:
                rest[r] = cand
                if assignment_cost(c, rest) == base:
                    result = rest
                    break
        fixed_rows[r] = True
        fixed_cols[result[r]] = r
    return result[:n]


def assignment_cost(cost, col_of_row) -> float:
    c = np.asarray(cost, dtype=np.float64)
    return math.fsum(c[i, j] for i, j in enumerate(col_of_row))


# ---------------------------------------------------------------------------
# Set prediction loss


@dataclass
class SetLossResult:
    total: Tensor
    assignment: Assignment
    cls_term: float = 0.0
    giou_term: float = 0.0
    l1_term: float = 0.0
    num_gts: int = 0


def cost_matrix(logits: np.ndarray, boxes: np.ndarray,
                frame_gts: list[tuple[int, geo.Box]], cfg: MatchCostConfig) -> np.ndarray:
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
    cls_cost = cfg.focal_alpha * (1.0 - p) ** cfg.focal_gamma * softplus_negx

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
    return (cfg.lambda_cls * cls_cost + cfg.lambda_giou * (1.0 - giou)
            + cfg.lambda_l1 * l1)


def match_frame(logits: np.ndarray, boxes: np.ndarray,
                frame_gts: list[tuple[int, geo.Box]], cfg: MatchCostConfig) -> Assignment:
    """Assign each real ground truth its lowest-cost prediction slot."""
    L = len(logits)
    G = len(frame_gts)
    if G > L:
        raise CapacityError(f"{G} ground truths exceed {L} prediction slots")
    if G == 0:
        return Assignment((), tuple(range(L)))
    cols = hungarian(cost_matrix(logits, boxes, frame_gts, cfg))
    pred_of_gt = [0] * G
    for i, j in enumerate(cols):
        if j < G:
            pred_of_gt[j] = i
    matched = set(pred_of_gt)
    return Assignment(tuple(pred_of_gt),
                      tuple(i for i in range(L) if i not in matched))


def set_loss(logits: Tensor, boxes_t: Tensor, boxes: np.ndarray,
             frame_gts: list[tuple[int, geo.Box]], cfg: MatchCostConfig,
             assignment: Assignment | None = None) -> SetLossResult:
    """Match one frame's predictions to its ground truths and score them.

    logits [L, C] and boxes_t [L, 4] are the frame's differentiable
    predictions; boxes [L, 4] are the detached boxes the matching costs.
    Matched pairs contribute the full weighted loss; every other
    (query, class) slot contributes negative focal loss. The returned total
    is an un-normalized sum; callers normalize per clip. A pre-computed
    assignment can be supplied to hold the discrete matching fixed (finite
    differencing never sees the argmin flip).
    """
    G = len(frame_gts)
    if assignment is None:
        assignment = match_frame(logits.data, boxes, frame_gts, cfg)

    targets = np.zeros(logits.shape)
    for j, (cls_id, _) in enumerate(frame_gts):
        targets[assignment.pred_of_gt[j], cls_id] = 1.0
    cls_loss = ad.reduce_sum(
        focal_loss_logits(logits, targets, cfg.focal_alpha, cfg.focal_gamma))

    if G > 0:
        pred_boxes = ad.gather_rows(boxes_t, assignment.pred_of_gt)
        gt_boxes = np.stack([box.as_array() for _, box in frame_gts])
        giou_loss = ad.reduce_sum(1.0 - geo.giou_pairs(pred_boxes, gt_boxes))
        l1_loss = ad.reduce_sum(geo.l1_pairs(pred_boxes, gt_boxes))
    else:
        giou_loss = ad.tensor(np.zeros(()))
        l1_loss = ad.tensor(np.zeros(()))

    total = (cls_loss * cfg.lambda_cls + giou_loss * cfg.lambda_giou
             + l1_loss * cfg.lambda_l1)
    return SetLossResult(total, assignment,
                         cls_term=float(cls_loss.data),
                         giou_term=float(giou_loss.data),
                         l1_term=float(l1_loss.data),
                         num_gts=G)
