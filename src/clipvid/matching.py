"""Bipartite set matching between predictions and ground truth, and the
matched detection loss: focal classification + GIoU + L1 box terms.

Each frame's G ground truths are assigned to G of its L prediction slots at
minimum total cost; the discrete assignment is never differentiated
through. A stack of frames, one clip or every decoder layer of a clip, is
matched in one batched solve: one [N, L] cost over the stack's ground-truth
rows, each scored against its own frame's queries, and one
shortest-augmenting-path solve over [F, Gmax, L] in which the frames add
their rows in lockstep. Among optima of equal cost a frame takes the one
the solver reaches, which is a function of the frame's cost matrix alone:
the same picks whether the frame is solved alone or in any stack. The loss
scores the stack in one pass too.
"""

from __future__ import annotations

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


def focal_loss(logits: Tensor, positive: np.ndarray, weight: np.ndarray | None = None
               ) -> Tensor:
    """Summed focal_loss_values of an [F, ...] logits tensor against a 0/1
    target mask, each frame's values scaled by its weight [F] (default 1),
    as one record. Each branch's derivative is written in terms of its own
    value v: -(gamma p v + alpha (1 - p)^(gamma+1)) for a positive target,
    gamma (1 - p) v + (1 - alpha) p^(gamma+1) for a negative one."""
    x = logits.data
    values = focal_loss_values(x, positive)
    w = np.ones(len(x), dtype=x.dtype) if weight is None else np.asarray(weight, dtype=x.dtype)
    w = w.reshape((-1,) + (1,) * (x.ndim - 1))

    def backward(g):
        p = ad.stable_sigmoid(x)
        q = 1.0 - p
        return (g * w * np.where(positive,
                                 -(FOCAL_GAMMA * p * values
                                   + FOCAL_ALPHA * np.power(q, FOCAL_GAMMA + 1.0)),
                                 FOCAL_GAMMA * q * values
                                 + (1.0 - FOCAL_ALPHA) * np.power(p, FOCAL_GAMMA + 1.0)),)

    return ad._record("focal_loss", (logits,), np.asarray((values * w).sum()), backward)


# ---------------------------------------------------------------------------
# Hungarian assignment


def _km_solve(cost: np.ndarray, rows: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest-augmenting-path assignment (Crouse, IEEE TAES 2016) of a
    stack of F [n, m] matrices in lockstep: the first rows[f] <= m rows of
    frame f each get their own column in O(n^2 m). Row i of every frame
    that has one is added in the same array passes, each pass one search
    step of every frame still searching; a frame with fewer rows sits out,
    so each frame does exactly the arithmetic of a one-frame solve.

    Returns (col_of_row [F, n], -1 past a frame's rows; row potentials
    [F, n]; column potentials [F, m]).
    """
    F, n, m = cost.shape
    fr = np.arange(F)
    u = np.zeros((F, n + 1))
    v = np.zeros((F, m + 1))
    p = np.zeros((F, m + 1), dtype=np.int64)    # p[f, j]: row matched to col j (1-based)
    way = np.zeros((F, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        adding = rows >= i
        searching = adding.copy()
        p[:, 0] = i
        j0 = np.zeros(F, dtype=np.int64)
        minv = np.full((F, m + 1), np.inf)
        used = np.zeros((F, m + 1), dtype=bool)
        while searching.any():
            live = searching[:, None]
            used[fr, j0] |= searching
            i0 = p[fr, j0]
            # A frame that is not searching reads a finite row and writes nothing.
            cur = cost[fr, i0 - 1] - u[fr, i0][:, None] - v[:, 1:]
            unused = ~used[:, 1:] & live
            better = unused & (cur < minv[:, 1:])
            minv[:, 1:] = np.where(better, cur, minv[:, 1:])
            way[:, 1:] = np.where(better, j0[:, None], way[:, 1:])
            j1 = np.argmin(np.where(used[:, 1:], np.inf, minv[:, 1:]), axis=1) + 1
            delta = np.where(searching, minv[fr, j1], 0.0)
            tree = used & live
            f, j = np.nonzero(tree)
            u[f, p[f, j]] += delta[f]
            np.subtract(v, delta[:, None], out=v, where=tree)
            np.subtract(minv[:, 1:], delta[:, None], out=minv[:, 1:], where=unused)
            j0 = np.where(searching, j1, j0)
            searching &= p[fr, j0] != 0
        j0 = np.where(adding, j0, 0)
        while j0.any():
            f = np.flatnonzero(j0)
            j1 = way[f, j0[f]]
            p[f, j0[f]] = p[f, j1]
            j0[f] = j1
    col_of_row = np.full((F, n), -1, dtype=np.int64)
    f, j = np.nonzero(p[:, 1:])
    col_of_row[f, p[f, j + 1] - 1] = j
    return col_of_row, u[:, 1:], v[:, 1:]


def hungarian(cost) -> list[int]:
    """Minimum-cost assignment of an n x m cost matrix, n <= m: every row
    gets its own column. Returns the column chosen per row; among optima of
    equal cost, the one the shortest-augmenting-path solve reaches, a
    function of the matrix alone."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] > c.shape[1]:
        raise DimensionError(f"hungarian: expected a matrix with rows <= columns, "
                             f"got shape {c.shape}")
    if not np.isfinite(c).all():
        raise NumericError("hungarian: non-finite cost entry")
    return _km_solve(c[None], np.array([len(c)]))[0][0].tolist()


# ---------------------------------------------------------------------------
# Set prediction loss


@dataclass
class SetLossResult:
    total: Tensor
    pred: np.ndarray                        # [N] the query matched to each target row
    cls_term: float                         # frame-weighted sums: focal, 1 - GIoU, L1
    giou_term: float
    l1_term: float


def _pair_costs(logits: np.ndarray, boxes: np.ndarray, frame: np.ndarray,
                gt_cls: np.ndarray, gt_box: np.ndarray) -> np.ndarray:
    """[N, L] pairing costs of N ground truths (frame [N], gt_cls [N],
    gt_box [N, 4]) against the L queries of their own frame of [F, L, C]
    logits and [F, L, 4] boxes: the focal loss of the ground-truth class
    channel with a positive target, plus the weighted GIoU and L1 box
    terms."""
    x = np.asarray(logits)[frame, :, gt_cls].astype(np.float64)       # [N, L]
    pboxes = np.asarray(boxes, dtype=np.float64)[frame]               # [N, L, 4] cxcywh
    gboxes = np.asarray(gt_box, dtype=np.float64)                     # [N, 4]
    cls_cost = _focal_positive(x, ad.stable_sigmoid(x))
    giou_cost, l1 = geo.box_pair_terms(pboxes, gboxes[:, None])
    return LAMBDA_CLS * cls_cost + LAMBDA_GIOU * giou_cost + LAMBDA_L1 * l1


def cost_matrix(logits: np.ndarray, boxes: np.ndarray, gt_cls: np.ndarray,
                gt_box: np.ndarray) -> np.ndarray:
    """[L, G] pairing costs of one frame's [L, C] logits and [L, 4] boxes
    against its G ground truths (gt_cls [G], gt_box [G, 4]), the frame's
    view of the stacked cost that match_frames solves. A frame without
    ground truth gives [L, 0]."""
    frame = np.zeros(len(gt_cls), dtype=np.int64)
    return _pair_costs(np.asarray(logits)[None], np.asarray(boxes)[None], frame,
                       gt_cls, gt_box).T


def match_frame(logits: np.ndarray, boxes: np.ndarray, gt_cls: np.ndarray,
                gt_box: np.ndarray) -> Assignment:
    """Assign each of one frame's ground truths its own prediction slot at
    minimum total cost: match_frames on a one-frame stack."""
    frame = np.zeros(len(gt_cls), dtype=np.int64)
    targets = Targets(frame, np.asarray(gt_cls), np.asarray(gt_box), np.full_like(frame, -1))
    return Assignment(tuple(match_frames(np.asarray(logits)[None], np.asarray(boxes)[None],
                                         targets).tolist()))


def match_frames(logits: np.ndarray, boxes: np.ndarray, targets: Targets) -> np.ndarray:
    """The query matched to each row of targets -> [N] int64. Each frame of
    the [F, L, C] logits and [F, L, 4] boxes assigns its ground truths their
    own slots at minimum total cost; under exact cost ties, the optimum the
    solver reaches, a function of the frame's own costs alone. All frames
    are costed and solved together, in one [F, Gmax, L] assignment."""
    F, L = np.shape(logits)[:2]
    bounds = np.searchsorted(targets.frame, np.arange(F + 1))
    rows = np.diff(bounds)
    if (rows > L).any():
        f = int(np.argmax(rows > L))
        raise CapacityError(f"frame {f}: {rows[f]} ground truths exceed {L} prediction slots")
    cost = _pair_costs(logits, boxes, targets.frame, targets.cls, targets.box)
    if not np.isfinite(cost).all():
        raise NumericError("match_frames: non-finite cost entry")
    rank = np.arange(len(targets)) - bounds[targets.frame]
    stack = np.zeros((F, rows.max(initial=0), L))        # rows past rows[f] take no part
    stack[targets.frame, rank] = cost
    return _km_solve(stack, rows)[0][targets.frame, rank]


def set_loss(logits: Tensor, boxes_t: Tensor, boxes: np.ndarray, targets: Targets,
             weight: np.ndarray | None = None) -> SetLossResult:
    """Match each frame's predictions to its ground truths and score the
    whole stack of F frames: a clip's T frames, or its Ly decoder layers
    stacked layer-major into Ly*T frames.

    logits [F, L, C] and boxes_t [F, L, 4] are the differentiable
    predictions; boxes [F, L, 4] are the detached boxes the matching costs;
    targets is the stack's ground-truth table, its frame column indexing
    the F frames. Matched pairs contribute the full weighted loss; every
    other (query, class) slot contributes negative focal loss. weight [F]
    scales each frame's focal terms and the box terms of its target rows
    (default 1), which is how callers normalize each clip of a stack by its
    own object count. The matching is held (autodiff.hold).
    """
    F, L, _ = logits.shape
    pred = ad.hold(lambda: match_frames(logits.data, boxes, targets))
    w = np.ones(F) if weight is None else np.asarray(weight)

    positive = np.zeros(logits.shape, dtype=bool)
    positive[targets.frame, pred, targets.cls] = True
    pred_boxes = ad.gather_rows(ad.reshape(boxes_t, (F * L, 4)), targets.frame * L + pred)
    # The [1, N] row weights times the [N, 2] (1 - GIoU, L1) rows: both box sums.
    box_sums = ad.matmul(ad.tensor(w[targets.frame][None]),
                         geo.box_pair_loss(pred_boxes, targets.box))
    terms = ad.concat([ad.reshape(focal_loss(logits, positive, w), (1, 1)), box_sums], axis=1)
    total = ad.reduce_sum(terms * np.array([LAMBDA_CLS, LAMBDA_GIOU, LAMBDA_L1]))
    cls_term, giou_term, l1_term = terms.data[0].tolist()
    return SetLossResult(total, pred, cls_term, giou_term, l1_term)
