"""Bounding-box algebra: box overlap, GIoU, logit-space box refinement, RoI
sampling into region features.

Boxes live in normalized (cx, cy, w, h) form, as [..., 4] float64 arrays for
predictions and annotations, and as Box values for detections and the
per-frame ground-truth view ClipSample.frame_gts. RoI sampling takes
clamp_boxes output. Tensor paths serve the training loss, where gradients
must reach the box-offset predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError

WH_MIN = 1e-4
LOGIT_EPS = 1e-4


@dataclass(frozen=True)
class Box:
    """Normalized center-size box; w, h stay in [WH_MIN, 1] after updates."""

    cx: float
    cy: float
    w: float
    h: float

    def corners(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0,
                self.cx + self.w / 2.0, self.cy + self.h / 2.0)


FULL_FRAME = np.array([0.5, 0.5, 1.0, 1.0])


def clamp_boxes(boxes: np.ndarray) -> np.ndarray:
    """Rowwise over [..., 4] boxes: centers into [0, 1], sizes into [WH_MIN, 1]."""
    return np.clip(boxes, (0.0, 0.0, WH_MIN, WH_MIN), 1.0)


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """[..., 4] center-size boxes -> [..., 4] corners (x1, y1, x2, y2)."""
    return np.concatenate([boxes[..., :2] - boxes[..., 2:] / 2,
                           boxes[..., :2] + boxes[..., 2:] / 2], axis=-1)


def box_overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inter, union, enclosure) areas of [..., 4] center-size boxes a and b,
    broadcast against each other; IoU is inter / union and GIoU subtracts
    (enclosure - union) / enclosure."""
    ac, bc = box_corners(a), box_corners(b)
    lo, hi = np.maximum(ac[..., :2], bc[..., :2]), np.minimum(ac[..., 2:], bc[..., 2:])
    wh = np.maximum(hi - lo, 0.0)
    inter = wh[..., 0] * wh[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    ext = np.maximum(ac[..., 2:], bc[..., 2:]) - np.minimum(ac[..., :2], bc[..., :2])
    return inter, union, ext[..., 0] * ext[..., 1]


def box_pair_terms(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 - GIoU, L1 distance) of [..., 4] center-size boxes a and b,
    broadcast against each other: the box terms of the matching cost and of
    the matched loss."""
    inter, union, enclosure = box_overlap(a, b)
    giou = inter / union - (enclosure - union) / enclosure
    return 1.0 - giou, np.abs(a - b).sum(axis=-1)


def _bilinear_corners(boxes: np.ndarray, s: int, h: int, w: int, dtype
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation on [h, w] maps at the row-major s*s grid of
    cell centres inside each of roi_sample_frame's [T, 1 or n, 4] boxes,
    corners clipped to the frame and points to the map border: each point's
    four corner cells, int32 flat indices y * w + x [4, T, m*s*s] for m
    boxes a frame, and their float64 weights [4, T, m*s*s]."""
    t = boxes.shape[0]
    corners = np.clip(box_corners(np.asarray(boxes, dtype=np.float64)), 0.0, 1.0)
    left, top, right, bottom = np.moveaxis(corners, -1, 0)[..., None]   # [T, m, 1] each
    cols = (np.arange(s) + 0.5) / s
    xs = (left + cols * (right - left)) * w - 0.5                       # [T, m, s]
    ys = (top + cols * (bottom - top)) * h - 0.5
    xs = np.repeat(xs[:, :, None, :], s, axis=2).reshape(t, -1).astype(dtype)   # x inner
    ys = np.repeat(ys[:, :, :, None], s, axis=3).reshape(t, -1).astype(dtype)   # y outer
    xs, ys = np.clip(xs, 0.0, w - 1.0), np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xs).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(ys).astype(np.int64), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    cells = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1]).astype(np.int32)
    return cells, np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])


def _interpolation(cells: np.ndarray, corner: np.ndarray, h: int, w: int, dtype
                   ) -> np.ndarray:
    """The dense [T, N, h*w] interpolation-weight stack of _bilinear_corners'
    cells and weights, which makes sampling one batched matmul."""
    _, t, n = cells.shape
    weights = np.zeros((t, n, h * w), dtype=dtype)
    at = (np.arange(t)[:, None], np.arange(n)[None, :], cells)
    if h > 1 and w > 1:
        weights[at] = corner            # a point's four corners are distinct cells
    else:
        np.add.at(weights, at, corner)
    return weights


def roi_sample_frame(f: Tensor, boxes: np.ndarray, s: int, queries: Tensor,
                     adapter: Tensor) -> Tensor:
    """Region features of every query of a clip, as one record: the s*s
    grid of bilinear samples inside its box on the [T, h, w, d] maps, plus
    its [T, n, d] query's adapted offset queries @ adapter ([d, s*s*d]) ->
    [T, n, s*s, d]. The boxes are [T, n, 4], or [T, 1, 4] that a frame's
    queries share, sampled once; other shapes raise DimensionError.

    The boxes are clamp_boxes output: centres in [0, 1], sizes in [WH_MIN,
    1]. Points are data, not differentiated; coordinates are clamped to the
    border (replicate padding). The forward pass samples the m boxes a
    frame through a dense [T, m*s*s, h*w] interpolation-weight stack, one
    batched matmul; the record keeps only the [4, T, m*s*s] int32 corner
    cells and their weights, from which the adjoint rebuilds that stack
    (after summing a shared box's gradient over its queries)."""
    t, h, w, d = f.shape
    ad._check_matmul("roi_sample", queries, adapter)
    n = queries.shape[1]
    if queries.shape[:-1] != (t, n) or np.shape(boxes) not in ((t, 1, 4), (t, n, 4)):
        raise DimensionError(f"roi_sample: boxes {np.shape(boxes)} for queries {queries.shape} "
                             f"on maps {f.shape}: want [T, 1 or n, 4] boxes")
    cells, corner = _bilinear_corners(boxes, s, h, w, f.data.dtype)
    out = (queries.data @ adapter.data).reshape(t, n, s * s, d)
    out += (_interpolation(cells, corner, h, w, f.data.dtype) @ f.data.reshape(t, h * w, d)
            ).reshape(*boxes.shape[:2], s * s, d)

    def backward(g):
        gq, gadapter = ad._shared_weight_adjoint(g.reshape(t, n, s * s * d), queries.data,
                                                 adapter.data)
        weights = _interpolation(cells, corner, h, w, f.data.dtype)
        g = ad._unbroadcast(g, (*boxes.shape[:2], s * s, d)).reshape(t, -1, d)
        return (np.swapaxes(weights, 1, 2) @ g).reshape(f.shape), gq, gadapter

    return ad._record("roi_sample", (f, queries, adapter), out, backward)


# ---------------------------------------------------------------------------
# Tensor-space box math for the training loss


def boxes_refine(ref: np.ndarray, delta: Tensor) -> Tensor:
    """sigmoid(logit(ref) + delta) rowwise over [..., 4] boxes.

    ref holds the detached reference boxes; gradients reach only delta.
    """
    clipped = np.clip(ref, LOGIT_EPS, 1.0 - LOGIT_EPS)
    logits = np.log(clipped / (1.0 - clipped))
    return ad.sigmoid(delta + ad.tensor(logits))


def box_pair_loss(pred: Tensor, gt: np.ndarray) -> Tensor:
    """box_pair_terms of row-aligned [n, 4] predicted and target boxes as
    one [n, 2] record of (1 - GIoU, L1) rows; targets take the prediction's
    dtype. The adjoint differentiates the overlap, enclosure and own-area
    terms through each clamp and corner min/max."""
    b = pred.data
    g = np.asarray(gt, dtype=b.dtype)

    def backward(grad):
        inter, union, enclosure = (x[:, None] for x in box_overlap(b, g))
        pc, gc = box_corners(b), box_corners(g)
        plo, phi, glo, ghi = pc[:, :2], pc[:, 2:], gc[:, :2], gc[:, 2:]
        overlap = np.minimum(phi, ghi) - np.maximum(plo, glo)          # [n, 2] x, y extents
        hull = np.maximum(phi, ghi) - np.minimum(plo, glo)
        # 1 - GIoU = 2 - inter / union - union / enclosure, union = area + gt area - inter.
        d_area = inter / union ** 2 - 1.0 / enclosure
        d_extent = (-1.0 / union - d_area) * np.maximum(overlap, 0.0)[:, ::-1] * (overlap >= 0)
        d_hull = union / enclosure ** 2 * hull[:, ::-1]
        d_hi = d_extent * (phi <= ghi) + d_hull * (phi >= ghi)
        d_lo = -d_extent * (plo >= glo) - d_hull * (plo <= glo)
        d_giou = np.concatenate([d_lo + d_hi, (d_hi - d_lo) / 2 + d_area * b[:, [3, 2]]], axis=1)
        return (grad[:, :1] * d_giou + grad[:, 1:] * np.sign(b - g),)

    return ad._record("box_pair_loss", (pred,), np.stack(box_pair_terms(b, g), axis=1), backward)
