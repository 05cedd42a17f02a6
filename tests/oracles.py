"""Scalar reference forms of the package's batched clip code.

Each function here handles one query, one box, one logit or one frame pair
with plain floats or single-row tensors, and each adjoint reference takes
one product per stacked matrix or one addition per gathered row. The
composed layers build linear, layer_norm and attention from elementwise
primitives, so the taped chain rule checks the fused primitives' adjoints.
The tests compare the package's batched and fused paths against them. The
patches at the end change the package for one test: the within-frame mask
makes a clip comparable with its single-frame runs, and corrupt_adjoint
breaks one primitive's gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from clipvid import autodiff as ad
from clipvid import ica
from clipvid import matching as mt
from clipvid import model as M
from clipvid import training as tr
from clipvid.errors import InputError
from clipvid.evaluate import IOU_THRESH, interpolated_ap
from clipvid.geometry import LOGIT_EPS, WH_MIN, Box, iou

# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True)
class BoxDelta:
    """Additive offsets in inverse-sigmoid (logit) space."""

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dx, self.dy, self.dw, self.dh))):
            raise InputError("box delta must be finite")


def clamped(b: Box) -> Box:
    return Box(min(max(b.cx, 0.0), 1.0), min(max(b.cy, 0.0), 1.0),
               min(max(b.w, WH_MIN), 1.0), min(max(b.h, WH_MIN), 1.0))


def giou(a: Box, b: Box) -> float:
    """IoU minus the enclosure penalty; in [-1, 1], 1 iff boxes coincide."""
    if a.w <= 0 or a.h <= 0 or b.w <= 0 or b.h <= 0:
        raise InputError(f"giou: degenerate box (a={a}, b={b})")
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih
    union = a.area() + b.area() - inter
    ew = max(ax2, bx2) - min(ax1, bx1)
    eh = max(ay2, by2) - min(ay1, by1)
    enclosure = ew * eh
    return inter / union - (enclosure - union) / enclosure


def inverse_sigmoid(x: float, eps: float = LOGIT_EPS) -> float:
    x = min(max(x, eps), 1.0 - eps)
    return math.log(x / (1.0 - x))


def apply_delta(b: Box, d: BoxDelta) -> Box:
    def upd(coord: float, delta: float) -> float:
        return 1.0 / (1.0 + math.exp(-(inverse_sigmoid(coord) + delta)))

    return clamped(Box(upd(b.cx, d.dx), upd(b.cy, d.dy), upd(b.w, d.dw), upd(b.h, d.dh)))


def roi_grid_points(b: Box, s: int, h: int, w: int) -> np.ndarray:
    """Fractional-index sample points: centers of an s*s grid inside b.

    The box is clamped to the frame; points land in pixel-center
    coordinates (pixel j covers [j, j+1), center at j + 0.5).
    """
    bc = Box(min(max(b.cx, 0.0), 1.0), min(max(b.cy, 0.0), 1.0),
             min(b.w, 1.0), min(b.h, 1.0))
    x1, y1, x2, y2 = bc.corners()
    x1, x2 = max(x1, 0.0), min(x2, 1.0)
    y1, y2 = max(y1, 0.0), min(y2, 1.0)
    cols = (np.arange(s) + 0.5) / s
    xs = (x1 + cols * (x2 - x1)) * w - 0.5
    ys = (y1 + cols * (y2 - y1)) * h - 0.5
    gx, gy = np.meshgrid(xs, ys)             # row-major: y outer, x inner
    return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)


def bilinear_corners(h: int, w: int, x: float, y: float) -> list[tuple[int, int, float]]:
    """(row, col, weight) terms of bilinear interpolation on an [h, w] map at
    fractional index (x, y): the point is clamped to the border and a
    corner past the last row or column folds onto it."""
    x, y = min(max(x, 0.0), w - 1.0), min(max(y, 0.0), h - 1.0)
    c0, r0 = math.floor(x), math.floor(y)
    fx, fy = x - c0, y - r0
    return [(r, c, wy * wx)
            for r, wy in ((r0, 1.0 - fy), (min(r0 + 1, h - 1), fy))
            for c, wx in ((c0, 1.0 - fx), (min(c0 + 1, w - 1), fx))]


def roi_sample(f, b: Box, s: int):
    """Bilinear sample an s*s grid of cell centers inside b on one [h, w, d]
    map -> [s*s, d]."""
    h, w, d = f.shape
    pts = roi_grid_points(b, s, h, w)
    out = ad.bilinear_sample(ad.reshape(f, (1, h, w, d)), pts[None])
    return ad.reshape(out, (s * s, d))


# ---------------------------------------------------------------------------
# Decoder pieces, one query at a time


def adapt_region_feature(k, q, adapter):
    """Add a query-conditioned offset to each cell of a region feature."""
    s2, d = k.shape[-2], k.shape[-1]
    patch = ad.reshape(ad.matmul(q, adapter), (s2, d))
    return k + patch


def guided_cross_attention(q, b: Box, f, lp, s: int):
    """Query q [1, d] with reference box b: (updated q [1, d], adapted k [s*s, d])."""
    k = adapt_region_feature(roi_sample(f, b, s), q, lp.adapter)
    kv = ad.reshape(k, (1,) + k.shape)
    attn = ad.multi_head_attention(ad.reshape(q, (1,) + q.shape), kv, kv, lp.cross_attn)
    return M.apply_ln(q + ad.reshape(attn, q.shape), lp.ln_cross), k


def detection_head(q, b: Box, lp, with_identity: bool):
    """Single-query head: (logits [C], refined Box, unit identity [d] or None)."""
    logits = ad.linear(q, lp.head_cls)
    box = apply_delta(b, BoxDelta(*M.mlp(q, lp.head_loc).data[0].tolist()))
    h = None
    if with_identity and lp.head_id is not None:
        ident = M.l2_normalize_rows(M.mlp(q, lp.head_id))
        h = ad.reshape(ident, (ident.shape[-1],))
    return ad.reshape(logits, (logits.shape[-1],)), box, h


def identity_match(idents, anchor_frame: int, anchor_index: int,
                   candidates: dict[int, list[int]]) -> dict[int, tuple[int, float]]:
    """One anchor's selection over [T, L, d] float64 identity embeddings,
    one scalar dot at a time: {other frame: (pick, dot)}, the pick being
    the candidate with the largest dot, ties to the lower index (-1 and
    -inf when none is finite)."""
    av = idents[anchor_frame][anchor_index]
    picks: dict[int, tuple[int, float]] = {}
    for i in sorted(candidates):
        if i == anchor_frame:
            continue
        best_j, best_dot = -1, -np.inf
        for j in candidates[i]:
            d = float(av @ idents[i][j])
            if d > best_dot or (d == best_dot and j < best_j):
                best_j, best_dot = j, d
        picks[i] = (best_j, best_dot)
    return picks


def oracle_match(idents, anchor_frame: int, anchor_index: int, anchor_track,
                 track_queries: list[dict[int, int]], candidates: dict[int, list[int]]
                 ) -> dict[int, tuple[int, float]]:
    """Ground-truth-guided selection for one anchor, {other frame: (pick,
    dot)}: the track's query in every other frame (dot NaN when it is not
    a candidate), the scalar learned pick where the track is absent."""
    picks = identity_match(idents, anchor_frame, anchor_index, candidates)
    if anchor_track is None:
        return picks
    av = idents[anchor_frame][anchor_index]
    for i in picks:
        j = track_queries[i].get(anchor_track)
        if j is not None:
            picks[i] = (j, float(av @ idents[i][j]) if j in candidates[i] else float("nan"))
    return picks


def joint_context(chosen: dict[int, int], region, contrib_queries, pos_proj):
    """One anchor's joint context from its {frame: query} choices (its own
    frame included) and per-frame lists (region[i] [L, s*s, d],
    contrib_queries[i] [L, d]), one block at a time -> [1, F*s*s, d]."""
    blocks = []
    for i in sorted(chosen):
        j = chosen[i]
        block = ad.gather_rows(region[i], [j])                     # [1, s*s, d]
        q = ad.gather_rows(contrib_queries[i], [j])                # [1, d]
        pos = ad.reshape(ad.linear(q, pos_proj), (1, 1, q.shape[-1]))
        blocks.append(block + pos)
    return ad.concat(blocks, axis=1) if len(blocks) > 1 else blocks[0]


def aggregate(q, chosen, region, contrib_queries, lp):
    """Single-anchor aggregation: cross-attend the anchor query q [1, d] over
    its joint context, residual + layer norm -> updated [1, d] query."""
    ctx = joint_context(chosen, region, contrib_queries, lp.ica_pos)
    attn = ad.multi_head_attention(ad.reshape(q, (1, 1, q.shape[-1])), ctx, ctx, lp.ica_attn)
    return M.apply_ln(q + ad.reshape(attn, q.shape), lp.ln_ica)


def contrastive_loss(idents, matched):
    """Contrastive identity loss over per-frame [L, d] identity tensors, one
    ordered frame pair of a track at a time: the anchor's positive dot
    against a logsumexp of its dots with every query of the other frame.
    Returns (pair-normalized loss, pair count)."""
    track_frames: dict[int, list[int]] = {}
    for i in range(len(idents)):
        for tid in matched[i]:
            track_frames.setdefault(tid, []).append(i)
    terms = []
    for tid in sorted(track_frames):
        frames = track_frames[tid]
        for m in frames:
            anchor = ad.gather_rows(idents[m], [matched[m][tid]])
            for i in frames:
                if i == m:
                    continue
                pos = ad.reduce_sum(ad.mul(anchor, ad.gather_rows(idents[i], [matched[i][tid]])))
                logits = ad.matmul(anchor, ad.transpose(idents[i], (1, 0)))
                terms.append(ad.reshape(ad.logsumexp(logits, axis=-1), ()) - pos)
    if not terms:
        return ad.tensor(np.zeros(())), 0
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms)), len(terms)


# ---------------------------------------------------------------------------
# Matching costs and the set loss


def focal_loss(p_logit: float, target: int, alpha: float = 0.25,
               gamma: float = 2.0) -> float:
    """Binary focal loss of a single logit, in stabilized log-space form."""
    # log(sigmoid(x)) = -softplus(-x); log(1 - sigmoid(x)) = -softplus(x)
    def softplus(x: float) -> float:
        return max(x, 0.0) + math.log1p(math.exp(-abs(x)))

    p = 1.0 / (1.0 + math.exp(-p_logit)) if p_logit >= 0 else \
        math.exp(p_logit) / (1.0 + math.exp(p_logit))
    if target == 1:
        return alpha * (1.0 - p) ** gamma * softplus(-p_logit)
    return (1.0 - alpha) * p ** gamma * softplus(p_logit)


def match_cost(logits, box: Box, gt_class: int, gt_box: Box) -> float:
    """Pairing cost of one prediction (class logits, box) against one real
    ground truth. The classification term is the focal loss of the
    ground-truth class channel with a positive target."""
    cls = focal_loss(float(logits[gt_class]), 1, mt.FOCAL_ALPHA, mt.FOCAL_GAMMA)
    g = giou(box, gt_box)
    l1 = sum(abs(a - b) for a, b in zip(box.as_array(), gt_box.as_array()))
    return mt.LAMBDA_CLS * cls + mt.LAMBDA_GIOU * (1.0 - g) + mt.LAMBDA_L1 * l1


def per_layer_clip_loss(layers, gts):
    """training.clip_loss with one set_loss call per decoder layer, each
    contrastive term read from its own layer's call. Returns (total,
    LossParts, assignments per layer)."""
    scale = 1.0 / max(1, sum(len(g) for g in gts))
    frame_gts = [[(c, b) for c, b, _t in g] for g in gts]
    parts, terms, assignments = tr.LossParts(), [], []
    for layer in layers:
        res = mt.set_loss(layer.logits, layer.boxes_t, layer.boxes, frame_gts)
        terms.append(res.total * scale)
        parts.cls += mt.LAMBDA_CLS * res.cls_term * scale
        parts.giou += mt.LAMBDA_GIOU * res.giou_term * scale
        parts.l1 += mt.LAMBDA_L1 * res.l1_term * scale
        assignments.append(res.assignments)
        if layer.ident is not None:
            matched = [{g[j][2]: a.pred_of_gt[j] for j in range(len(g))}
                       for g, a in zip(gts, res.assignments)]
            con, pairs = ica.contrastive_loss(layer.ident, matched)
            if pairs > 0:
                terms.append(con * tr.CONTRASTIVE_WEIGHT)
                parts.con += tr.CONTRASTIVE_WEIGHT * float(con.data)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    parts.total = float(total.data)
    return total, parts, assignments


# ---------------------------------------------------------------------------
# Evaluation


def average_precision(dets: list[tuple[float, Box]], gts: list[Box],
                      iou_thresh: float = IOU_THRESH) -> float:
    """AP of scored boxes against the ground truths of a single image set."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][0], i))
    hit = [False] * len(gts)
    flags = []
    for i in order:
        _, box = dets[i]
        best, best_j = 0.0, -1
        for j, g in enumerate(gts):
            v = iou(box, g)
            if v > best:
                best, best_j = v, j
        if best >= iou_thresh and not hit[best_j]:
            hit[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return interpolated_ap(flags, len(gts))


def loop_extract_detections(last_layer, cfg) -> list[list[M.Detection]]:
    """Per-frame detections one (query, class) slot at a time: every slot
    above the score threshold, its box clipped to the frame, then a stable
    sort by descending score."""
    out = []
    clip_scores = 1.0 / (1.0 + np.exp(-np.asarray(last_layer.logits.data, dtype=np.float64)))
    for scores, b in zip(clip_scores, last_layer.boxes):
        corners = np.clip(np.concatenate([b[:, :2] - b[:, 2:] / 2.0,
                                          b[:, :2] + b[:, 2:] / 2.0], axis=1), 0.0, 1.0)
        dets = []
        for j, row in enumerate(corners.tolist()):
            box = Box.from_corners(*row)
            for c in range(scores.shape[1]):
                if scores[j, c] > cfg.score_thresh:
                    dets.append(M.Detection(c, float(scores[j, c]), box))
        dets.sort(key=lambda dd: -dd.score)
        out.append(dets)
    return out


# ---------------------------------------------------------------------------
# Composed layers


def composed_linear(x, p):
    return ad.matmul(x, p.w) + p.b


def composed_layer_norm(x, gain, bias, eps: float = 1e-5):
    mu = ad.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.div(ad.tensor(1.0), ad.sqrt(var + eps))
    return ad.mul(centered, inv) * gain + bias


def composed_attention(q, k, v, heads: int):
    bsz, nq, d = q.shape
    nk = k.shape[1]
    hd = d // heads

    def split(x, n: int):
        return ad.transpose(ad.reshape(x, (bsz, n, heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = split(q, nq), split(k, nk), split(v, nk)
    logits = ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))) * (1.0 / math.sqrt(hd))
    ctx = ad.matmul(ad.softmax(logits, axis=-1), vh)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (bsz, nq, d))


def composed_multi_head_attention(q, k, v, p):
    return composed_linear(composed_attention(composed_linear(q, p.q), composed_linear(k, p.k),
                                              composed_linear(v, p.v), p.heads), p.out)


# ---------------------------------------------------------------------------
# Adjoints


def stacked_matmul_adjoint(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Gradients of a @ b for the upstream gradient g, one product per
    stacked matrix, summed back over the broadcast axes."""
    ga = g @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ g
    return ad._unbroadcast(ga, a.shape), ad._unbroadcast(gb, b.shape)


def scatter_add_rows(shape: tuple[int, ...], idx, g: np.ndarray) -> np.ndarray:
    """Adjoint of a row gather: each gathered row added back in gather order."""
    z = np.zeros(shape, dtype=g.dtype)
    np.add.at(z, np.asarray(idx), g)
    return z


# ---------------------------------------------------------------------------
# Within-frame mask


def mask_within_frames(monkeypatch) -> None:
    """Close every cross-frame path of the forward pass: self-attention
    takes the frame axis as a batch, and aggregation keeps only each
    anchor's own frame. A masked clip then equals its single-frame runs."""
    def frame_batched(queries, lp):
        attn = ad.multi_head_attention(queries, queries, queries, lp.self_attn)
        return M.apply_ln(queries + attn, lp.ln_self)

    match = ica.identity_match

    def own_frame_only(*args):
        sel = match(*args)
        sel.picks[sel.anchors[:, :1] != np.arange(sel.picks.shape[1])] = -1
        return sel

    monkeypatch.setattr(M, "extended_self_attention", frame_batched)
    monkeypatch.setattr(ica, "identity_match", own_frame_only)


# ---------------------------------------------------------------------------
# Fault injection


def corrupt_adjoint(monkeypatch, op: str, position: int = 0) -> None:
    """Add 1000 to the gradient of input `position` that the primitive
    recorded as op returns, so a gradient check through that input must
    fail."""
    record = ad._record

    def corrupted(name, inputs, out_data, backward):
        if name == op:
            inner = backward

            def backward(g):
                grads = list(inner(g))
                if grads[position] is not None:
                    grads[position] = grads[position] + 1000.0
                return tuple(grads)

        return record(name, inputs, out_data, backward)

    monkeypatch.setattr(ad, "_record", corrupted)
