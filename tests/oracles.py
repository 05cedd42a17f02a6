"""Scalar reference forms of the package's batched clip code.

Each function here handles one query, one box, one logit or one frame pair
with plain floats or single-row tensors, and each adjoint reference takes
one product per stacked matrix or one addition per gathered row. The
composed layers build linear, the layer norm and multi-head attention from
elementwise primitives, and linear_relu, residual_norm, self_attention and
the region features of geometry.roi_sample_frame from the records they
fuse, so the taped chain rule checks the fused primitives' adjoints.
composed_context_attention is that chain for the reassociated
context_attention record, and projected_block_attention keeps aggregation's
attention in its projected form, keys and values computed per context
block. km_solve solves one frame's assignment, one row at a time,
per_clip_step trains a batch one clip at a time, and window_infer_clip
runs inference one window at a time. The tests
compare the package's batched and fused paths against them.
The patches at the end change the package for one test: the within-frame mask
makes a clip comparable with its single-frame runs, and corrupt_adjoint
breaks one primitive's gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from clipvid import autodiff as ad
from clipvid import geometry as geo
from clipvid import ica
from clipvid import matching as mt
from clipvid import model as M
from clipvid import training as tr
from clipvid.errors import InputError
from clipvid.evaluate import IOU_THRESH, EvalReport, interpolated_ap
from clipvid.geometry import LOGIT_EPS, WH_MIN, Box, box_pair_terms
from clipvid.synthvid import SPEED_LABELS, Targets

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


def iou(a: Box, b: Box) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def giou(a: Box, b: Box) -> float:
    """IoU minus the enclosure penalty; in [-1, 1], 1 iff boxes coincide."""
    if a.w <= 0 or a.h <= 0 or b.w <= 0 or b.h <= 0:
        raise InputError(f"giou: degenerate box (a={a}, b={b})")
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
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


def bilinear_sample(f, points: np.ndarray):
    """Sample each map of a [T,H,W,C] stack at its own fractional (x, y)
    index pairs [T,N,2] -> [T,N,C], as one record whose adjoint keeps the
    dense [T, N, H*W] interpolation-weight stack: the sampling half of
    geometry.roi_sample_frame's record.

    Points are data, not differentiated; gradients flow to f only.
    Coordinates are clamped to the border (replicate padding)."""
    t, h, w, c = f.shape
    pts = np.asarray(points, dtype=f.data.dtype)
    n = pts.shape[1]
    xs = np.clip(pts[..., 0], 0.0, w - 1.0)
    ys = np.clip(pts[..., 1], 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.minimum(x0, w - 2) if w > 1 else x0 * 0
    y0 = np.minimum(y0, h - 2) if h > 1 else y0 * 0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    weights = np.zeros((t, n, h * w), dtype=f.data.dtype)
    at = (np.arange(t)[:, None], np.arange(n)[None, :],
          np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1]))      # [4, T, N]
    corner = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    if h > 1 and w > 1:
        weights[at] = corner            # a point's four corners are distinct cells
    else:
        np.add.at(weights, at, corner)
    out = weights @ f.data.reshape(t, h * w, c)

    def backward(g):
        return ((np.swapaxes(weights, 1, 2) @ g).reshape(t, h, w, c),)

    return ad._record("bilinear_sample", (f,), out, backward)


def roi_sample(f, b: Box, s: int):
    """Bilinear sample an s*s grid of cell centers inside b on one [h, w, d]
    map -> [s*s, d]."""
    h, w, d = f.shape
    pts = roi_grid_points(b, s, h, w)
    out = bilinear_sample(ad.reshape(f, (1, h, w, d)), pts[None])
    return ad.reshape(out, (s * s, d))


# ---------------------------------------------------------------------------
# Decoder pieces, one query at a time


def apply_ln(x, p):
    """A layer norm, as the model's residual_norm records apply it."""
    return composed_layer_norm(x, p.gain, p.bias)


def adapt_region_feature(k, q, adapter):
    """Add a query-conditioned offset to each cell of a region feature."""
    s2, d = k.shape[-2], k.shape[-1]
    patch = ad.reshape(ad.matmul(q, adapter), (s2, d))
    return k + patch


def guided_cross_attention(q, b: Box, f, lp, s: int):
    """Query q [1, d] with reference box b: (updated q [1, d], adapted k [s*s, d])."""
    k = adapt_region_feature(roi_sample(f, b, s), q, lp.adapter)
    kv = ad.reshape(k, (1,) + k.shape)
    attn = composed_multi_head_attention(ad.reshape(q, (1,) + q.shape), kv, kv, lp.cross_attn)
    return apply_ln(q + ad.reshape(attn, q.shape), lp.ln_cross), k


def detection_head(q, b: Box, lp, with_identity: bool):
    """Single-query head: (logits [C], refined Box, unit identity [d] or None)."""
    logits = ad.linear(q, lp.head_cls)
    box = apply_delta(b, BoxDelta(*M.mlp(q, lp.head_loc).data[0].tolist()))
    h = None
    if with_identity and lp.head_id is not None:
        ident = M.l2_normalize_rows(M.mlp(q, lp.head_id))
        h = ad.reshape(ident, (ident.shape[-1],))
    return ad.reshape(logits, (logits.shape[-1],)), box, h


def select_topk(logits, k: int) -> list[int]:
    """One frame's top-k rows of [L, C] logits, one scalar sigmoid score per
    row, by descending score; ties go to the lower index."""
    scored = []
    for j, logit in enumerate(np.max(logits, axis=1).tolist()):
        score = 1.0 / (1.0 + math.exp(-logit)) if logit >= 0 else \
            math.exp(logit) / (1.0 + math.exp(logit))
        scored.append((-score, j))
    scored.sort()
    return [j for _, j in scored[:k]]


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
    attn = composed_multi_head_attention(ad.reshape(q, (1, 1, q.shape[-1])), ctx, ctx,
                                         lp.ica_attn)
    return apply_ln(q + ad.reshape(attn, q.shape), lp.ln_ica)


def projected_block_attention(q, ctx, own, p):
    """The projected form of aggregation's context_attention: multi-head
    attention of each row of q [A, d] over its own blocks of the shared
    context ctx [U, s*s, d], own [A, F] holding each row's block indices in
    ascending order -> [A, d]. Keys and values are projected once per
    context block; each row then gathers the keys and values of its own F
    blocks, already split into heads."""
    A, d = q.shape
    u, s2, _ = ctx.shape
    F = own.shape[1]
    h = p.heads
    hd = d // h
    head_blocks = (np.arange(h)[:, None, None] * u + own).reshape(-1)      # [H*A*F]

    def per_row(x):                       # projected [U, s*s, d] -> [H, A, F*s*s, hd]
        x = ad.transpose(ad.reshape(x, (u, s2, h, hd)), (2, 0, 1, 3))
        x = ad.gather_rows(ad.reshape(x, (h * u, s2, hd)), head_blocks)
        return ad.reshape(x, (h, A, F * s2, hd))

    qh = ad.transpose(ad.reshape(ad.linear(ad.reshape(q, (A, 1, d)), p.q), (A, h, hd, 1)),
                      (1, 0, 2, 3))                                         # [H, A, hd, 1]
    logits = ad.reshape(ad.matmul(per_row(ad.matmul(ctx, p.k)), qh),
                        (h, A, 1, F * s2)) * (1.0 / math.sqrt(hd))
    out = ad.matmul(ad.softmax(logits, axis=-1), per_row(ad.linear(ctx, p.v)))  # [H, A, 1, hd]
    out = ad.linear(ad.reshape(ad.transpose(out, (1, 2, 0, 3)), (A, 1, d)), p.out)
    return ad.reshape(out, (A, d))


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


def targets_of(gts) -> Targets:
    """A ground-truth table from per-frame lists of (class_id, Box) or
    (class_id, Box, track_id) tuples; a tuple without a track id gives track
    -1."""
    rows = [(i, g[0], g[1].as_array(), g[2] if len(g) > 2 else -1)
            for i, frame_gts in enumerate(gts) for g in frame_gts]
    frame, cls, box, track = zip(*rows) if rows else ((), (), (), ())
    return Targets(np.array(frame, dtype=np.int64), np.array(cls, dtype=np.int64),
                   np.array(box, dtype=np.float64).reshape(-1, 4), np.array(track, dtype=np.int64))


def loop_targets(clip, idx) -> Targets:
    """ClipSample.targets one (track, frame) pair at a time: the requested
    frames in request order, and within a frame each track with a box there,
    in track order."""
    tr = clip.tracks
    gts = [[] for _ in idx]
    for pos, f in enumerate(idx):
        for k in range(len(tr)):
            if not math.isnan(tr.box[k, f, 0]):
                gts[pos].append((int(tr.cls[k]), Box(*tr.box[k, f].tolist()), int(tr.id[k])))
    return targets_of(gts)


def km_solve(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Shortest-augmenting-path assignment of one n x m matrix, n <= m
    (Crouse, IEEE TAES 2016), one row at a time. Returns (col_of_row,
    row_potentials, col_potentials)."""
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


def assignment_cost(cost, col_of_row) -> float:
    """Exact, order-independent (fsum) cost of taking column col_of_row[i]
    in each row i of a cost matrix."""
    c = np.asarray(cost, dtype=np.float64)
    return math.fsum(c[i, j] for i, j in enumerate(col_of_row))


def frame_cost_matrix(logits, boxes, gt_cls, gt_box) -> np.ndarray:
    """[L, G] pairing costs of one frame, built from the frame's own arrays."""
    x = np.asarray(logits, dtype=np.float64)[:, gt_cls]
    giou_cost, l1 = box_pair_terms(np.asarray(boxes, dtype=np.float64)[:, None],
                                   np.asarray(gt_box, dtype=np.float64)[None, :])
    return (mt.LAMBDA_CLS * mt.focal_loss_values(x, True) + mt.LAMBDA_GIOU * giou_cost
            + mt.LAMBDA_L1 * l1)


def loop_match_frames(logits, boxes, targets: Targets) -> np.ndarray:
    """match_frames one frame at a time: each frame's [G, L] cost solved by
    km_solve."""
    pred = np.zeros(len(targets), dtype=np.int64)
    bounds = np.searchsorted(targets.frame, np.arange(len(logits) + 1))
    for f, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            cost = frame_cost_matrix(logits[f], boxes[f], targets.cls[lo:hi], targets.box[lo:hi])
            pred[lo:hi] = km_solve(cost.T)[0]
    return pred


def matched_columns(matched) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (frame, track, pred) columns contrastive_loss takes, from
    per-frame {track id: query index} dicts, one row per entry."""
    rows = [(i, tid, q) for i, m in enumerate(matched) for tid, q in m.items()]
    return tuple(np.array([r[c] for r in rows], dtype=np.int64) for c in range(3))


def per_layer_clip_loss(layers, targets):
    """training.clip_loss with one set_loss call per decoder layer, each
    contrastive term read from its own layer's call. Returns (total,
    LossParts, [Ly, N] matched query of each target row per layer)."""
    scale = 1.0 / max(1, len(targets))
    parts, terms, pred = tr.LossParts(), [], []
    for layer in layers:
        res = mt.set_loss(layer.logits, layer.boxes_t, layer.boxes, targets)
        terms.append(res.total * scale)
        parts.cls += mt.LAMBDA_CLS * res.cls_term * scale
        parts.giou += mt.LAMBDA_GIOU * res.giou_term * scale
        parts.l1 += mt.LAMBDA_L1 * res.l1_term * scale
        pred.append(res.pred)
        if layer.ident is not None:
            con, pairs = ica.contrastive_loss(layer.ident, targets.frame, targets.track, res.pred)
            if pairs > 0:
                terms.append(con * tr.CONTRASTIVE_WEIGHT)
                parts.con += tr.CONTRASTIVE_WEIGHT * float(con.data)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    parts.total = float(total.data)
    return total, parts, np.stack(pred)


def per_clip_step(batch, cfg, params) -> tr.LossParts:
    """training.batch_step one clip at a time: a forward pass, clip loss and
    backward pass per (frames, targets) clip, each clip's gradients
    accumulating into .grad. Returns the loss parts summed over the clips."""
    parts = tr.LossParts()
    for frames, targets in batch:
        with ad.ComputationTape() as tape:
            loss, clip_parts = tr.clip_loss(M.clip_forward(frames, cfg, params), targets)
        tape.backward(loss)
        for f in fields(tr.LossParts):
            setattr(parts, f.name, getattr(parts, f.name) + getattr(clip_parts, f.name))
    return parts


# ---------------------------------------------------------------------------
# Optimizer, one parameter tensor at a time


@dataclass
class PerTensorAdamW:
    """training.AdamW with a step count and per-name moments that the first
    step creates, each updated from its own tensor's gradient."""

    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - tr.ADAM_BETA1 ** self.t
        bc2 = 1.0 - tr.ADAM_BETA2 ** self.t
        for name, p in params.items():
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m *= tr.ADAM_BETA1
            m += (1.0 - tr.ADAM_BETA1) * p.grad
            v *= tr.ADAM_BETA2
            v += (1.0 - tr.ADAM_BETA2) * p.grad * p.grad
            mhat = m / bc1
            vhat = v / bc2
            p.data -= lr * (mhat / (np.sqrt(vhat) + tr.ADAM_EPS) + tr.WEIGHT_DECAY * p.data)


def per_tensor_clip_gradients(params: dict) -> None:
    """training._clip_gradients rescaling each tensor's gradient in turn."""
    total = 0.0
    for p in params.values():
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > tr.MAX_GRAD_NORM:
        scale = tr.MAX_GRAD_NORM / norm
        for p in params.values():
            p.grad *= scale


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


def loop_interpolated_ap(tp_flags: list[bool], num_gt: int) -> float:
    """All-point interpolated AP with the precision envelope taken one step
    at a time, from the last detection back."""
    if num_gt == 0 or not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    n = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    mrec = np.concatenate(([0.0], tp / num_gt))
    mpre = np.concatenate(([0.0], tp / n))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def loop_evaluate(detections, clips, num_classes: int) -> EvalReport:
    """evaluate() one object at a time: ground truths in a dict keyed by
    (clip, frame, class), one score-sorted record list per class, greedy
    claims one detection at a time, and a per-bucket re-filter of each
    class's claims."""
    gts: dict[tuple[int, int, int], list[list]] = {}      # [box, speed, matched]
    gt_counts: dict[str | None, dict[int, int]] = {lb: {} for lb in (None, *SPEED_LABELS)}
    for c, clip in enumerate(clips):
        tr = clip.tracks
        for cls, label, boxes in zip(tr.cls.tolist(), tr.speed.tolist(), tr.box.tolist()):
            for f, box in enumerate(boxes):
                if not math.isnan(box[0]):
                    gts.setdefault((c, f, cls), []).append([Box(*box), label, False])
                    for lb in (None, label):
                        gt_counts[lb][cls] = gt_counts[lb].get(cls, 0) + 1
    records: dict[int, list] = {}
    order = 0
    for c, clip_dets in enumerate(detections[:len(clips)]):
        for f, frame_dets in enumerate(clip_dets):
            for det in frame_dets:
                if not 0 <= det.class_id < num_classes:
                    raise InputError(f"detection class {det.class_id} out of range")
                records.setdefault(det.class_id, []).append((det.score, order, c, f, det.box))
                order += 1
    claims: dict[int, list[tuple[bool, list | None]]] = {}
    for cls, recs in records.items():
        recs.sort(key=lambda r: (-r[0], r[1]))
        claims[cls] = []
        for _score, _order, c, f, box in recs:
            best, best_e = 0.0, None
            for entry in gts.get((c, f, cls), []):
                v = iou(box, entry[0])
                if v > best:
                    best, best_e = v, entry
            if best < IOU_THRESH:
                claims[cls].append((False, None))
            else:
                claims[cls].append((not best_e[2], best_e))
                best_e[2] = True

    def mean_ap(bucket: str | None) -> tuple[dict[int, float], float]:
        aps = {}
        for cls in sorted(gt_counts[bucket]):
            flags = [tp for tp, entry in claims.get(cls, [])
                     if bucket is None or entry is None or entry[1] == bucket]
            aps[cls] = loop_interpolated_ap(flags, gt_counts[bucket][cls])
        return aps, float(np.mean(list(aps.values()))) if aps else 0.0

    per_class, overall = mean_ap(None)
    return EvalReport(per_class, overall, {lb: mean_ap(lb)[1] for lb in SPEED_LABELS},
                      {lb: sum(gt_counts[lb].values()) for lb in SPEED_LABELS},
                      num_gts=sum(gt_counts[None].values()), num_dets=order)


def loop_extract_detections(last_layer, cfg) -> list[list[M.Detection]]:
    """Per-frame detections one (query, class) slot at a time: every slot
    above the score threshold, its box clipped to the frame, then a stable
    sort by descending score."""
    out = []
    clip_scores = ad.stable_sigmoid(np.asarray(last_layer.logits.data, dtype=np.float64))
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


def window_infer_clip(clip, cfg, params, mode: str = "infer", use_ica: bool = True):
    """infer_clip one t_infer window at a time: a clip_forward per window,
    the last one shorter where the clip does not divide, each window's
    selections in layer order."""
    if not use_ica:
        cfg = replace(cfg, ica_layers=0)
    total = clip.frames.shape[0]
    detections, selections = [], []
    for start in range(0, total, cfg.t_infer):
        stop = min(start + cfg.t_infer, total)
        gts = clip.targets(range(start, stop)) if mode == "oracle_ica" else None
        layers = M.clip_forward(clip.frames[start:stop], cfg, params, oracle_gts=gts)
        detections.extend(M.extract_detections(layers[-1], cfg))
        selections.extend(layer.selection for layer in layers if layer.selection is not None)
    return detections, selections


# ---------------------------------------------------------------------------
# Composed layers


def leaf_grad(t) -> np.ndarray:
    """The gradient backward left on t: zeros where none reached it."""
    return np.zeros_like(t.data) if t.grad is None else t.grad


def composed_linear(x, p):
    return ad.matmul(x, p.w) + p.b


def composed_layer_norm(x, gain, bias):
    mu = ad.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.div(ad.tensor(1.0), ad.sqrt(var + ad.LN_EPS))
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
    return composed_linear(composed_attention(composed_linear(q, p.q), ad.matmul(k, p.k),
                                              composed_linear(v, p.v), p.heads), p.out)


def composed_linear_relu(x, p):
    pre = ad.linear(x, p)
    return ad.mul(pre, ad.tensor(pre.data > 0))


def composed_residual_norm(x, y, ln):
    return composed_layer_norm(x + y, ln.gain, ln.bias)


def composed_self_attention(x, p, ln, clips: int = 1):
    """autodiff.self_attention as reshapes around the composed multi-head
    attention of each clip's [T*L, d] rows and a residual_norm record."""
    t, n, d = x.shape
    rows = ad.reshape(x, (clips, t // clips * n, d))
    out = ad.residual_norm(rows, composed_multi_head_attention(rows, rows, rows, p), ln)
    return ad.reshape(out, x.shape)


def composed_roi_sample(f, boxes: np.ndarray, s: int, queries, adapter):
    """geometry.roi_sample_frame as bilinear_sample, matmul and add records:
    [T, n, s*s, d] samples of [T, h, w, d] maps inside [T, n, 4] boxes,
    plus queries @ adapter."""
    t, h, w, d = f.shape
    n = boxes.shape[1]
    pts = geo.roi_grid_points_batch(boxes.reshape(t * n, 4), s, h, w)
    rois = ad.reshape(bilinear_sample(f, pts.reshape(t, n * s * s, 2)), (t, n, s * s, d))
    return rois + ad.reshape(ad.matmul(queries, adapter), (t, n, s * s, d))


def composed_context_attention(q, ctx, p):
    """context_attention of q [A, d] over ctx [A, n, d] as a chain of
    elementwise primitives and matmuls: each head's key weight folds into
    its query, and its value weight and bias apply after the weighted sum.
    Each matmul is one row's or one (row, head)'s."""
    A, d = q.shape
    h, hd = p.heads, d // p.heads
    qh = ad.reshape(composed_linear(ad.reshape(q, (A, 1, d)), p.q), (A, h, 1, hd)) \
        * (1.0 / math.sqrt(hd))
    wk = ad.transpose(ad.reshape(p.k, (d, h, hd)), (1, 2, 0))                 # [H, hd, d]
    qk = ad.transpose(ad.reshape(ad.matmul(qh, wk), (A, h, d)), (0, 2, 1))    # [A, d, H]
    weights = ad.softmax(ad.transpose(ad.matmul(ctx, qk), (0, 2, 1)), axis=-1)  # [A, H, n]
    mixed = ad.reshape(ad.matmul(weights, ctx), (A, h, 1, d))
    wv = ad.transpose(ad.reshape(p.v.w, (d, h, hd)), (1, 0, 2))               # [H, d, hd]
    out = ad.reshape(ad.matmul(mixed, wv), (A, 1, d)) + p.v.b
    return ad.reshape(composed_linear(out, p.out), (A, d))


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
    takes each frame as its own clip, and aggregation keeps only each
    anchor's own frame. A masked clip then equals its single-frame runs."""
    attend = ad.self_attention

    def frame_batched(queries, p, ln, clips=1):
        return attend(queries, p, ln, len(queries))

    match = ica.identity_match

    def own_frame_only(*args):
        sel = match(*args)
        sel.picks[sel.anchors[:, :1] != np.arange(sel.picks.shape[1])] = -1
        return sel

    monkeypatch.setattr(ad, "self_attention", frame_batched)
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
