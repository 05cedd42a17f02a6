"""Identity-consistent temporal aggregation.

Each high-scoring query (anchor) selects, in every other frame, the query
whose identity embedding is closest; the anchor cross-attends over the
adapted region features of its picks. Anchors share picks, so the context
is built once per distinct (frame, query) block, each anchor gathers its
own, and the attention projects no keys or values (own_block_attention).
Identity embeddings are trained contrastively from the set-matching
assignments. Selection is discrete and never differentiated through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import matching as mt
from .autodiff import Tensor
from .errors import NumericError
from .synthvid import Targets


@dataclass
class Selection:
    """One aggregation layer's cross-frame selection, as arrays over its A
    anchors and the clip's T frames."""

    anchors: np.ndarray      # [A, 2] (frame, query index), frame-major, score-descending
    picks: np.ndarray        # [A, T] chosen query per frame, the anchor itself in its
                             # own frame; -1 marks a frame left out of the context
    dots: np.ndarray         # [A, T] float64 identity dot of each pick; NaN in the
                             # anchor's own frame and for an oracle pick outside the top-k
    oracle: np.ndarray       # [A] bool: the picks follow the anchor's ground-truth track

    def __len__(self) -> int:
        return len(self.anchors)


def select_topk(logits: np.ndarray, k: int) -> np.ndarray:
    """Each frame's indices of the k rows of [..., L, C] logits with the
    largest max-class sigmoid score, as [..., k] by descending score; ties
    go to the lower index."""
    scores = ad.stable_sigmoid(logits.max(axis=-1))
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def identity_match(idents: np.ndarray, topk: np.ndarray,
                   track_of: np.ndarray | None = None) -> Selection:
    """Make every frame's top-k queries anchors; each anchor picks, in every
    other frame, the top-k query with the largest identity dot, ties to
    the lower index.

    idents holds the clip's [T, L, d] float64 identity embeddings and topk
    [T, k] each frame's query indices by descending score. With track_of
    [T, L] (each query's ground-truth track, -1 for none), an anchor with a
    track instead picks its track's query in every frame where that track
    is assigned. Raises NumericError when a cross-frame dot is not finite,
    naming the frames whose embeddings are not."""
    T, k = topk.shape
    anchors = np.stack([np.repeat(np.arange(T), k), topk.reshape(-1)], axis=1)
    af, aj = anchors.T
    cand = np.sort(topk, axis=1)                                            # [T, k]
    # Stacked [1, d] @ [d, 1] products: one vector dot per cell, so every dot
    # is bit-identical to float(av @ row) (a gemm over the same rows is not).
    dots = (idents[af, aj][:, None, None, None, :]
            @ idents[np.arange(T)[:, None], cand][None, ..., None])[..., 0, 0]  # [A, T, k]
    own = np.arange(T)[None, :] == af[:, None]    # an anchor's own frame is not compared
    if not (np.isfinite(dots).all(axis=-1) | own).all():
        bad = np.flatnonzero(~np.isfinite(idents).all(axis=(1, 2))).tolist()
        raise NumericError(f"non-finite identity dots; frames with non-finite embeddings: {bad}")
    picks = cand[np.arange(T), np.argmax(dots, axis=-1)]                     # first maximum
    oracle = np.zeros(len(anchors), dtype=bool)
    if track_of is not None:
        track = track_of[af, aj]
        oracle = track >= 0
        on_track = (track_of == track[:, None, None]) & oracle[:, None, None]   # [A, T, L]
        picks = np.where(on_track.any(axis=-1), on_track.argmax(axis=-1), picks)
    slot = cand == picks[..., None]                                         # [A, T, k]
    picked = np.take_along_axis(dots, slot.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return Selection(anchors, np.where(own, aj[:, None], picks),
                     np.where(own | ~slot.any(axis=-1), np.nan, picked), oracle)


def block_context(blocks: np.ndarray, region: Tensor, queries: Tensor,
                  pos_proj) -> Tensor:
    """Context rows of the distinct picked blocks, flat indices t*L + j:
    each block's region feature plus an embedding projected from its
    contributing query -> [U, s*s, d]. region is [T, L, s*s, d], queries
    [T, L, d]."""
    t, n, s2, d = region.shape
    rows = ad.gather_rows(ad.reshape(region, (t * n, s2, d)), blocks)         # [U, s*s, d]
    contrib = ad.reshape(ad.gather_rows(ad.reshape(queries, (t * n, d)), blocks),
                         (len(blocks), 1, d))
    return rows + ad.linear(contrib, pos_proj)


def own_block_attention(q: Tensor, ctx: Tensor, p: ad.MHAParams) -> Tensor:
    """Multi-head attention of each row of q [A, d] over its own context
    rows ctx [A, n, d] -> [A, d], projecting no keys or values: each head's
    key weight folds into its query (the key bias, a per-head logit
    constant, cancels in the softmax and is not read), and its value weight
    and bias apply after the weighted sum. Each matmul is one row's or one
    (row, head)'s, so no row changes another's bits."""
    A, d = q.shape
    h, hd = p.heads, d // p.heads
    qh = ad.reshape(ad.linear(ad.reshape(q, (A, 1, d)), p.q), (A, h, 1, hd)) * (1.0 / math.sqrt(hd))
    wk = ad.transpose(ad.reshape(p.k.w, (d, h, hd)), (1, 2, 0))               # [H, hd, d]
    qk = ad.transpose(ad.reshape(ad.matmul(qh, wk), (A, h, d)), (0, 2, 1))    # [A, d, H]
    # Transpose the logits, not ctx: an axis-1 softmax over [A, n, H] is slower.
    weights = ad.softmax(ad.transpose(ad.matmul(ctx, qk), (0, 2, 1)), axis=-1)  # [A, H, n]
    mixed = ad.reshape(ad.matmul(weights, ctx), (A, h, 1, d))
    wv = ad.transpose(ad.reshape(p.v.w, (d, h, hd)), (1, 0, 2))               # [H, d, hd]
    out = ad.reshape(ad.matmul(mixed, wv), (A, 1, d)) + p.v.b
    return ad.reshape(ad.linear(out, p.out), (A, d))


def ica_sublayer(queries: Tensor, prev_layer, lp, cfg, oracle_gts: Targets | None = None,
                 frozen_selection: Selection | None = None
                 ) -> tuple[Tensor, Selection]:
    """Apply aggregation to the per-frame top-k anchors of [T, L, d]
    queries; other queries pass through unchanged. Anchors, scores, and
    identity embeddings come from the previous layer's head; region
    features are reused from its cross-attention. With oracle_gts, the
    clip's ground-truth table, the previous layer's predictions are matched
    to it and an anchor matched to a track picks that track's queries.
    frozen_selection replays an earlier selection so finite differencing
    never crosses a discrete decision."""
    T, L, d = queries.shape
    selection = frozen_selection
    if selection is None:
        logits = np.asarray(prev_layer.logits.data, dtype=np.float64)
        topk = select_topk(logits, cfg.ica_topk)
        track_of = None
        if oracle_gts is not None:
            track_of = np.full((T, L), -1)        # per frame: query -> assigned track id
            pred = mt.match_frames(logits, prev_layer.boxes, oracle_gts)
            track_of[oracle_gts.frame, pred] = oracle_gts.track
        selection = identity_match(np.asarray(prev_layer.ident.data, dtype=np.float64),
                                   topk, track_of)

    anchors = selection.anchors[:, 0] * L + selection.anchors[:, 1]
    picks = selection.picks
    # Each anchor's F picked blocks are F consecutive entries of the inverse.
    blocks, own = np.unique((np.arange(T) * L + picks)[picks >= 0], return_inverse=True)
    ctx = block_context(blocks, prev_layer.region, queries, lp.ica_pos)
    ctx = ad.reshape(ad.gather_rows(ctx, own), (len(anchors), -1, d))        # [A, F*s*s, d]
    flat = ad.reshape(queries, (T * L, d))
    q = ad.gather_rows(flat, anchors)                                       # [A, d]
    attn = own_block_attention(q, ctx, lp.ica_attn)
    updated = ad.layer_norm(q + attn, lp.ln_ica.gain, lp.ln_ica.bias)
    return ad.reshape(ad.row_update(flat, anchors, updated), (T, L, d)), selection


# ---------------------------------------------------------------------------
# Contrastive identity training


def contrastive_loss(ident: Tensor, frame: np.ndarray, track: np.ndarray,
                     pred: np.ndarray) -> tuple[Tensor, int]:
    """Pull matched queries of the same track together across frames.

    ident holds the clip's [T, L, d] identity embeddings; row n of the
    ground-truth columns frame, track and pred says that query pred[n] of
    frame frame[n] is matched to track track[n] (from the set matching).
    For every ordered frame pair of a track, the anchor's positive dot
    competes against its dots with all queries of the other frame. Pairs
    run in (track, anchor frame, other frame) order. Returns the
    pair-normalized loss and the pair count; zero pairs contribute an
    exact zero.
    """
    T, L, d = ident.shape
    order = np.lexsort((frame, track))
    f, k, q = frame[order], track[order], pred[order]
    anchor, other = np.nonzero((k[:, None] == k[None, :]) & (f[:, None] != f[None, :]))
    pairs = len(anchor)
    if pairs == 0:
        return ad.tensor(np.zeros(())), 0
    # Pair row of the [T*L*T, L] similarity view, and its positive column.
    rows = (f[anchor] * L + q[anchor]) * T + f[other]
    flat = ad.reshape(ident, (T * L, d))
    sim = ad.matmul(flat, ad.transpose(flat, (1, 0)))                      # [T*L, T*L]
    logits = ad.gather_rows(ad.reshape(sim, (T * L * T, L)), rows)          # [pairs, L]
    pos = ad.gather_rows(ad.reshape(logits, (pairs * L,)), np.arange(pairs) * L + q[other])
    return ad.reduce_sum(ad.logsumexp(logits, axis=-1) - pos) * (1.0 / pairs), pairs


def dump_matches(selections: list[Selection]) -> str:
    """Line-delimited diagnostic table of the selection decisions: one line
    per anchor with its pick and dot in every other frame it aggregates."""
    lines = []
    for sel in selections:
        for (m, j), picks, dots, oracle in zip(sel.anchors.tolist(), sel.picks.tolist(),
                                                sel.dots.tolist(), sel.oracle.tolist()):
            cells = " ".join(f"{i}:{p}@{dots[i]:.6f}" for i, p in enumerate(picks)
                             if i != m and p >= 0)
            lines.append(f"anchor={m},{j} kind={'oracle' if oracle else 'learned'} {cells}")
    return "\n".join(lines)
