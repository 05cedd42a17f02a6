"""Identity-consistent temporal aggregation.

Each high-scoring query (anchor) selects, in every other frame of its clip,
the query whose identity embedding is closest; the anchor cross-attends
over the adapted region features of its picks. In a stack of clips each
anchor selects only within its own clip, and one Selection covers the
stack. Anchors share picks, so the context is built once per distinct
(frame, query) block, each anchor gathers its own, and one
autodiff.context_attention record, which projects no keys or values,
attends over them.
Identity embeddings are trained contrastively from the set-matching
assignments, each clip's pairs weighted by one over that clip's pair
count. Selection is discrete and never differentiated through.
"""

from __future__ import annotations

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
    anchors and the T frames of each anchor's clip."""

    anchors: np.ndarray      # [A, 2] (stack frame, query index), frame-major, score-descending
    picks: np.ndarray        # [A, T] chosen query per frame of the anchor's clip, the anchor
                             # itself in its own frame
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
                   track_of: np.ndarray | None = None, clips: int = 1) -> Selection:
    """Make every frame's top-k queries anchors; each anchor picks, in every
    other frame of its clip, the top-k query with the largest identity dot,
    ties to the lower index.

    idents holds the [B*T, L, d] float64 identity embeddings of B = clips
    stacked clips of T frames and topk [B*T, k] each frame's query indices
    by descending score; anchors name their stack frame, picks the frames of
    the anchor's own clip. With track_of [B*T, L] (each query's
    ground-truth track, -1 for none), an anchor with a track instead picks
    its track's query in every frame of its clip where that track is
    assigned. Raises NumericError when a cross-frame dot is not finite,
    naming the frames whose embeddings are not."""
    F, k = topk.shape
    T = F // clips
    anchors = np.stack([np.repeat(np.arange(F), k), topk.reshape(-1)], axis=1)
    af, aj = anchors.T
    clip = af // T
    cand = np.sort(topk, axis=1).reshape(clips, T, k)
    blocks = np.take_along_axis(idents.reshape(clips, T, *idents.shape[1:]),
                                cand[..., None], axis=2)                  # [B, T, k, d]
    # One vector dot per cell, so every dot is bit-identical to
    # float(av @ row) (a gemm over the same rows is not).
    av = idents[af, aj].reshape(clips, T * k, 1, 1, -1)
    dots = np.vecdot(av, blocks[:, None]).reshape(-1, T, k)                # [A, T, k]
    own = np.arange(T)[None, :] == (af % T)[:, None]    # an anchor's own frame is not compared
    if not (np.isfinite(dots).all(axis=-1) | own).all():
        bad = np.flatnonzero(~np.isfinite(idents).all(axis=(1, 2))).tolist()
        raise NumericError(f"non-finite identity dots; frames with non-finite embeddings: {bad}")
    picks = cand[clip[:, None], np.arange(T), np.argmax(dots, axis=-1)]    # first maximum
    oracle = np.zeros(len(anchors), dtype=bool)
    if track_of is not None:
        track = track_of[af, aj]
        oracle = track >= 0
        on_track = ((track_of.reshape(clips, T, -1)[clip] == track[:, None, None])
                    & oracle[:, None, None])                               # [A, T, L]
        picks = np.where(on_track.any(axis=-1), on_track.argmax(axis=-1), picks)
    slot = cand[clip] == picks[..., None]                                  # [A, T, k]
    picked = np.take_along_axis(dots, slot.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return Selection(anchors, np.where(own, aj[:, None], picks),
                     np.where(own | ~slot.any(axis=-1), np.nan, picked), oracle)


def block_context(blocks: np.ndarray, region: Tensor, flat: Tensor,
                  pos_proj) -> Tensor:
    """Context rows of the distinct picked blocks, flat indices t*L + j:
    each block's region feature plus an embedding projected from its
    contributing query -> [U, s*s, d]. region is [T, L, s*s, d], flat the
    [T*L, d] queries."""
    t, n, s2, d = region.shape
    rows = ad.gather_rows(ad.reshape(region, (t * n, s2, d)), blocks)         # [U, s*s, d]
    return rows + ad.mlp(ad.gather_rows(flat, blocks[:, None]), (pos_proj,))


def ica_sublayer(queries: Tensor, prev_layer, lp, cfg, oracle_gts: Targets | None = None,
                 clips: int = 1) -> tuple[Tensor, Selection]:
    """Apply aggregation to the per-frame top-k anchors of the [B*T, L, d]
    queries of B = clips stacked clips; other queries pass through
    unchanged, and an anchor aggregates only its own clip's frames.
    Anchors, scores, and identity embeddings come from the previous layer's
    head; region features are reused from its cross-attention. With
    oracle_gts, the stack's ground-truth table, the previous layer's
    predictions are matched to it and an anchor matched to a track picks
    that track's queries. Returns the queries and one Selection over the
    stack, which is held (autodiff.hold)."""
    F, L, d = queries.shape

    def select() -> Selection:
        logits = np.asarray(prev_layer.logits.data, dtype=np.float64)
        track_of = None
        if oracle_gts is not None:
            track_of = np.full((F, L), -1)        # per frame: query -> assigned track id
            pred = mt.match_frames(logits, prev_layer.boxes, oracle_gts)
            track_of[oracle_gts.frame, pred] = oracle_gts.track
        return identity_match(np.asarray(prev_layer.ident.data, dtype=np.float64),
                              select_topk(logits, cfg.ica_topk), track_of, clips)
    selection = ad.hold(select)

    anchors = (selection.anchors[:, 0] * L + selection.anchors[:, 1]).reshape(F, -1)   # [F, k]
    picks = selection.picks
    T = picks.shape[1]
    picked = selection.anchors[:, :1] // T * T + np.arange(T)     # [A, T] stack frame of each pick
    # Each anchor's picked blocks are consecutive entries of the inverse.
    blocks, own = np.unique((picked * L + picks).reshape(-1), return_inverse=True)
    flat = ad.reshape(queries, (F * L, d))
    ctx = block_context(blocks, prev_layer.region, flat, lp.ica_pos)
    ctx = ad.reshape(ad.gather_rows(ctx, own), anchors.shape + (-1, d))     # [F, k, T*s*s, d]
    q = ad.gather_rows(flat, anchors)                                       # [F, k, d]
    updated = ad.residual_norm(q, ad.context_attention(q, ctx, lp.ica_attn), lp.ln_ica)
    return ad.reshape(ad.row_update(flat, anchors, updated), (F, L, d)), selection


# ---------------------------------------------------------------------------
# Contrastive identity training


def contrastive_loss(ident: Tensor, frame: np.ndarray, track: np.ndarray,
                     pred: np.ndarray, clips: int = 1) -> tuple[Tensor, int]:
    """Pull matched queries of the same track together across frames.

    ident holds the [B*T, L, d] identity embeddings of B = clips stacked
    clips; row n of the ground-truth columns frame, track and pred says
    that query pred[n] of stack frame frame[n] is matched to track track[n]
    (from the set matching). For every ordered frame pair of a track within
    a clip, the anchor's positive dot competes against its dots with all
    queries of the other frame. Pairs run in (clip, track, anchor frame,
    other frame) order. Returns the sum over clips of each clip's
    pair-normalized loss, from one batched [B, T*L, T*L] similarity, and
    the pair count; zero pairs contribute an exact zero.
    """
    F, L, d = ident.shape
    T = F // clips
    order = np.lexsort((frame, track, frame // T))
    f, k, q = frame[order], track[order], pred[order]
    c = f // T
    anchor, other = np.nonzero((c[:, None] == c[None, :]) & (k[:, None] == k[None, :])
                               & (f[:, None] != f[None, :]))
    pairs = len(anchor)
    if pairs == 0:
        return ad.tensor(np.zeros(())), 0
    weight = 1.0 / np.bincount(c[anchor], minlength=clips)[c[anchor]]     # 1 / the clip's pairs
    # Pair row of the [B*T*L*T, L] similarity view, and its positive column.
    rows = (f[anchor] * L + q[anchor]) * T + f[other] % T
    x = ad.reshape(ident, (clips, T * L, d))
    sim = ad.matmul(x, ad.transpose(x, (0, 2, 1)))                         # [B, T*L, T*L]
    logits = ad.gather_rows(ad.reshape(sim, (F * L * T, L)), rows)          # [pairs, L]
    pos = ad.gather_rows(ad.reshape(logits, (pairs * L,)), np.arange(pairs) * L + q[other])
    return ad.reduce_sum((ad.logsumexp(logits, axis=-1) - pos) * weight), pairs


def dump_matches(selections: list[Selection]) -> str:
    """Line-delimited diagnostic table of the selection decisions: one line
    per anchor, its frame counted within its clip, with its pick and dot in
    every other frame it aggregates."""
    lines = []
    for sel in selections:
        T = sel.picks.shape[1]
        for (m, j), picks, dots, oracle in zip(sel.anchors.tolist(), sel.picks.tolist(),
                                                sel.dots.tolist(), sel.oracle.tolist()):
            cells = " ".join(f"{i}:{p}@{dots[i]:.6f}" for i, p in enumerate(picks)
                             if i != m % T)
            lines.append(f"anchor={m % T},{j} kind={'oracle' if oracle else 'learned'} {cells}")
    return "\n".join(lines)
