"""Identity-consistent temporal aggregation.

Each high-scoring query (anchor) selects, in every other frame, the query
whose identity embedding is closest; their adapted region features are
stacked into a joint context the anchor cross-attends over. Identity
embeddings are trained contrastively from the set-matching assignments.
Selection is discrete and never differentiated through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import matching as mt
from .autodiff import Tensor
from .errors import NumericError


@dataclass
class IdentityMatch:
    """Cross-frame query selection for one anchor."""

    anchor_frame: int
    anchor_index: int
    selected: dict[int, int]          # other frame -> chosen query index
    dots: dict[int, float]
    provenance: str = "learned"       # "learned" | "oracle"


def select_topk(logits: np.ndarray, k: int) -> list[int]:
    """Indices of the k rows of [L, C] logits with the largest max-class
    sigmoid score, ordered by descending score; ties go to the lower index."""
    scored = []
    for j, logit in enumerate(np.max(logits, axis=1).tolist()):
        score = 1.0 / (1.0 + math.exp(-logit)) if logit >= 0 else \
            math.exp(logit) / (1.0 + math.exp(logit))
        scored.append((-score, j))
    scored.sort()
    return [j for _, j in scored[:k]]


def identity_match(idents: np.ndarray, anchors: list[tuple[int, int]],
                   candidates: dict[int, list[int]]) -> list[IdentityMatch]:
    """For every (frame, query index) anchor, pick the most identity-similar
    candidate in every other frame; ties go to the lower index.

    idents holds the clip's [T, L, d] float64 identity embeddings;
    candidates maps a frame to its eligible query indices, the same number
    in every frame. Raises NumericError when a cross-frame dot is not
    finite, naming the frames whose embeddings are not."""
    order = sorted(candidates)
    frames = np.array(order, dtype=np.int64)
    cand = np.sort(np.array([candidates[i] for i in order], dtype=np.int64), axis=1)   # [F, k]
    af, aj = np.array(anchors, dtype=np.int64).reshape(-1, 2).T
    # Stacked [1, d] @ [d, 1] products: one vector dot per cell, so every dot
    # is bit-identical to float(av @ row) (a gemm over the same rows is not).
    dots = (idents[af, aj][:, None, None, None, :]
            @ idents[frames[:, None], cand][None, ..., None])[..., 0, 0]     # [A, F, k]
    own = frames[None, :] == af[:, None]          # an anchor's own frame is not compared
    if not (np.isfinite(dots).all(axis=-1) | own).all():
        bad = np.flatnonzero(~np.isfinite(idents).all(axis=(1, 2))).tolist()
        raise NumericError(f"non-finite identity dots; frames with non-finite embeddings: {bad}")
    best = np.argmax(dots, axis=-1)                                         # first maximum
    picks = cand[np.arange(len(order)), best].tolist()
    best_dots = np.take_along_axis(dots, best[..., None], axis=-1)[..., 0].tolist()
    return [IdentityMatch(m, j, {i: picks[a][f] for f, i in enumerate(order) if i != m},
                          {i: best_dots[a][f] for f, i in enumerate(order) if i != m})
            for a, (m, j) in enumerate(anchors)]


def oracle_match(idents: np.ndarray, learned: IdentityMatch, anchor_track: int | None,
                 track_queries: list[dict[int, int]],
                 candidates: dict[int, list[int]]) -> IdentityMatch:
    """Ground-truth-guided selection: in every other frame take the query
    assigned to the anchor's track; keep the learned pick for an anchor
    without a track or frames where the track is absent."""
    if anchor_track is None:
        return learned
    selected, dots = dict(learned.selected), dict(learned.dots)
    av = idents[learned.anchor_frame, learned.anchor_index]
    for i in selected:
        j = track_queries[i].get(anchor_track)
        if j is not None:
            selected[i] = j
            dots[i] = float(av @ idents[i, j]) if j in candidates[i] else float("nan")
    return IdentityMatch(learned.anchor_frame, learned.anchor_index, selected, dots, "oracle")


def joint_context(matches: list[IdentityMatch], region: Tensor, queries: Tensor,
                  pos_proj) -> Tensor:
    """Per anchor, stack the selected region features (ascending frame
    order, anchor frame included), each plus an embedding projected from
    its contributing query -> [A, F*s*s, d]. region is [T, L, s*s, d],
    queries [T, L, d]; every match covers the same number F of frames."""
    t, n, s2, d = region.shape
    idx = np.array([[i * n + (m.anchor_index if i == m.anchor_frame else m.selected[i])
                     for i in sorted(set(m.selected) | {m.anchor_frame})]
                    for m in matches]).reshape(-1)
    blocks = ad.gather_rows(ad.reshape(region, (t * n, s2, d)), idx)         # [A*F, s*s, d]
    # As [A*F, 1, d], each block's projection is the same single-row matmul
    # as a one-block call, so stacking keeps the context bit-exact.
    contrib = ad.reshape(ad.gather_rows(ad.reshape(queries, (t * n, d)), idx), (len(idx), 1, d))
    return ad.reshape(blocks + ad.linear(contrib, pos_proj), (len(matches), -1, d))


def ica_sublayer(queries: Tensor, prev_layer, lp, cfg, mode: str,
                 gts=None, within_frame_mask: bool = False,
                 frozen_matches: list[IdentityMatch] | None = None
                 ) -> tuple[Tensor, list[IdentityMatch]]:
    """Apply aggregation to the per-frame top-k anchors of [T, L, d]
    queries; other queries pass through unchanged. Anchors, scores, and
    identity embeddings come from the previous layer's head; region
    features are reused from its cross-attention. frozen_matches replays
    earlier selections so finite differencing never crosses a discrete
    decision."""
    from .model import apply_ln

    T, L, d = queries.shape
    if frozen_matches is not None:
        matches = list(frozen_matches)
    else:
        logits = np.asarray(prev_layer.logits.data, dtype=np.float64)
        topk = [select_topk(logits[i], cfg.ica_topk) for i in range(T)]
        pairs = [(m, j) for m in range(T) for j in topk[m]]
        if within_frame_mask:
            matches = [IdentityMatch(m, j, {}, {}) for m, j in pairs]
        else:
            idents = np.asarray(prev_layer.ident.data, dtype=np.float64)
            candidates = dict(enumerate(topk))
            matches = identity_match(idents, pairs, candidates)
            if mode == "oracle_ica":
                track_queries: list[dict[int, int]] = []     # per frame: track id -> query
                for i, frame_gts in enumerate(gts):
                    pred = mt.match_frame(
                        logits[i], prev_layer.boxes[i], [(c, b) for c, b, _tid in frame_gts],
                        mt.MatchCostConfig()).pred_of_gt if frame_gts else []
                    track_queries.append({tid: p for (_c, _b, tid), p in zip(frame_gts, pred)})
                anchor_tracks = [{p: tid for tid, p in tq.items()} for tq in track_queries]
                matches = [oracle_match(idents, m,
                                        anchor_tracks[m.anchor_frame].get(m.anchor_index),
                                        track_queries, candidates) for m in matches]

    if not matches:
        return queries, matches
    anchors = [m.anchor_frame * L + m.anchor_index for m in matches]
    ctx = joint_context(matches, prev_layer.region, queries, lp.ica_pos)
    flat = ad.reshape(queries, (T * L, d))
    q = ad.gather_rows(flat, anchors)                                       # [A, d]
    attn = ad.multi_head_attention(ad.reshape(q, (len(anchors), 1, d)), ctx, ctx, lp.ica_attn)
    updated = apply_ln(q + ad.reshape(attn, (len(anchors), d)), lp.ln_ica)
    return ad.reshape(ad.row_update(flat, anchors, updated), (T, L, d)), matches


# ---------------------------------------------------------------------------
# Contrastive identity training


def contrastive_loss(ident: Tensor, matched: list[dict[int, int]]) -> tuple[Tensor, int]:
    """Pull matched queries of the same track together across frames.

    ident holds the clip's [T, L, d] identity embeddings; matched[i] maps
    track id -> query index for frame i (from the set matching). For every
    ordered frame pair of a track, the anchor's positive dot competes
    against its dots with all queries of the other frame. Returns the
    pair-normalized loss and the pair count; zero pairs contribute an exact
    zero.
    """
    T, L, d = ident.shape
    track_frames: dict[int, list[int]] = {}
    for i in range(T):
        for tid in matched[i]:
            track_frames.setdefault(tid, []).append(i)

    rows, cols = [], []      # pair row of the [T*L*T, L] similarity view; positive column
    for tid in sorted(track_frames):
        frames = track_frames[tid]
        if len(frames) < 2:
            continue
        for m in frames:
            anchor = m * L + matched[m][tid]
            for i in frames:
                if i != m:
                    rows.append(anchor * T + i)
                    cols.append(matched[i][tid])
    pairs = len(rows)
    if pairs == 0:
        return ad.tensor(np.zeros(())), 0
    flat = ad.reshape(ident, (T * L, d))
    sim = ad.matmul(flat, ad.transpose(flat, (1, 0)))                      # [T*L, T*L]
    logits = ad.gather_rows(ad.reshape(sim, (T * L * T, L)), rows)          # [pairs, L]
    pos = ad.gather_rows(ad.reshape(logits, (pairs * L,)), np.arange(pairs) * L + cols)
    return ad.reduce_sum(ad.logsumexp(logits, axis=-1) - pos) * (1.0 / pairs), pairs


def dump_matches(matches: list[IdentityMatch]) -> str:
    """Line-delimited diagnostic table of the selection decisions."""
    lines = []
    for m in matches:
        picks = " ".join(f"{i}:{m.selected[i]}@{m.dots[i]:.6f}"
                         for i in sorted(m.selected))
        lines.append(f"anchor={m.anchor_frame},{m.anchor_index} kind={m.provenance} {picks}")
    return "\n".join(lines)
