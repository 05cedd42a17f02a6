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
from .errors import StateError


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


def identity_match(idents: list, anchor_frame: int, anchor_index: int,
                   candidates: dict[int, list[int]]) -> IdentityMatch:
    """Pick the most identity-similar candidate in every other frame.

    idents[i] holds frame i's [L, d] float64 identity embeddings (None when
    the layer has no identity head); candidates maps a frame to the query
    indices eligible there."""
    for i in {anchor_frame, *candidates}:
        if idents[i] is None:
            raise StateError(f"frame {i} has no identity embeddings")
    av = idents[anchor_frame][anchor_index]
    selected: dict[int, int] = {}
    dots: dict[int, float] = {}
    for i in sorted(candidates):
        if i == anchor_frame:
            continue
        best_j, best_dot = -1, -np.inf
        for j in candidates[i]:
            d = float(av @ idents[i][j])
            if d > best_dot or (d == best_dot and j < best_j):
                best_j, best_dot = j, d
        selected[i] = best_j
        dots[i] = best_dot
    return IdentityMatch(anchor_frame, anchor_index, selected, dots)


def oracle_match(idents: list, anchor_frame: int, anchor_index: int,
                 anchor_track: int | None, track_queries: list[dict[int, int]],
                 candidates: dict[int, list[int]]) -> IdentityMatch:
    """Ground-truth-guided selection: in every other frame take the query
    assigned to the anchor's track; fall back to learned matching for the
    anchor itself or frames where the track is absent."""
    learned = identity_match(idents, anchor_frame, anchor_index, candidates)
    if anchor_track is None:
        return learned
    selected: dict[int, int] = {}
    dots: dict[int, float] = {}
    av = idents[anchor_frame][anchor_index]
    for i in sorted(candidates):
        if i == anchor_frame:
            continue
        j = track_queries[i].get(anchor_track)
        if j is None:
            selected[i] = learned.selected[i]
            dots[i] = learned.dots[i]
            continue
        selected[i] = j
        dots[i] = float(av @ idents[i][j]) if j in candidates[i] else float("nan")
    return IdentityMatch(anchor_frame, anchor_index, selected, dots, "oracle")


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
    logits = np.asarray(prev_layer.logits.data, dtype=np.float64)
    idents = np.asarray(prev_layer.ident.data, dtype=np.float64)
    if frozen_matches is not None:
        topk = [[] for _ in range(T)]
        for fm in frozen_matches:
            topk[fm.anchor_frame].append(fm.anchor_index)
    else:
        topk = [select_topk(logits[i], cfg.ica_topk) for i in range(T)]
    candidates = dict(enumerate(topk))

    track_queries: list[dict[int, int]] = []
    anchor_tracks: list[dict[int, int]] = []
    if mode == "oracle_ica":
        cost_cfg = mt.MatchCostConfig()
        for i in range(T):
            frame_gts = gts[i]
            tq: dict[int, int] = {}
            at: dict[int, int] = {}
            if frame_gts:
                assignment = mt.match_frame(
                    logits[i], prev_layer.boxes[i],
                    [(c, b) for c, b, _tid in frame_gts], cost_cfg)
                for j, (cls_id, box, tid) in enumerate(frame_gts):
                    tq[tid] = assignment.pred_of_gt[j]
                    at[assignment.pred_of_gt[j]] = tid
            track_queries.append(tq)
            anchor_tracks.append(at)

    matches: list[IdentityMatch] = []
    frozen_iter = iter(frozen_matches) if frozen_matches is not None else None
    for m in range(T):
        for j in topk[m]:
            if frozen_iter is not None:
                match = next(frozen_iter)
            elif within_frame_mask:
                match = IdentityMatch(m, j, {}, {})
            elif mode == "oracle_ica":
                match = oracle_match(idents, m, j, anchor_tracks[m].get(j),
                                     track_queries, candidates)
            else:
                match = identity_match(idents, m, j, candidates)
            matches.append(match)

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
