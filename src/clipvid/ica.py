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


def joint_context(match: IdentityMatch, region: list[Tensor],
                  contrib_queries: list[Tensor], pos_proj) -> Tensor:
    """Stack the selected region features (ascending frame order, anchor
    frame included) with a per-block embedding projected from the
    contributing query -> [1, T*s*s, d]."""
    frames = sorted(set(match.selected) | {match.anchor_frame})
    blocks = []
    for i in frames:
        j = match.anchor_index if i == match.anchor_frame else match.selected[i]
        block = ad.gather_rows(region[i], [j])                     # [1, s*s, d]
        q = ad.gather_rows(contrib_queries[i], [j])                # [1, d]
        pos = ad.reshape(ad.linear(q, pos_proj), (1, 1, q.shape[-1]))
        blocks.append(block + pos)
    return ad.concat(blocks, axis=1) if len(blocks) > 1 else blocks[0]


def ica_sublayer(frame_queries: list[Tensor], prev_layer, lp, cfg, mode: str,
                 gts=None, within_frame_mask: bool = False,
                 frozen_matches: list[IdentityMatch] | None = None
                 ) -> tuple[list[Tensor], list[IdentityMatch]]:
    """Apply aggregation to the per-frame top-k anchors; other queries pass
    through unchanged. Anchors, scores, and identity embeddings come from the
    previous layer's head; region features are reused from its
    cross-attention. frozen_matches replays earlier selections so finite
    differencing never crosses a discrete decision."""
    from .model import apply_ln

    T = len(frame_queries)
    logits = [np.asarray(t.data, dtype=np.float64) for t in prev_layer.logits]
    idents = [np.asarray(t.data, dtype=np.float64) for t in prev_layer.ident]
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
    stacked_q, stacked_ctx, anchor_pos = [], [], []
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
            ctx = joint_context(match, prev_layer.region, frame_queries, lp.ica_pos)
            stacked_ctx.append(ctx)
            stacked_q.append(ad.reshape(ad.gather_rows(frame_queries[m], [j]), (1, 1, cfg.dim)))
            anchor_pos.append((m, j))

    if not stacked_q:
        return frame_queries, matches
    q = ad.concat(stacked_q, axis=0) if len(stacked_q) > 1 else stacked_q[0]
    ctx = ad.concat(stacked_ctx, axis=0) if len(stacked_ctx) > 1 else stacked_ctx[0]
    attn = ad.multi_head_attention(q, ctx, ctx, lp.ica_attn)
    flat_q = ad.reshape(q, (len(anchor_pos), cfg.dim))
    updated = apply_ln(flat_q + ad.reshape(attn, (len(anchor_pos), cfg.dim)), lp.ln_ica)

    out_queries = list(frame_queries)
    row = 0
    for m in range(T):
        idx = topk[m]
        rows = ad.gather_rows(updated, range(row, row + len(idx)))
        row += len(idx)
        out_queries[m] = ad.row_update(out_queries[m], idx, rows)
    return out_queries, matches


# ---------------------------------------------------------------------------
# Contrastive identity training


def contrastive_loss(idents: list[Tensor], matched: list[dict[int, int]]
                     ) -> tuple[Tensor, int]:
    """Pull matched queries of the same track together across frames.

    idents[i] holds frame i's [L, d] identity embeddings; matched[i] maps
    track id -> query index for frame i (from the set matching). For every
    ordered frame pair of a track, the anchor's positive dot competes
    against its dots with all queries of the other frame. Returns the
    pair-normalized loss and the pair count; zero pairs contribute an exact
    zero.
    """
    T = len(idents)
    track_frames: dict[int, list[int]] = {}
    for i in range(T):
        for tid in matched[i]:
            track_frames.setdefault(tid, []).append(i)

    # pos gathers the anchor row again instead of reusing `anchor`: each
    # use's adjoint then reaches idents[m] as a term of its own, which keeps
    # the float summation order of the identity gradient (and the bytes of
    # 64-bit runs) independent of how the rows are grouped.
    keys_t: dict[int, Tensor] = {}
    terms = []
    pairs = 0
    for tid in sorted(track_frames):
        frames = track_frames[tid]
        if len(frames) < 2:
            continue
        for m in frames:
            anchor = ad.gather_rows(idents[m], [matched[m][tid]])
            for i in frames:
                if i == m:
                    continue
                pos = ad.reduce_sum(ad.mul(ad.gather_rows(idents[m], [matched[m][tid]]),
                                           ad.gather_rows(idents[i], [matched[i][tid]])))
                if i not in keys_t:
                    keys_t[i] = ad.transpose(idents[i], (1, 0))
                logits = ad.matmul(anchor, keys_t[i])
                lse = ad.reshape(ad.logsumexp(logits, axis=-1), ())
                terms.append(lse - pos)
                pairs += 1
    if pairs == 0:
        return ad.tensor(np.zeros(())), 0
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / pairs), pairs


def dump_matches(matches: list[IdentityMatch]) -> str:
    """Line-delimited diagnostic table of the selection decisions."""
    lines = []
    for m in matches:
        picks = " ".join(f"{i}:{m.selected[i]}@{m.dots[i]:.6f}"
                         for i in sorted(m.selected))
        lines.append(f"anchor={m.anchor_frame},{m.anchor_index} kind={m.provenance} {picks}")
    return "\n".join(lines)
