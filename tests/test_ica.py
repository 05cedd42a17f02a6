import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid import ica
from clipvid import matching as mt
from clipvid import model as M
from clipvid import synthvid as sv
from clipvid.errors import NumericError
from clipvid.geometry import Box
from oracles import (aggregate, composed_context_attention, contrastive_loss, identity_match,
                     joint_context, leaf_grad, mask_within_frames, matched_columns,
                     oracle_match, projected_block_attention, select_topk, targets_of)


def rows(*vs):
    """A frame's [L, d] float64 array from its rows."""
    return np.array(vs, dtype=float)


def test_select_topk_full_selection_sorted():
    assert ica.select_topk(rows([0.2], [1.5], [-0.3]), 3).tolist() == [1, 0, 2]


def test_select_topk_example():
    # sigmoid scores 0.9 / 0.1 / 0.5 via matching logits
    logits = rows([np.log(9)], [np.log(1 / 9)], [0.0])
    assert set(ica.select_topk(logits, 2)) == {0, 2}


def test_select_topk_tie_break():
    """Equal scores go to the lower index, also where logits that differ
    saturate the sigmoid to 1; each frame of a clip is ranked on its own."""
    logits = np.stack([np.full((4, 1), 0.7), rows([40.0], [-1.0], [50.0], [45.0])])
    assert ica.select_topk(logits, 2).tolist() == [[0, 1], [0, 2]]


@pytest.mark.parametrize("scale", [1.0, 60.0, 800.0])
def test_select_topk_matches_scalar_oracle(rng, scale):
    """Every frame of seeded clips picks the scalar oracle's rows in its
    order, with every other clip's logits rounded to whole numbers (exact
    ties) and, at the larger scales, logits that saturate the sigmoid."""
    for n in range(20):
        T, L, C = rng.integers(1, 6), rng.integers(1, 30), rng.integers(1, 4)
        logits = scale * rng.normal(size=(T, L, C))
        if n % 2:
            logits = np.round(logits)
        k = int(rng.integers(1, L + 1))
        got = ica.select_topk(logits, k)
        assert got.shape == (T, k)
        assert got.tolist() == [select_topk(frame, k) for frame in logits]


def clip(*frames):
    """A [T, L, d] float64 clip from per-frame row lists, each frame padded
    with zero rows to the longest."""
    L = max(len(f) for f in frames)
    return np.stack([np.vstack([f, np.zeros((L - len(f), len(f[0])))]) for f in frames])


def anchor_row(idents, topk, anchor, track_of=None):
    """One anchor's row of identity_match's selection: ({other frame: pick},
    {other frame: dot}, oracle flag)."""
    sel = ica.identity_match(idents, np.array(topk), track_of)
    [a] = np.flatnonzero((sel.anchors == anchor).all(axis=1))
    others = [i for i in range(len(topk)) if i != anchor[0]]
    return ({i: int(sel.picks[a, i]) for i in others},
            {i: float(sel.dots[a, i]) for i in others}, bool(sel.oracle[a]))


def test_identity_match_picks_higher_dot():
    idents = clip(rows([0.6, 0.8]), rows([1.0, 0.0], [0.0, 1.0]))
    picks, dots, _ = anchor_row(idents, [[0, 1], [0, 1]], (0, 0))
    assert picks == {1: 1}
    assert dots[1] == pytest.approx(0.8)


def test_identity_match_self_similarity_best():
    h = np.array([0.36, 0.48, 0.8])
    other = np.array([1.0, 0.0, 0.0])
    idents = clip(rows(h), rows(other, h))
    assert anchor_row(idents, [[0, 1], [0, 1]], (0, 0))[0] == {1: 1}


def test_identity_match_tie_break_lower_index():
    h = np.array([1.0, 0.0])
    idents = clip(rows(h), rows(h, h))
    assert anchor_row(idents, [[0, 1], [0, 1]], (0, 0))[0] == {1: 0}
    assert anchor_row(idents, [[0, 1], [1, 0]], (0, 0))[0] == {1: 0}


def test_identity_match_non_finite_embedding_raises(rng):
    """A NaN embedding in the anchor's or a candidate's frame is a
    NumericError naming that frame, not a pick of -1."""
    topk = np.array([[0, 1]] * 3)
    for bad_frame in (0, 2):
        idents = rng.normal(size=(3, 4, 5))
        idents[bad_frame, 1, 2] = np.nan
        with pytest.raises(NumericError, match=rf"\[{bad_frame}\]"):
            ica.identity_match(idents, topk)
        # The anchor's own frame is never compared, so one frame raises nothing.
        one = ica.identity_match(idents[bad_frame:bad_frame + 1], topk[:1])
        assert one.picks.tolist() == [[0], [1]] and np.isnan(one.dots).all()


def test_identity_match_scale_invariance_via_normalization(rng):
    raw = rng.normal(size=(3, 4))
    hs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    scaled = (raw * 37.5) / np.linalg.norm(raw * 37.5, axis=1, keepdims=True)
    topk = [[0, 1], [0, 1]]
    assert anchor_row(clip(hs[:1], hs[1:]), topk, (0, 0))[0] \
        == anchor_row(clip(scaled[:1], scaled[1:]), topk, (0, 0))[0]


def anchor_frame_idents():
    """Frame 0 holds the anchor at index 2; frame 1 two candidates."""
    return clip(rows([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]), rows([0.0, 1.0], [1.0, 0.0]))


def track_map(T, L, assigned):
    """[T, L] track id of each query from {(frame, query): track}, -1 elsewhere."""
    track_of = np.full((T, L), -1)
    for (i, j), tid in assigned.items():
        track_of[i, j] = tid
    return track_of


def test_oracle_match_same_track_selected():
    picks, _, oracle = anchor_row(anchor_frame_idents(), [[2, 0], [0, 1]], (0, 2),
                                  track_map(2, 3, {(0, 2): 7, (1, 0): 7}))
    assert picks == {1: 0}
    assert oracle


def test_oracle_match_fallback_when_track_absent():
    picks, _, oracle = anchor_row(anchor_frame_idents(), [[2, 0], [0, 1]], (0, 2),
                                  track_map(2, 3, {(0, 2): 7}))
    assert picks == {1: 1}               # learned argmax fallback
    assert oracle


def test_oracle_match_unmatched_anchor_uses_learned():
    idents = clip(rows([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]), rows([1.0, 0.0]))
    picks, _, oracle = anchor_row(idents, [[2], [0]], (0, 2), track_map(2, 3, {(1, 0): 7}))
    assert picks == {1: 0}
    assert not oracle


def hex_picks(sel):
    """A selection as (frame, query, oracle, [(frame, pick, dot hex)]) per
    anchor, over the frames other than the anchor's own."""
    return [(m, j, oracle, [(i, p, float(dots[i]).hex()) for i, p in enumerate(picks) if i != m])
            for (m, j), picks, dots, oracle in zip(sel.anchors.tolist(), sel.picks.tolist(),
                                                   sel.dots.tolist(), sel.oracle.tolist())]


def hex_rows(anchors, rows, oracle):
    """The scalar oracles' {frame: (pick, dot)} rows in hex_picks form."""
    return [(m, j, o, [(i, p, float(d).hex()) for i, (p, d) in sorted(row.items())])
            for (m, j), row, o in zip(anchors, rows, oracle)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 5, 16]), st.booleans(), st.integers(0, 2**32 - 1))
def test_identity_match_equals_scalar_oracle(T, all_candidates, seed):
    """The batched selection equals the per-anchor scalar loop bit for bit,
    with and without track_of: duplicate rows make exact ties, and the
    top-k rows come in descending-score order, not index order."""
    rng = np.random.default_rng(seed)
    L, d = 6, 32
    idents = rng.normal(size=(T, L, d))
    idents /= np.linalg.norm(idents, axis=-1, keepdims=True)
    idents[:, 4] = idents[:, 1]
    idents[T - 1, 5] = idents[0, 2]
    k = L if all_candidates else 1
    scores = rng.normal(size=(T, L))
    topk = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    cands = {i: topk[i].tolist() for i in range(T)}
    anchors = [(m, j) for m in range(T) for j in cands[m]]
    assert hex_picks(ica.identity_match(idents, topk)) == hex_rows(
        anchors, [identity_match(idents, m, j, cands) for m, j in anchors], [False] * len(anchors))

    # Tracks 0..2 sit on random distinct queries, each absent from some frames.
    track_queries = [{tid: int(j) for tid, j in zip(range(3), rng.permutation(L))
                      if rng.random() < 0.7} for _ in range(T)]
    track_of = track_map(T, L, {(i, j): tid for i, tq in enumerate(track_queries)
                                for tid, j in tq.items()})
    tracks = [track_of[m, j] if track_of[m, j] >= 0 else None for m, j in anchors]
    want = hex_rows(anchors, [oracle_match(idents, m, j, tid, track_queries, cands)
                              for (m, j), tid in zip(anchors, tracks)],
                    [tid is not None for tid in tracks])
    assert hex_picks(ica.identity_match(idents, topk, track_of)) == want


def test_forward_dots_equal_scalar_dots_bitexactly():
    """Every dot a seeded 32-bit 16-frame forward records is float(av @ row)
    of the previous layer's float64-cast identities, hex for hex."""
    ad.set_precision(32)
    rng = np.random.default_rng(7)
    cfg = M.ModelConfig().validate()
    params = M.init_model(cfg, rng)
    out = M.clip_forward(rng.random((16, 64, 64, 3)), cfg, params)
    li = next(i for i, layer in enumerate(out) if layer.selection is not None)
    idents = np.asarray(out[li - 1].ident.data, dtype=np.float64)
    sel = out[li].selection
    assert len(sel) == 16 * cfg.ica_topk
    for (m, j), picks, dots in zip(sel.anchors.tolist(), sel.picks.tolist(), sel.dots.tolist()):
        assert picks[m] == j and np.isnan(dots[m])
        assert [v.hex() for i, v in enumerate(dots) if i != m] \
            == [float(idents[m, j] @ idents[i, p]).hex() for i, p in enumerate(picks) if i != m]


def test_oracle_forward_dump_equals_scalar_oracles():
    """The dump of a seeded k=2 oracle_ica forward equals the table rebuilt
    from the scalar oracles, oracle picks outside the top-k (dot nan)
    included."""
    cfg = M.ModelConfig(ica_topk=2).validate()
    params = M.init_model(cfg, np.random.default_rng(1))
    [sample] = sv.generate_dataset(sv.GenConfig(t=5, min_objects=2, max_objects=4), 1, seed=3)
    T = sample.frames.shape[0]
    gts = [sample.frame_gts(i) for i in range(T)]
    out = M.clip_forward(sample.frames, cfg, params, oracle_gts=sample.targets(range(T)))
    lines = []
    for prev, layer in zip(out, out[1:]):
        if layer.selection is None:
            continue
        logits = np.asarray(prev.logits.data, dtype=np.float64)
        idents = np.asarray(prev.ident.data, dtype=np.float64)
        cands = {i: select_topk(logits[i], cfg.ica_topk) for i in range(T)}
        frame_targets = [targets_of([g]) for g in gts]
        track_queries = [dict(zip(ft.track.tolist(), mt.match_frame(
            logits[i], prev.boxes[i], ft.cls, ft.box).pred_of_gt))
            for i, ft in enumerate(frame_targets)]
        for m in range(T):
            for j in cands[m]:
                tid = next((t for t, p in track_queries[m].items() if p == j), None)
                row = oracle_match(idents, m, j, tid, track_queries, cands)
                cells = " ".join(f"{i}:{p}@{d:.6f}" for i, (p, d) in sorted(row.items()))
                lines.append(f"anchor={m},{j} kind={'learned' if tid is None else 'oracle'} "
                             f"{cells}")
    text = ica.dump_matches([layer.selection for layer in out if layer.selection is not None])
    assert text == "\n".join(lines)
    assert "kind=oracle" in text and "@nan" in text


def _layer_params(rng, d=4):
    cfg = M.ModelConfig(num_classes=2, num_queries=2, dim=d, heads=2,
                        decoder_layers=2, roi_size=2, ica_layers=1, ica_topk=2,
                        backbone_channels=(4, 4)).validate()
    params = M.init_model(cfg, rng)
    return params.layers[1]


def test_aggregate_t1_reduces_to_self_region_attention(rng):
    lp = _layer_params(rng)
    region = ad.tensor(rng.normal(size=(1, 2, 4, 4)))
    contrib = ad.tensor(rng.normal(size=(1, 2, 4)))
    q = ad.tensor(rng.normal(size=(1, 4)))
    out = aggregate(q, {0: 0}, [ad.tensor(region.data[0])], [ad.tensor(contrib.data[0])], lp)

    ctx = ica.block_context(np.array([0]), region, contrib, lp.ica_pos)
    assert ctx.shape == (1, 4, 4)
    attn = ad.context_attention(q, ctx, lp.ica_attn)
    direct = ad.multi_head_attention(ad.reshape(q, (1, 1, 4)), ctx, ctx, lp.ica_attn)
    assert_allclose(attn.data, direct.data[0], atol=1e-12)
    want = M.apply_ln(q + attn, lp.ln_ica)
    assert_allclose(out.data, want.data, atol=1e-12)


def test_block_context_row_count(rng):
    """One context block per distinct picked (frame, query), each equal to
    its block of the one-block-at-a-time joint context of every anchor that
    picks it."""
    lp = _layer_params(rng)
    T, L, s2 = 4, 2, 16
    region = ad.tensor(rng.normal(size=(T, L, s2, 4)))
    contrib = ad.tensor(rng.normal(size=(T, L, 4)))
    picks = np.array([[1, 0, 0, 1], [0, 1, 1, 1]])        # anchors (1, 0) and (3, 1)
    blocks, own = np.unique(np.arange(T) * L + picks, return_inverse=True)
    assert blocks.tolist() == [0, 1, 2, 3, 4, 5, 7]        # frame 3's query 1 is shared
    ctx = ica.block_context(blocks, region, contrib, lp.ica_pos)
    assert ctx.shape == (len(blocks), s2, 4)
    for row, mine in zip(picks, own.reshape(2, T)):
        want = joint_context(dict(enumerate(row)), [ad.tensor(r) for r in region.data],
                             [ad.tensor(c) for c in contrib.data], lp.ica_pos)
        assert np.array_equal(ctx.data[mine].reshape(1, T * s2, 4), want.data)


def sublayer_case(T, shared, seed, cfg=None):
    """A 64-bit ICA layer (of cfg, a micro config by default), its
    [T, L, d] query param and a previous layer whose [T, L, s*s, d] region
    is a param; shared makes every identity equal, so every anchor picks
    the same query in each other frame."""
    rng = np.random.default_rng(seed)
    cfg = cfg or M.ModelConfig(num_classes=3, num_queries=5, dim=8, heads=2, decoder_layers=2,
                               roi_size=2, ica_layers=1, ica_topk=2,
                               backbone_channels=(4, 4)).validate()
    L, d, s2 = cfg.num_queries, cfg.dim, cfg.roi_size ** 2
    lp = M.init_model(cfg, rng).layers[-1]
    ident = rng.normal(size=(T, L, d))
    if shared:
        ident[:] = ident[0, 0]
    ident /= np.linalg.norm(ident, axis=-1, keepdims=True)
    centers = rng.uniform(0.3, 0.7, size=(T, L, 2))
    prev = M.LayerOutput(logits=ad.tensor(rng.normal(size=(T, L, cfg.num_classes))),
                         boxes_t=None,
                         boxes=np.concatenate([centers, np.full((T, L, 2), 0.3)], axis=-1),
                         ident=ad.tensor(ident), region=ad.param(rng.normal(size=(T, L, s2, d))))
    gts = [[(c, Box(*rng.uniform(0.3, 0.7, size=2), 0.3, 0.3), tid)
            for tid, c in ((0, 1), (4, 2)) if rng.random() < 0.8] for _ in range(T)]
    return cfg, lp, prev, ad.param(rng.normal(size=(T, L, d))), targets_of(gts)


def attention_grads(lp, *tensors):
    """Copies of the gradients of tensors and of the layer's aggregation
    weights, which are then zeroed."""
    out = [t.grad.copy() for t in tensors]
    for lin in (lp.ica_pos, lp.ica_attn.q, lp.ica_attn.k, lp.ica_attn.v, lp.ica_attn.out):
        out.append(lin.w.grad.copy())
        lin.w.grad.fill(0.0)
    for t in tensors:
        t.grad.fill(0.0)
    return out


@pytest.mark.parametrize("T", [1, 2, 5, 16])
@pytest.mark.parametrize("mode, shared", [("infer", False), ("infer", True),
                                          ("oracle_ica", False), ("within_frame_mask", False)])
def test_ica_sublayer_matches_per_anchor_oracle(T, mode, shared, monkeypatch):
    """The shared-block aggregation equals the one-anchor-at-a-time oracle
    within 1e-12 relative in 64-bit, output and gradients; queries that are
    not anchors pass through unchanged."""
    cfg, lp, prev, queries, gts = sublayer_case(T, shared, seed=T)
    L, d = queries.shape[1:]
    if mode == "within_frame_mask":
        mask_within_frames(monkeypatch)
    with ad.ComputationTape() as tape:
        out, sel = ica.ica_sublayer(queries, prev, lp, cfg,
                                    gts if mode == "oracle_ica" else None)
        weights = np.random.default_rng(0).normal(size=(len(sel), d))
        anchors = sel.anchors[:, 0] * L + sel.anchors[:, 1]
        flat = ad.gather_rows(ad.reshape(out, (T * L, d)), anchors)
        loss = ad.reduce_sum(flat * weights)
    tape.backward(loss)
    got = attention_grads(lp, queries, prev.region)
    if mode == "oracle_ica":
        assert sel.oracle.any()
    if shared and T > 1:
        blocks = np.unique((np.arange(T) * L + sel.picks)[sel.picks >= 0])
        assert len(blocks) < sel.picks.size

    with ad.ComputationTape() as tape:
        region = [ad.reshape(ad.gather_rows(prev.region, [i]), prev.region.shape[1:])
                  for i in range(T)]
        contrib = [ad.reshape(ad.gather_rows(queries, [i]), (L, d)) for i in range(T)]
        rows = [aggregate(ad.gather_rows(contrib[m], [j]),
                          {i: p for i, p in enumerate(picks) if p >= 0}, region, contrib, lp)
                for (m, j), picks in zip(sel.anchors.tolist(), sel.picks.tolist())]
        want = ad.concat(rows, axis=0)
        loss = ad.reduce_sum(want * weights)
    tape.backward(loss)
    pairs = zip([flat.data] + got, [want.data] + attention_grads(lp, queries, prev.region))
    for a, b in pairs:
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    anchor = np.zeros((T, L), dtype=bool)
    anchor[tuple(sel.anchors.T)] = True
    assert np.array_equal(out.data[~anchor], queries.data[~anchor])


@pytest.mark.parametrize("selection", ["learned", "oracle"])
def test_reassociated_attention_matches_the_projected_form(selection, monkeypatch):
    """On a desk-config aggregation layer in 64-bit, folding the key weight
    into the query and applying the value weight after the weighted sum
    matches projecting keys and values within 1e-12 relative: the output,
    and the gradients of the queries, the region and every aggregation
    tensor. The unread key bias gets an exact zero gradient."""
    cfg = M.ModelConfig().validate()
    _, lp, prev, queries, gts = sublayer_case(cfg.t_train, False, seed=3, cfg=cfg)
    weights = np.random.default_rng(0).normal(size=queries.shape)
    lins = (lp.ica_pos, lp.ica_attn.q, lp.ica_attn.k, lp.ica_attn.v, lp.ica_attn.out)
    tensors = [queries, prev.region] + [t for lin in lins for t in (lin.w, lin.b)]

    def run():
        with ad.ComputationTape() as tape:
            out, sel = ica.ica_sublayer(queries, prev, lp, cfg,
                                        gts if selection == "oracle" else None)
        assert sel.oracle.any() == (selection == "oracle")
        tape.backward(ad.reduce_sum(out * weights))
        grads = [leaf_grad(t).copy() for t in tensors]
        for t in tensors:
            t.grad = None
        return [out.data] + grads

    got = run()
    key_bias = 1 + tensors.index(lp.ica_attn.k.b)           # the output comes first
    assert not got[key_bias].any()
    s2 = cfg.roi_size ** 2

    def projected(q, ctx, p):                  # each anchor's blocks, unshared
        blocks = ad.reshape(ctx, (-1, s2, ctx.shape[-1]))
        return projected_block_attention(q, blocks, np.arange(len(blocks)).reshape(len(q), -1),
                                         p)

    monkeypatch.setattr(ad, "context_attention", projected)
    for i, (a, b) in enumerate(zip(got, run())):
        if i != key_bias:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("bits", [32, 64])
def test_ica_forward_matches_the_composed_chain_bitexactly(bits, monkeypatch):
    """On a desk-config aggregation layer, the one context_attention record
    gives the bytes of the composed chain it replaces, in 32 and 64 bits."""
    with ad.precision(bits):
        cfg = M.ModelConfig().validate()
        _, lp, prev, queries, _ = sublayer_case(cfg.t_train, False, seed=3, cfg=cfg)
        fused, _ = ica.ica_sublayer(queries, prev, lp, cfg)
        monkeypatch.setattr(ad, "context_attention", composed_context_attention)
        composed, _ = ica.ica_sublayer(queries, prev, lp, cfg)
    assert fused.data.dtype == composed.data.dtype == np.dtype(f"float{bits}")
    assert np.array_equal(fused.data, composed.data)


@pytest.mark.parametrize("T", [8, 16, 32])
def test_ica_kv_rows_grow_with_distinct_blocks(monkeypatch, T):
    """Hardware-independent cost gate: the context rows each ICA layer of a
    desk-config inference builds, which serve unprojected as its keys and
    values, number at most T*k*s*s, one s*s block per distinct picked
    (frame, query), not T*T*k."""
    ad.set_precision(32)
    cfg = M.ModelConfig().validate()
    params = M.init_model(cfg, np.random.default_rng(0))
    rows = []
    real = ica.block_context

    def counting(*args):
        ctx = real(*args)
        rows.append(ctx.shape[0] * ctx.shape[1])
        return ctx

    monkeypatch.setattr(ica, "block_context", counting)
    M.clip_forward(np.random.default_rng(T).random((T, 64, 64, 3)), cfg, params)
    assert len(rows) == cfg.ica_layers
    assert max(rows) <= T * cfg.ica_topk * cfg.roi_size ** 2


def test_aggregate_zero_value_projection_is_layer_norm(rng):
    lp = _layer_params(rng)
    lp.ica_attn.v.w.data[:] = 0
    lp.ica_attn.v.b.data[:] = 0
    lp.ica_attn.out.w.data[:] = 0
    lp.ica_attn.out.b.data[:] = 0
    region = [ad.tensor(rng.normal(size=(2, 4, 4)))]
    contrib = [ad.tensor(rng.normal(size=(2, 4)))]
    q = ad.tensor(rng.normal(size=(1, 4)))
    out = aggregate(q, {0: 0}, region, contrib, lp)
    want = M.apply_ln(q, lp.ln_ica)
    assert_allclose(out.data, want.data, atol=1e-12)


def test_aggregate_ignores_non_selected_region_features(rng):
    """Zeroing unselected region rows leaves aggregation bit-identical."""
    cfg = M.ModelConfig(num_classes=2, num_queries=3, dim=8, heads=2,
                        decoder_layers=2, roi_size=2, ica_layers=1, ica_topk=1,
                        backbone_channels=(4, 4)).validate()
    params = M.init_model(cfg, np.random.default_rng(5))
    frames = np.random.default_rng(6).random((2, 8, 8, 3))
    out = M.clip_forward(frames, cfg, params)
    selected = {(i, p) for row in out[1].selection.picks.tolist()
                for i, p in enumerate(row)}            # anchors included

    prev = out[0]
    region_z = ad.tensor(prev.region.data.copy())
    for fi in range(region_z.shape[0]):
        for j in range(region_z.shape[1]):
            if (fi, j) not in selected:
                region_z.data[fi, j] = 0.0
    queries = ad.tensor(np.random.default_rng(7).normal(size=(2, 3, 8)))

    lp = params.layers[1]
    prev_zero = M.LayerOutput(logits=prev.logits, boxes_t=prev.boxes_t, boxes=prev.boxes,
                              ident=prev.ident, region=region_z)
    prev_ref = M.LayerOutput(logits=prev.logits, boxes_t=prev.boxes_t, boxes=prev.boxes,
                             ident=prev.ident, region=prev.region)
    out_ref, _ = ica.ica_sublayer(queries, prev_ref, lp, cfg)
    out_zero, _ = ica.ica_sublayer(queries, prev_zero, lp, cfg)
    for a, b in zip(out_ref.data, out_zero.data):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Contrastive loss


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def idents_of(*frames):
    """A clip's [T, L, d] identity tensor from each frame's rows."""
    return ad.tensor(np.stack([rows(*f) for f in frames]))


def test_contrastive_single_candidate_zero():
    idents = idents_of([[1.0, 0.0]], [[0.6, 0.8]])
    loss, pairs = ica.contrastive_loss(idents, *matched_columns([{5: 0}, {5: 0}]))
    assert pairs == 2
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_contrastive_two_frame_closed_form():
    # positive dot 1, one negative with dot 0, both directions
    idents = idents_of([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    loss, pairs = ica.contrastive_loss(idents, *matched_columns([{5: 0}, {5: 0}]))
    assert pairs == 2
    assert float(loss.data) == pytest.approx(0.31326, abs=1e-4)


def test_contrastive_query_permutation_invariance(rng):
    hs = [unit(rng.normal(size=3)) for _ in range(4)]
    l1, _ = ica.contrastive_loss(idents_of(hs[0:2], hs[2:4]), *matched_columns([{5: 0}, {5: 1}]))
    l2, _ = ica.contrastive_loss(idents_of(hs[1::-1], hs[2:4]),
                                 *matched_columns([{5: 1}, {5: 1}]))
    assert float(l1.data) == pytest.approx(float(l2.data), abs=1e-12)


def test_contrastive_zero_pairs_contributes_zero():
    loss, pairs = ica.contrastive_loss(idents_of([[1.0, 0.0]]), *matched_columns([{5: 0}]))
    assert pairs == 0
    assert float(loss.data) == 0.0


@pytest.mark.parametrize("matched, n_pairs", [
    ([{1: 0, 2: 3, 7: 4}, {1: 2, 2: 0}, {2: 1, 1: 4, 9: 0}, {1: 3}], 4 * 3 + 3 * 2),
    ([{1: 0}, {2: 3}, {}, {4: 1}], 0),
], ids=["one_frame_track", "zero_pairs"])
def test_contrastive_matches_per_pair_oracle(rng, matched, n_pairs):
    """The clip-level loss equals the per-pair reference in value and
    gradient; track 7 and 9 (first case) appear in one frame only."""
    raw = rng.normal(size=(4, 5, 6))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    x, y = ad.param(raw), ad.param(raw)
    with ad.ComputationTape() as tape:
        loss, pairs = ica.contrastive_loss(x, *matched_columns(matched))
    tape.backward(loss)
    with ad.ComputationTape() as tape:
        want, want_pairs = contrastive_loss(
            [ad.reshape(ad.gather_rows(y, [i]), (5, 6)) for i in range(4)], matched)
    tape.backward(want)
    assert pairs == want_pairs == n_pairs
    assert float(loss.data) == pytest.approx(float(want.data), rel=1e-12, abs=1e-15)
    assert_allclose(leaf_grad(x), leaf_grad(y), rtol=1e-12, atol=1e-12)


def test_one_hot_embeddings_reproduce_oracle(rng):
    """With per-track one-hot identities, learned matching equals oracle."""
    eye = np.eye(4)
    idents = np.stack([eye[:2] for _ in range(3)])
    topk = np.array([[0, 1]] * 3)
    learned = ica.identity_match(idents, topk)
    oracle = ica.identity_match(idents, topk, np.array([[3, 8]] * 3))
    assert oracle.oracle.all()
    assert np.array_equal(learned.picks, oracle.picks)
    assert np.array_equal(learned.dots, oracle.dots, equal_nan=True)


def test_contrastive_decreases_on_micro_problem(rng):
    """Directly optimizing the loss over free embeddings reduces it."""
    raw = ad.param(rng.normal(size=(2 * 3, 4)))

    def build_idents():
        return ad.reshape(M.l2_normalize_rows(raw), (2, 3, 4))

    matched = [{1: 0, 2: 1}, {1: 2, 2: 0}]
    with ad.ComputationTape() as tape:
        loss0, _ = ica.contrastive_loss(build_idents(), *matched_columns(matched))
    start = float(loss0.data)
    for _ in range(50):
        raw.grad = None
        with ad.ComputationTape() as tape:
            loss, _ = ica.contrastive_loss(build_idents(), *matched_columns(matched))
        tape.backward(loss)
        raw.data -= 0.5 * raw.grad
    assert float(loss.data) < start


def test_dump_matches_format():
    sel = ica.Selection(np.array([[0, 3]]), np.array([[3, 2, 0]]),
                        np.array([[np.nan, 0.5, -0.25]]), np.array([False]))
    text = ica.dump_matches([sel])
    assert "anchor=0,3" in text
    assert "1:2@0.500000" in text
    assert text == "anchor=0,3 kind=learned 1:2@0.500000 2:0@-0.250000"
