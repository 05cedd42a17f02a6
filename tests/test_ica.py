import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid import ica
from clipvid import model as M
from clipvid.errors import NumericError
from oracles import aggregate, contrastive_loss, identity_match, joint_context, oracle_match


def rows(*vs):
    """A frame's [L, d] float64 array from its rows."""
    return np.array(vs, dtype=float)


def test_select_topk_full_selection_sorted():
    assert ica.select_topk(rows([0.2], [1.5], [-0.3]), 3) == [1, 0, 2]


def test_select_topk_example():
    # sigmoid scores 0.9 / 0.1 / 0.5 via matching logits
    logits = rows([np.log(9)], [np.log(1 / 9)], [0.0])
    assert set(ica.select_topk(logits, 2)) == {0, 2}


def test_select_topk_tie_break():
    assert ica.select_topk(np.full((4, 1), 0.7), 2) == [0, 1]


def clip(*frames):
    """A [T, L, d] float64 clip from per-frame row lists, each frame padded
    with zero rows to the longest."""
    L = max(len(f) for f in frames)
    return np.stack([np.vstack([f, np.zeros((L - len(f), len(f[0])))]) for f in frames])


def match_one(idents, anchor_frame, anchor_index, candidates):
    [m] = ica.identity_match(idents, [(anchor_frame, anchor_index)], candidates)
    return m


def test_identity_match_picks_higher_dot():
    idents = clip(rows([0.6, 0.8]), rows([1.0, 0.0], [0.0, 1.0]))
    m = match_one(idents, 0, 0, {1: [0, 1]})
    assert m.selected == {1: 1}
    assert m.dots[1] == pytest.approx(0.8)


def test_identity_match_self_similarity_best():
    h = np.array([0.36, 0.48, 0.8])
    other = np.array([1.0, 0.0, 0.0])
    idents = clip(rows(h), rows(other, h))
    assert match_one(idents, 0, 0, {1: [0, 1]}).selected == {1: 1}


def test_identity_match_tie_break_lower_index():
    h = np.array([1.0, 0.0])
    idents = clip(rows(h), rows(h, h))
    assert match_one(idents, 0, 0, {1: [0, 1]}).selected == {1: 0}
    assert match_one(idents, 0, 0, {1: [1, 0]}).selected == {1: 0}


def test_identity_match_non_finite_embedding_raises(rng):
    """A NaN embedding in the anchor's or a candidate's frame is a
    NumericError naming that frame, not a pick of -1."""
    cands = {i: [0, 1] for i in range(3)}
    for bad_frame in (0, 2):
        idents = rng.normal(size=(3, 4, 5))
        idents[bad_frame, 1, 2] = np.nan
        with pytest.raises(NumericError, match=rf"\[{bad_frame}\]"):
            ica.identity_match(idents, [(0, 1), (1, 0)], cands)
        # The anchor's own frame is never compared, so one frame raises nothing.
        one = idents[bad_frame:bad_frame + 1]
        assert ica.identity_match(one, [(0, 1)], {0: [0, 1]})[0].selected == {}


def test_identity_match_scale_invariance_via_normalization(rng):
    raw = rng.normal(size=(3, 4))
    hs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    scaled = (raw * 37.5) / np.linalg.norm(raw * 37.5, axis=1, keepdims=True)
    assert match_one(clip(hs[:1], hs[1:]), 0, 0, {1: [0, 1]}).selected \
        == match_one(clip(scaled[:1], scaled[1:]), 0, 0, {1: [0, 1]}).selected


def anchor_frame_idents():
    """Frame 0 holds the anchor at index 2; frame 1 two candidates."""
    return clip(rows([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]), rows([0.0, 1.0], [1.0, 0.0]))


def oracle_one(idents, anchor_frame, anchor_index, track, track_queries, candidates):
    learned = match_one(idents, anchor_frame, anchor_index, candidates)
    return ica.oracle_match(idents, learned, track, track_queries, candidates)


def test_oracle_match_same_track_selected():
    m = oracle_one(anchor_frame_idents(), 0, 2, 7, [{}, {7: 0}], {1: [0, 1]})
    assert m.selected == {1: 0}
    assert m.provenance == "oracle"


def test_oracle_match_fallback_when_track_absent():
    m = oracle_one(anchor_frame_idents(), 0, 2, 7, [{}, {}], {1: [0, 1]})
    assert m.selected == {1: 1}          # learned argmax fallback


def test_oracle_match_unmatched_anchor_uses_learned():
    idents = clip(rows([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]), rows([1.0, 0.0]))
    m = oracle_one(idents, 0, 2, None, [{}, {}], {1: [0]})
    assert m.provenance == "learned"


def hex_picks(matches):
    """Selections with every dot as its exact hex form."""
    return [(m.anchor_frame, m.anchor_index, m.provenance, sorted(m.selected.items()),
             [(i, float(v).hex()) for i, v in sorted(m.dots.items())]) for m in matches]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 5, 16]), st.booleans(), st.integers(0, 2**32 - 1))
def test_identity_match_equals_scalar_oracle(T, all_candidates, seed):
    """The batched selection equals the per-anchor scalar loop bit for bit
    in infer and oracle_ica modes: duplicate rows make exact ties, and the
    candidate lists come in descending-score order, not index order."""
    rng = np.random.default_rng(seed)
    L, d = 6, 32
    idents = rng.normal(size=(T, L, d))
    idents /= np.linalg.norm(idents, axis=-1, keepdims=True)
    idents[:, 4] = idents[:, 1]
    idents[T - 1, 5] = idents[0, 2]
    k = L if all_candidates else 1
    scores = rng.normal(size=(T, L))
    cands = {i: np.argsort(-scores[i], kind="stable")[:k].tolist() for i in range(T)}
    anchors = [(m, j) for m in range(T) for j in cands[m]]
    learned = ica.identity_match(idents, anchors, cands)
    assert hex_picks(learned) == hex_picks(
        [identity_match(idents, m, j, cands) for m, j in anchors])

    # Tracks 0..2 sit on random distinct queries, each absent from some frames.
    track_queries = [{tid: int(j) for tid, j in zip(range(3), rng.permutation(L))
                      if rng.random() < 0.7} for _ in range(T)]
    tracks = [{j: tid for tid, j in tq.items()} for tq in track_queries]
    got = [ica.oracle_match(idents, lm, tracks[m].get(j), track_queries, cands)
           for lm, (m, j) in zip(learned, anchors)]
    want = [oracle_match(idents, m, j, tracks[m].get(j), track_queries, cands)
            for m, j in anchors]
    assert hex_picks(got) == hex_picks(want)


def test_forward_dots_equal_scalar_dots_bitexactly():
    """Every dot a seeded 32-bit 16-frame forward records is float(av @ row)
    of the previous layer's float64-cast identities, hex for hex."""
    ad.set_precision(32)
    rng = np.random.default_rng(7)
    cfg = M.ModelConfig().validate()
    params = M.init_model(cfg, rng)
    out = M.clip_forward(rng.random((16, 64, 64, 3)), cfg, params)
    li = next(i for i, layer in enumerate(out.layers) if layer.matches)
    idents = np.asarray(out.layers[li - 1].ident.data, dtype=np.float64)
    matches = out.layers[li].matches
    assert len(matches) == 16 * cfg.ica_topk
    for m in matches:
        av = idents[m.anchor_frame, m.anchor_index]
        assert len(m.dots) == 15
        assert [v.hex() for v in m.dots.values()] \
            == [float(av @ idents[i, j]).hex() for i, j in m.selected.items()]


def _layer_params(rng, d=4):
    cfg = M.ModelConfig(num_classes=2, num_queries=2, dim=d, heads=2,
                        decoder_layers=2, roi_size=2, ica_layers=1, ica_topk=2,
                        backbone_stride=4, backbone_channels=(4, 4)).validate()
    params = M.init_model(cfg, rng)
    return params.layers[1]


def test_aggregate_t1_reduces_to_self_region_attention(rng):
    lp = _layer_params(rng)
    region = ad.tensor(rng.normal(size=(1, 2, 4, 4)))
    contrib = ad.tensor(rng.normal(size=(1, 2, 4)))
    q = ad.tensor(rng.normal(size=(1, 4)))
    match = ica.IdentityMatch(0, 0, {}, {})
    out = aggregate(q, match, [ad.tensor(region.data[0])], [ad.tensor(contrib.data[0])], lp)

    ctx = ica.joint_context([match], region, contrib, lp.ica_pos)
    assert ctx.shape == (1, 4, 4)
    q3 = ad.reshape(q, (1, 1, 4))
    attn = ad.multi_head_attention(q3, ctx, ctx, lp.ica_attn)
    want = M.apply_ln(q + ad.reshape(attn, (1, 4)), lp.ln_ica)
    assert_allclose(out.data, want.data, atol=1e-12)


def test_joint_context_row_count(rng):
    lp = _layer_params(rng)
    T, s2 = 4, 16
    region = ad.tensor(rng.normal(size=(T, 2, s2, 4)))
    contrib = ad.tensor(rng.normal(size=(T, 2, 4)))
    match = ica.IdentityMatch(1, 0, {0: 1, 2: 0, 3: 1}, {})
    ctx = ica.joint_context([match], region, contrib, lp.ica_pos)
    assert ctx.shape == (1, T * s2, 4)
    # every anchor's blocks, one stacked context each, equal the one-block-at-a-time form
    other = ica.IdentityMatch(3, 1, {0: 0, 1: 1, 2: 1}, {})
    both = ica.joint_context([match, other], region, contrib, lp.ica_pos)
    for a, m in enumerate((match, other)):
        want = joint_context(m, [ad.tensor(r) for r in region.data],
                             [ad.tensor(c) for c in contrib.data], lp.ica_pos)
        assert np.array_equal(both.data[a], want.data[0])


def test_aggregate_zero_value_projection_is_layer_norm(rng):
    lp = _layer_params(rng)
    lp.ica_attn.v.w.data[:] = 0
    lp.ica_attn.v.b.data[:] = 0
    lp.ica_attn.out.w.data[:] = 0
    lp.ica_attn.out.b.data[:] = 0
    region = [ad.tensor(rng.normal(size=(2, 4, 4)))]
    contrib = [ad.tensor(rng.normal(size=(2, 4)))]
    q = ad.tensor(rng.normal(size=(1, 4)))
    out = aggregate(q, ica.IdentityMatch(0, 0, {}, {}), region, contrib, lp)
    want = M.apply_ln(q, lp.ln_ica)
    assert_allclose(out.data, want.data, atol=1e-12)


def test_aggregate_ignores_non_selected_region_features(rng):
    """Zeroing unselected region rows leaves aggregation bit-identical."""
    cfg = M.ModelConfig(num_classes=2, num_queries=3, dim=8, heads=2,
                        decoder_layers=2, roi_size=2, ica_layers=1, ica_topk=1,
                        backbone_stride=4, backbone_channels=(4, 4)).validate()
    params = M.init_model(cfg, np.random.default_rng(5))
    frames = np.random.default_rng(6).random((2, 8, 8, 3))
    out = M.clip_forward(frames, cfg, params, mode="train")
    selected = {(m.anchor_frame, m.anchor_index) for m in out.layers[1].matches}
    for m in out.layers[1].matches:
        selected |= {(i, j) for i, j in m.selected.items()}

    prev = out.layers[0]
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
    out_ref, _ = ica.ica_sublayer(queries, prev_ref, lp, cfg, "train")
    out_zero, _ = ica.ica_sublayer(queries, prev_zero, lp, cfg, "train")
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
    loss, pairs = ica.contrastive_loss(idents, [{5: 0}, {5: 0}])
    assert pairs == 2
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_contrastive_two_frame_closed_form():
    # positive dot 1, one negative with dot 0, both directions
    idents = idents_of([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    loss, pairs = ica.contrastive_loss(idents, [{5: 0}, {5: 0}])
    assert pairs == 2
    assert float(loss.data) == pytest.approx(0.31326, abs=1e-4)


def test_contrastive_query_permutation_invariance(rng):
    hs = [unit(rng.normal(size=3)) for _ in range(4)]
    l1, _ = ica.contrastive_loss(idents_of(hs[0:2], hs[2:4]), [{5: 0}, {5: 1}])
    l2, _ = ica.contrastive_loss(idents_of(hs[1::-1], hs[2:4]), [{5: 1}, {5: 1}])
    assert float(l1.data) == pytest.approx(float(l2.data), abs=1e-12)


def test_contrastive_zero_pairs_contributes_zero():
    loss, pairs = ica.contrastive_loss(idents_of([[1.0, 0.0]]), [{5: 0}])
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
        loss, pairs = ica.contrastive_loss(x, matched)
    tape.backward(loss)
    with ad.ComputationTape() as tape:
        want, want_pairs = contrastive_loss(
            [ad.reshape(ad.gather_rows(y, [i]), (5, 6)) for i in range(4)], matched)
    tape.backward(want)
    assert pairs == want_pairs == n_pairs
    assert float(loss.data) == pytest.approx(float(want.data), rel=1e-12, abs=1e-15)
    assert_allclose(x.grad, y.grad, rtol=1e-12, atol=1e-12)


def test_one_hot_embeddings_reproduce_oracle(rng):
    """With per-track one-hot identities, learned matching equals oracle."""
    tracks = [3, 8]
    eye = np.eye(4)
    idents = np.stack([eye[:2] for _ in range(3)])
    cands = {i: [0, 1] for i in range(3)}
    track_queries = [{3: 0, 8: 1} for _ in range(3)]
    for anchor_j, tid in enumerate(tracks):
        learned = match_one(idents, 0, anchor_j, cands)
        oracle = ica.oracle_match(idents, learned, tid, track_queries, cands)
        assert learned.selected == oracle.selected


def test_contrastive_decreases_on_micro_problem(rng):
    """Directly optimizing the loss over free embeddings reduces it."""
    raw = ad.param(rng.normal(size=(2 * 3, 4)))

    def build_idents():
        return ad.reshape(M.l2_normalize_rows(raw), (2, 3, 4))

    matched = [{1: 0, 2: 1}, {1: 2, 2: 0}]
    with ad.ComputationTape() as tape:
        loss0, _ = ica.contrastive_loss(build_idents(), matched)
    start = float(loss0.data)
    for _ in range(50):
        raw.zero_grad()
        with ad.ComputationTape() as tape:
            loss, _ = ica.contrastive_loss(build_idents(), matched)
        tape.backward(loss)
        raw.data -= 0.5 * raw.grad
    assert float(loss.data) < start


def test_dump_matches_format():
    m = ica.IdentityMatch(0, 3, {1: 2, 2: 0}, {1: 0.5, 2: -0.25})
    text = ica.dump_matches([m])
    assert "anchor=0,3" in text
    assert "1:2@0.500000" in text
