import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipvid import autodiff as ad
from clipvid import geometry as geo
from clipvid import gradcheck_suite as gs
from clipvid import model as M
from clipvid import synthvid as sv
from clipvid import training as tr
from clipvid.errors import ConfigError, DimensionError
from clipvid.geometry import Box
from oracles import (adapt_region_feature, apply_ln, box_array, composed_multi_head_attention,
                     detection_head, guided_cross_attention, leaf_grad, loop_extract_detections,
                     mask_within_frames)


def micro_cfg(**kw):
    base = dict(num_classes=2, t_train=2, t_infer=2, num_queries=3, dim=8,
                heads=2, decoder_layers=2, roi_size=2, ica_layers=1,
                ica_topk=2, backbone_channels=(4, 4))
    base.update(kw)
    return M.ModelConfig(**base).validate()


def desk_cfg(**kw):
    base = dict()
    base.update(kw)
    return M.ModelConfig(**base).validate()


def test_config_validation():
    with pytest.raises(ConfigError):
        M.ModelConfig(dim=30, heads=4).validate()
    with pytest.raises(ConfigError):
        M.ModelConfig(ica_topk=99).validate()
    with pytest.raises(ConfigError):
        M.ModelConfig(ica_layers=99).validate()
    assert M.ModelConfig.paper_scale().validate().backbone_stride == 16


def test_config_round_trip(tmp_path):
    cfg = micro_cfg(score_thresh=0.25)
    path = tmp_path / "cfg.txt"
    M.save_config(cfg, path)
    loaded = M.load_config(path)
    assert loaded == cfg


@pytest.mark.parametrize("key", ["ica_all_candidates", "fixed_queries", "encoder_layers",
                                 "backbone_stride"])
def test_retired_config_key_is_an_unknown_field(tmp_path, key):
    """Fields ModelConfig no longer has, backbone_stride included (it is
    derived from backbone_channels), are refused like any other unknown key,
    whatever their value."""
    path = tmp_path / "old.config.txt"
    M.save_config(M.ModelConfig(), path)
    path.write_text(path.read_text() + f"{key}=0\n")
    with pytest.raises(ConfigError, match=f"unknown field '{key}'"):
        M.load_config(path)


@pytest.mark.parametrize("depth", range(1, 7))
def test_every_valid_ica_depth_runs_as_written(depth):
    """Each ica_layers in 0..decoder_layers either fails validation or runs
    exactly that many aggregation layers: the last ones, which is_ica_layer
    marks and which each make a selection in one forward pass. The first
    layer has no earlier identity head, so ica_layers == decoder_layers is
    refused."""
    frames = np.random.default_rng(0).random((2, 8, 8, 3))
    for ica_layers in range(depth + 1):
        if 0 < ica_layers == depth:
            with pytest.raises(ConfigError, match="ica_layers"):
                micro_cfg(decoder_layers=depth, ica_layers=ica_layers)
            continue
        cfg = micro_cfg(decoder_layers=depth, ica_layers=ica_layers)
        marked = [li for li in range(depth) if cfg.is_ica_layer(li)]
        assert marked == list(range(depth - ica_layers, depth))
        layers = M.clip_forward(frames, cfg, M.init_model(cfg, np.random.default_rng(0)))
        assert [li for li, out in enumerate(layers) if out.selection is not None] == marked


MICRO_PARAMETER_NAMES = """
backbone.conv0.w backbone.conv0.b backbone.conv1.w backbone.conv1.b backbone.proj.w
backbone.proj.b
query_embed
layer0.self_attn.q.w layer0.self_attn.q.b layer0.self_attn.k
layer0.self_attn.v.w layer0.self_attn.v.b layer0.self_attn.out.w layer0.self_attn.out.b
layer0.ln_self.gain layer0.ln_self.bias
layer0.cross_attn.q.w layer0.cross_attn.q.b layer0.cross_attn.k
layer0.cross_attn.v.w layer0.cross_attn.v.b layer0.cross_attn.out.w layer0.cross_attn.out.b
layer0.ln_cross.gain layer0.ln_cross.bias
layer0.adapter
layer0.ffn1.w layer0.ffn1.b
layer0.ffn2.w layer0.ffn2.b
layer0.ln_ffn.gain layer0.ln_ffn.bias
layer0.head_cls.w layer0.head_cls.b
layer0.head_loc0.w layer0.head_loc0.b
layer0.head_loc1.w layer0.head_loc1.b
layer0.head_loc2.w layer0.head_loc2.b
layer0.head_id0.w layer0.head_id0.b
layer0.head_id1.w layer0.head_id1.b
layer1.self_attn.q.w layer1.self_attn.q.b layer1.self_attn.k
layer1.self_attn.v.w layer1.self_attn.v.b layer1.self_attn.out.w layer1.self_attn.out.b
layer1.ln_self.gain layer1.ln_self.bias
layer1.cross_attn.q.w layer1.cross_attn.q.b layer1.cross_attn.k
layer1.cross_attn.v.w layer1.cross_attn.v.b layer1.cross_attn.out.w layer1.cross_attn.out.b
layer1.ln_cross.gain layer1.ln_cross.bias
layer1.adapter
layer1.ffn1.w layer1.ffn1.b
layer1.ffn2.w layer1.ffn2.b
layer1.ln_ffn.gain layer1.ln_ffn.bias
layer1.head_cls.w layer1.head_cls.b
layer1.head_loc0.w layer1.head_loc0.b
layer1.head_loc1.w layer1.head_loc1.b
layer1.head_loc2.w layer1.head_loc2.b
layer1.ica_attn.q.w layer1.ica_attn.q.b layer1.ica_attn.k
layer1.ica_attn.v.w layer1.ica_attn.v.b layer1.ica_attn.out.w layer1.ica_attn.out.b
layer1.ln_ica.gain layer1.ln_ica.bias
layer1.ica_pos.w layer1.ica_pos.b
""".split()


def test_named_parameters_pin_checkpoint_names_and_order():
    """Checkpoint names, and the order gradient clipping sums in."""
    params = M.init_model(gs.micro_config(), np.random.default_rng(0))
    assert list(M.named_parameters(params)) == MICRO_PARAMETER_NAMES
    assert len(MICRO_PARAMETER_NAMES) == 88


def test_backbone_shape_contract(rng):
    cfg = desk_cfg()
    params = M.init_model(cfg, rng)
    f, m = M.backbone(rng.random((2, 32, 32, 3)), cfg, params)
    assert f.shape == (2, 4, 4, 32)
    assert m.shape == (2, 16, 32)


def test_backbone_determinism(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    frame = rng.random((2, 8, 8, 3))
    f1, _ = M.backbone(frame, cfg, params)
    f2, _ = M.backbone(frame, cfg, params)
    assert np.array_equal(f1.data, f2.data)


def test_backbone_rejects_indivisible(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    with pytest.raises(ConfigError):
        M.backbone(rng.random((1, 10, 8, 3)), cfg, params)


def test_adaptive_queries_uniform_attention(rng):
    m = ad.tensor(rng.normal(size=(2, 4, 8)))
    e = ad.tensor(np.zeros((3, 8)))
    out = M.adaptive_queries(m, e)
    for t in range(2):
        assert_allclose(out.data[t], np.broadcast_to(m.data[t].mean(axis=0), (3, 8)),
                        atol=1e-12)


def test_adaptive_queries_saturation_picks_row():
    m = ad.tensor(np.eye(4)[None])
    e = ad.tensor(100.0 * np.eye(4)[[2]])
    out = M.adaptive_queries(m, e)
    assert_allclose(out.data[0], m.data[0][[2]], atol=1e-10)


def test_adaptive_queries_shape_contract(rng):
    out = M.adaptive_queries(ad.tensor(rng.normal(size=(3, 16, 32))),
                             ad.tensor(rng.normal(size=(8, 32))))
    assert out.shape == (3, 8, 32)


def self_attention(queries, lp):
    """The clip-wide self-attention of one clip, as clip_forward runs it."""
    return ad.self_attention(queries, lp.self_attn, lp.ln_self)


def test_extended_self_attention_t1_reduction(rng):
    """A one-frame clip's self-attention is the projected multi-head
    attention of its queries, residual and layer norm, bit for bit."""
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    lp = params.layers[0]
    q = ad.tensor(rng.normal(size=(1, 3, 8)))
    direct = apply_ln(q + composed_multi_head_attention(q, q, q, lp.self_attn), lp.ln_self)
    via = self_attention(q, lp)
    assert np.array_equal(via.data, direct.data)


def test_extended_self_attention_zero_value_projection(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    lp = params.layers[0]
    lp.self_attn.v.w.data[:] = 0
    lp.self_attn.v.b.data[:] = 0
    lp.self_attn.out.w.data[:] = 0
    lp.self_attn.out.b.data[:] = 0
    qs = ad.tensor(rng.normal(size=(2, 3, 8)))
    out = self_attention(qs, lp)
    for q, o in zip(qs.data, out.data):
        want = apply_ln(ad.tensor(q), lp.ln_self)
        assert_allclose(o, want.data, atol=1e-12)


def test_extended_self_attention_matches_per_definition_oracle(rng):
    """Batched clip-wide attention equals a literal per-query evaluation."""
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    lp = params.layers[0]
    qs = ad.tensor(rng.normal(size=(2, 2, 8)))
    out = self_attention(qs, lp)

    allq = qs.data.reshape(4, 8)
    p = lp.self_attn

    def lin(x, pp):
        return x @ pp.w.data + pp.b.data

    d, heads = 8, p.heads
    hd = d // heads
    for t in range(2):
        for j in range(2):
            qrow = qs.data[t, j:j + 1]
            qh = lin(qrow, p.q).reshape(1, heads, hd).transpose(1, 0, 2)
            kh = (allq @ p.k.data).reshape(4, heads, hd).transpose(1, 0, 2)
            vh = lin(allq, p.v).reshape(4, heads, hd).transpose(1, 0, 2)
            ctx = []
            for h in range(heads):
                logits = qh[h] @ kh[h].T / math.sqrt(hd)
                w = np.exp(logits - logits.max())
                w = w / w.sum()
                ctx.append(w @ vh[h])
            attn = lin(np.concatenate(ctx, axis=1), p.out)
            pre = qrow + attn
            mu = pre.mean()
            var = pre.var()
            want = (pre - mu) / np.sqrt(var + ad.LN_EPS) * lp.ln_self.gain.data \
                + lp.ln_self.bias.data
            assert_allclose(out.data[t, j], want[0], atol=1e-6)


def test_adapt_region_feature_zero_adapter(rng):
    k = ad.tensor(rng.normal(size=(4, 8)))
    q = ad.tensor(rng.normal(size=(1, 8)))
    out = adapt_region_feature(k, q, ad.tensor(np.zeros((8, 32))))
    assert_allclose(out.data, k.data, atol=1e-15)


def test_adapt_region_feature_zero_query(rng):
    k = ad.tensor(rng.normal(size=(4, 8)))
    w = ad.tensor(rng.normal(size=(8, 32)))
    out = adapt_region_feature(k, ad.tensor(np.zeros((1, 8))), w)
    assert_allclose(out.data, k.data, atol=1e-15)


def test_adapt_region_feature_scalar_oracle(rng):
    s, d = 2, 2
    k = rng.normal(size=(s * s, d))
    q = rng.normal(size=(1, d))
    w = rng.normal(size=(d, s * s * d))
    out = adapt_region_feature(ad.tensor(k), ad.tensor(q), ad.tensor(w)).data
    flat = q[0] @ w
    for cell in range(s * s):
        for c in range(d):
            assert out[cell, c] == pytest.approx(k[cell, c] + flat[cell * d + c],
                                                 abs=1e-12)


def test_guided_cross_attention_constant_field(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    lp = params.layers[0]
    lp.adapter.data[:] = 0.0
    f = ad.tensor(np.full((4, 4, 8), 1.3))
    q = ad.tensor(rng.normal(size=(1, 8)))
    q1, k1 = guided_cross_attention(q, Box(0.3, 0.3, 0.4, 0.4), f, lp, 2)
    q2, k2 = guided_cross_attention(q, Box(0.7, 0.7, 0.2, 0.2), f, lp, 2)
    # constant field: value rows identical, so attention weights are moot
    assert_allclose(q1.data, q2.data, atol=1e-10)
    boxes = np.array([[[0.3, 0.3, 0.4, 0.4], [0.7, 0.7, 0.2, 0.2]]])
    both, _ = M.guided_cross_attention(ad.reshape(ad.concat([q, q]), (1, 2, 8)), boxes,
                                       ad.reshape(f, (1, 4, 4, 8)), lp, 2)
    assert_allclose(both.data[0], np.concatenate([q1.data, q2.data]), atol=1e-10)


def test_guided_cross_attention_full_frame_identity(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    lp = params.layers[0]
    grid = rng.normal(size=(2, 2, 8))
    q = ad.tensor(rng.normal(size=(1, 8)))
    _, k = guided_cross_attention(q, Box(0.5, 0.5, 1.0, 1.0), ad.tensor(grid), lp, 2)
    adapted = grid.reshape(4, 8) + (q.data @ lp.adapter.data).reshape(4, 8)
    assert_allclose(k.data, adapted, atol=1e-10)
    _, region = M.guided_cross_attention(ad.reshape(q, (1, 1, 8)), geo.FULL_FRAME[None, None],
                                         ad.tensor(grid[None]), lp, 2)
    assert_allclose(region.data[0, 0], adapted, atol=1e-10)


def test_detection_head_contracts(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    lp = params.layers[0]
    lp.head_id = (ad.init_linear(rng, 8, 8), ad.init_linear(rng, 8, 8))
    q = ad.tensor(rng.normal(size=(1, 8)))
    ref = np.array([[0.5, 0.5, 0.5, 0.5]])
    logits, box, h = detection_head(q, Box(*ref[0]), lp, True)
    assert logits.shape == (2,)
    assert np.linalg.norm(h.data) == pytest.approx(1.0, abs=1e-5)
    logits_f, _, boxes_f, ident_f = M.detection_head(ad.reshape(q, (1, 1, 8)), ref[None],
                                                     lp, True)
    assert_allclose(logits_f.data[0, 0], logits.data, atol=1e-12)
    assert_allclose(boxes_f[0, 0], box_array(box), atol=1e-12)
    assert_allclose(ident_f.data[0, 0], h.data, atol=1e-12)
    for layer in lp.head_loc:
        layer.w.data[:] = 0
        layer.b.data[:] = 0
    _, box2, _ = detection_head(q, Box(*ref[0]), lp, False)
    assert box_array(box2) == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-9)


@pytest.mark.parametrize("clips", [0, 2])
def test_clip_forward_rejects_a_stack_that_does_not_split_into_clips(rng, clips):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    with pytest.raises(DimensionError, match=f"3 frames do not split into {clips} clips"):
        M.clip_forward(rng.random((3, 8, 8, 3)), cfg, params, clips=clips)


def test_clip_forward_shape_contract(rng):
    cfg = desk_cfg(t_train=3)
    params = M.init_model(cfg, rng)
    out = M.clip_forward(rng.random((3, 64, 64, 3)).astype(np.float64), cfg, params)
    assert len(out) == cfg.decoder_layers
    L = cfg.num_queries
    for layer in out:
        assert len(layer.logits) == len(layer.boxes_t) == len(layer.boxes) == 3
        assert layer.logits.shape == (3, L, cfg.num_classes)
        assert layer.boxes_t.shape == layer.boxes.shape == (3, L, 4)


def training_clip_records(cfg: M.ModelConfig) -> tuple[int, tr.LossParts]:
    """Tape length and loss parts of one seeded training clip (T=4)."""
    params = M.init_model(cfg, np.random.default_rng(0))
    clip = sv.generate_clip(sv.GenConfig(), seed=0)
    frames, gts = tr.sample_frames(clip, cfg.t_train, np.random.default_rng(0))
    with ad.ComputationTape() as tape:
        _, parts = tr.clip_loss(M.clip_forward(frames, cfg, params), gts)
    return len(tape), parts


def training_iteration_records(cfg: M.ModelConfig, monkeypatch) -> list[int]:
    """Tape length of each backward pass of one seeded batch_step over two
    sampled clips (T=4), as a train() iteration of batch 2 runs them."""
    params = M.init_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    batch = [tr.sample_frames(sv.generate_clip(sv.GenConfig(), seed=s), cfg.t_train, rng)
             for s in (0, 1)]
    lengths = []
    backward = ad.ComputationTape.backward

    def counting(tape, loss, seed=None):
        lengths.append(len(tape))
        return backward(tape, loss, seed)

    monkeypatch.setattr(ad.ComputationTape, "backward", counting)
    tr.batch_step(batch, cfg, params)
    return lengths


def test_desk_clip_tape_record_count():
    """Hardware-independent gate on the op count of one seeded desk-config
    stage-2 training clip (aggregation and contrastive loss on)."""
    records, parts = training_clip_records(M.ModelConfig())
    assert parts.con > 0.0
    assert records == 89


def test_train_mid_clip_tape_record_count():
    """The same gate for a stage-1 clip of the matching-heavy config: 30
    queries, dim 64, 6 decoder layers, aggregation off."""
    cfg = M.ModelConfig(num_queries=30, dim=64, decoder_layers=6, ica_layers=0)
    records, parts = training_clip_records(cfg)
    assert parts.con == 0.0
    assert records == 83


@pytest.mark.parametrize("overrides,records", [
    (dict(), 89),
    (dict(num_queries=30, dim=64, decoder_layers=6, ica_layers=0), 83),
], ids=["desk", "train_mid"])
def test_training_iteration_is_one_tape_of_one_clip_s_records(overrides, records, monkeypatch):
    """A batch of two clips is one stacked tape with the record count of a
    single clip's: the same gate per training iteration."""
    assert training_iteration_records(M.ModelConfig(**overrides), monkeypatch) == [records]


def test_desk_inference_pass_tape_record_count():
    """The same gate for seeded desk inference with aggregation on: a
    32-frame clip's two windows of t_infer=16 frames in one stacked pass,
    forward only."""
    cfg = M.ModelConfig(t_infer=16)
    params = M.init_model(cfg, np.random.default_rng(0))
    with ad.ComputationTape() as tape:
        _, selections = tr.infer_clip(sv.generate_clip(sv.GenConfig(t=32), seed=0), cfg, params)
    assert len(selections) == cfg.ica_layers
    assert len(tape) == 61


def test_clip_forward_determinism(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    frames = rng.random((2, 8, 8, 3))
    a = M.clip_forward(frames, cfg, params)
    b = M.clip_forward(frames, cfg, params)
    for la, lb in zip(a, b):
        for fa, fb in zip(la.logits.data, lb.logits.data):
            assert np.array_equal(fa, fb)


def test_clip_forward_no_ica_variant(rng):
    """ica_layers=0 runs the full model's parameters with no aggregation and
    no identity heads."""
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    frames = rng.random((2, 8, 8, 3))
    off = M.clip_forward(frames, dataclasses.replace(cfg, ica_layers=0), params)
    for layer in off:
        assert layer.selection is None
        assert layer.ident is None
    on = M.clip_forward(frames, cfg, params)
    assert len(on[-1].selection) > 0
    changed = not np.array_equal(on[-1].logits.data[0], off[-1].logits.data[0])
    assert changed


def test_clip_forward_frame_permutation_equivariance(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    frames = rng.random((3, 8, 8, 3))
    out = M.clip_forward(frames, cfg, params)
    perm = [2, 0, 1]
    out_p = M.clip_forward(frames[perm], cfg, params)
    for layer, layer_p in zip(out, out_p):
        for new_i, old_i in enumerate(perm):
            assert_allclose(layer_p.logits.data[new_i], layer.logits.data[old_i],
                            atol=1e-9)


def test_replay_reproduces_the_run_bitexactly(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    frames = rng.random((3, 8, 8, 3))
    replay = ad.Replay()
    with replay.record():
        out = M.clip_forward(frames, cfg, params)
    with replay.play():
        again = M.clip_forward(frames, cfg, params)
    assert out[-1].selection is not None
    for a, b in zip(out, again):
        assert a.selection is b.selection
        assert np.array_equal(a.boxes, b.boxes)
        for name in ("logits", "boxes_t", "ident", "region"):
            if getattr(a, name) is not None:
                assert np.array_equal(getattr(a, name).data, getattr(b, name).data)


def test_replay_keeps_picks_and_reference_boxes(rng, monkeypatch):
    """After the parameters move, a free run picks and refines afresh; a
    replay keeps the earlier run's picks and carried reference boxes."""
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    frames = rng.random((3, 8, 8, 3))
    replay = ad.Replay()
    with replay.record():
        out = M.clip_forward(frames, cfg, params)
    for t in M.named_parameters(params).values():
        t.data = t.data + rng.normal(scale=0.5, size=t.data.shape)

    refs = []
    head = M.detection_head

    def recording(queries, ref_boxes, *rest):
        refs.append(ref_boxes)
        return head(queries, ref_boxes, *rest)

    monkeypatch.setattr(M, "detection_head", recording)
    fresh = M.clip_forward(frames, cfg, params)
    with replay.play():
        replayed = M.clip_forward(frames, cfg, params)
    fresh_refs, replay_refs = refs[:cfg.decoder_layers], refs[cfg.decoder_layers:]
    assert not np.array_equal(fresh[-1].selection.picks, out[-1].selection.picks)
    assert np.array_equal(replayed[-1].selection.picks, out[-1].selection.picks)
    for li in range(1, cfg.decoder_layers):
        assert not np.array_equal(fresh_refs[li], out[li - 1].boxes)
        assert np.array_equal(replay_refs[li], out[li - 1].boxes)
    assert not np.array_equal(replayed[-1].logits.data, out[-1].logits.data)


@pytest.mark.parametrize("seed, name", [(9, "layer1.ffn1.b"), (17, "backbone.conv0.b"),
                                        (22, "layer0.head_id0.w")])
def test_model_check_holds_relu_masks_across_kinks(seed, name):
    """At these seeds a ReLU pre-activation lies within the check's step of
    zero; the played pass holds its mask, so the differences see no kink."""
    with ad.precision(64):
        cfg = gs.micro_config()
        params = M.init_model(cfg, np.random.default_rng(seed))
        frames, gts = gs.micro_clip(seed + 7)
        build = gs.played(lambda: tr.clip_loss(M.clip_forward(frames, cfg, params), gts)[0])
        named = M.named_parameters(params)
        for t in named.values():
            t.requires_grad = False
        assert ad.grad_check(build, named[name], step=1e-4).passed


def test_reference_boxes_stay_valid(rng):
    cfg = micro_cfg()
    params = M.init_model(cfg, rng)
    out = M.clip_forward(rng.random((2, 8, 8, 3)), cfg, params)
    for layer in out:
        for b in layer.boxes:
            assert ((0.0 <= b[:, :2]) & (b[:, :2] <= 1.0)).all()
            assert ((geo.WH_MIN <= b[:, 2:]) & (b[:, 2:] <= 1.0)).all()


def test_within_frame_mask_matches_single_frame_runs_bitexactly(rng, monkeypatch):
    masked_equals_single_frame_runs(micro_cfg(), rng, monkeypatch)


def test_within_frame_mask_one_anchor_per_frame_bitexact(rng, monkeypatch):
    """With one anchor per frame, a single-frame run's aggregation has one
    row; its matmuls must still match the masked clip's bit for bit."""
    masked_equals_single_frame_runs(micro_cfg(ica_topk=1), rng, monkeypatch)


def masked_equals_single_frame_runs(cfg, rng, monkeypatch):
    params = M.init_model(cfg, rng)
    frames = rng.random((3, 8, 8, 3))
    mask_within_frames(monkeypatch)
    masked = M.clip_forward(frames, cfg, params)
    for i in range(3):
        single = M.clip_forward(frames[i:i + 1], cfg, params)
        for lm, ls in zip(masked, single):
            assert np.array_equal(lm.logits.data[i], ls.logits.data[0])
            assert np.array_equal(lm.boxes_t.data[i], ls.boxes_t.data[0])


def test_extract_detections_threshold(rng):
    cfg = micro_cfg(score_thresh=0.5)
    params = M.init_model(cfg, rng)
    out = M.clip_forward(rng.random((1, 8, 8, 3)), cfg, params)
    dets = M.extract_detections(out[-1], cfg)
    logits = out[-1].logits.data[0]
    n_above = int((1 / (1 + np.exp(-logits)) > 0.5).sum())
    assert len(dets[0]) == n_above


@pytest.mark.parametrize("seed", range(6))
def test_extract_detections_matches_the_slot_loop(seed):
    """The clip-wide threshold mask gives the slot loop's detections, in its
    order, with equal class, score and box fields, at every threshold: 32-bit
    desk models, as inference runs them."""
    with ad.precision(32):
        cfg = desk_cfg()
        rng = np.random.default_rng(seed)
        params = M.init_model(cfg, rng)
        last = M.clip_forward(rng.random((16, 64, 64, 3)), cfg, params)[-1]
    for thresh in (0.0, 0.05, 0.5):
        run = dataclasses.replace(cfg, score_thresh=thresh)
        assert repr(M.extract_detections(last, run)) == repr(loop_extract_detections(last, run))


def test_extract_detections_keeps_slot_order_among_equal_scores():
    """Equal scores keep (query, class) order, as the slot loop's stable sort."""
    cfg = micro_cfg(score_thresh=0.3)
    logits = np.array([[[0.0, 1.0], [1.0, 0.0], [0.0, -2.0]]])          # [T=1, L=3, C=2]
    boxes = np.tile([0.5, 0.5, 0.2, 0.2], (1, 3, 1)) + np.arange(3)[None, :, None] * 0.1
    last = M.LayerOutput(ad.tensor(logits), ad.tensor(boxes), boxes, None, None)
    [dets] = M.extract_detections(last, cfg)
    assert [(d.class_id, round(d.box.cx, 9)) for d in dets] == [
        (1, 0.5), (0, 0.6), (0, 0.5), (1, 0.6), (0, 0.7)]
    assert repr([dets]) == repr(loop_extract_detections(last, cfg))


@pytest.mark.parametrize("thresh", [-1.0, 0.3, 0.6])
def test_extract_detections_orders_tied_scores_of_many_frames_as_the_frame_loop(thresh):
    """Scores tied within and across frames, over a stack of frames with
    one frame left empty at the higher thresholds: each frame's list is the
    slot loop's, in its order, and each query's box its box_from_corners."""
    cfg = micro_cfg(score_thresh=thresh)
    levels = np.array([0.0, 1.0, -1.0, 0.5])
    rng = np.random.default_rng(3)
    logits = levels[rng.integers(len(levels), size=(4, 5, 3))]
    logits[2] = -1.0                                         # frame 2: all at 0.269
    boxes = rng.uniform(0.05, 0.95, size=(4, 5, 4))
    boxes[..., 2:] *= 0.8
    last = M.LayerOutput(ad.tensor(logits), ad.tensor(boxes), boxes, None, None)
    dets = M.extract_detections(last, cfg)
    assert len(dets) == 4 and repr(dets) == repr(loop_extract_detections(last, cfg))
    scores = [d.score for frame in dets for d in frame]
    assert len(set(scores)) < len(scores)
    assert (dets[2] == []) == (thresh > 0.27)


def test_extract_detections_scores_extreme_logits_without_overflow():
    """Logits far below zero score 0 without an exp overflow warning, and
    far above zero score 1."""
    cfg = micro_cfg(score_thresh=0.5)
    logits = np.array([[[-800.0, 800.0], [-50.0, 3.0]]])                # [T=1, L=2, C=2]
    boxes = np.tile([0.5, 0.5, 0.2, 0.2], (1, 2, 1))
    last = M.LayerOutput(ad.tensor(logits), ad.tensor(boxes), boxes, None, None)
    [dets] = M.extract_detections(last, cfg)
    assert [(d.class_id, d.score) for d in dets] == [(1, 1.0), (1, pytest.approx(0.952574))]


def test_detections_lie_inside_frame(rng):
    cfg = desk_cfg(score_thresh=0.0)
    params = M.init_model(cfg, rng)
    out = M.clip_forward(rng.random((2, 64, 64, 3)), cfg, params)
    b = np.concatenate(out[-1].boxes)
    ref_corners = np.concatenate([b[:, :2] - b[:, 2:] / 2, b[:, :2] + b[:, 2:] / 2], axis=1)
    assert (ref_corners < 0.0).any() or (ref_corners > 1.0).any()   # clipping is exercised
    dets = M.extract_detections(out[-1], cfg)
    assert sum(len(f) for f in dets) == 2 * cfg.num_queries * cfg.num_classes
    for frame in dets:
        for det in frame:
            assert all(0.0 <= v <= 1.0 for v in det.box.corners())
            assert det.box.w > 0.0 and det.box.h > 0.0
