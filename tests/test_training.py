import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from clipvid import autodiff as ad
from clipvid import model as M
from clipvid import synthvid as sv
from clipvid import training as tr
from clipvid.checkpoint import save_checkpoint
from clipvid.errors import CapacityError, ConfigError, NumericError
from clipvid.gradcheck_suite import micro_clip, micro_config
from oracles import (PerTensorAdamW, leaf_grad, per_clip_step, per_layer_clip_loss,
                     per_tensor_clip_gradients, window_infer_clip)


def test_same_seed_32bit_runs_are_byte_identical(tmp_path):
    """Two in-process 32-bit stage-2 runs (aggregation and contrastive loss
    on) from the same seed write the same loss log and checkpoint bytes."""
    data = sv.generate_dataset(sv.GenConfig(num_classes=2, max_objects=2, frame_size=16, t=4),
                               3, seed=0)
    runs = []
    with ad.precision(32):
        for name in ("a", "b"):
            cfg = micro_config()
            params = M.init_model(cfg, np.random.default_rng(0))
            lines = tr.train(data, cfg, params, stage=2, use_ica=True,
                             settings=tr.TrainSettings(iters=4, lr=1e-3, lr_drop_at=2, seed=5))
            path = tmp_path / f"{name}.ckpt"
            save_checkpoint(M.named_parameters(params), str(path), precision=32)
            runs.append(("\n".join(lines), path.read_bytes()))
    assert any(float(line.split(",")[5]) > 0.0 for line in runs[0][0].splitlines())
    assert runs[0] == runs[1]


def test_infer_clip_unknown_mode_is_config_error():
    [clip] = sv.generate_dataset(sv.GenConfig(num_classes=2, max_objects=2, frame_size=16, t=2),
                                 1, seed=0)
    cfg = micro_config()
    with pytest.raises(ConfigError, match="bogus"):
        tr.infer_clip(clip, cfg, M.init_model(cfg, np.random.default_rng(0)), mode="bogus")


def _clip(clip_id: int, box: np.ndarray) -> sv.ClipSample:
    """A clip of blank frames whose class-0 tracks have the [K, T, 4] boxes."""
    K, T = box.shape[:2]
    tracks = sv.Tracks(np.arange(K), np.zeros(K, np.int64), np.full(K, "slow"), box,
                       np.where(np.isnan(box[..., 0]), 0.0, 1.0))
    return sv.ClipSample(clip_id, np.zeros((T, 16, 16, 3), np.float32), tracks)


@pytest.mark.parametrize("at", [0, 2])
def test_train_stops_at_a_non_finite_gradient_before_the_step(monkeypatch, at):
    """A NaN in the gradient of iteration `at` raises NumericError naming the
    iteration and the clips it sampled, and that iteration's step never
    runs: the parameters are those after the earlier iterations."""
    data = sv.generate_dataset(sv.GenConfig(num_classes=2, max_objects=2, frame_size=16, t=4),
                               3, seed=0)
    cfg = micro_config()
    settings = tr.TrainSettings(iters=at, lr=1e-3, seed=5)
    ref = M.init_model(cfg, np.random.default_rng(0))
    tr.train(data, cfg, ref, stage=2, use_ica=True, settings=settings)
    sampled, step, sample = [], tr.batch_step, tr.sample_frames

    def nan_at_the_last_iteration(batch, cfg_, params):
        parts = step(batch, cfg_, params)
        if len(sampled) == (at + 1) * settings.batch:
            params.layers[0].head_cls.w.grad[0, 0] = np.nan
        return parts

    def record(clip, t, rng):
        sampled.append(clip.clip_id)
        return sample(clip, t, rng)

    monkeypatch.setattr(tr, "batch_step", nan_at_the_last_iteration)
    monkeypatch.setattr(tr, "sample_frames", record)
    params = M.init_model(cfg, np.random.default_rng(0))
    with pytest.raises(NumericError, match=rf"^iteration {at}: loss [^,]+, gradient norm nan on "
                                           rf"clips \[\d+, \d+\]: not finite before the step$"
                       ) as err:
        tr.train(data, cfg, params, stage=2, use_ica=True,
                 settings=replace(settings, iters=at + 1))
    assert f"clips {sampled[-2:]}" in str(err.value)
    for name, p in M.named_parameters(params).items():
        assert np.array_equal(p.data, M.named_parameters(ref)[name].data), name


def test_train_refuses_a_crowded_frame_before_the_first_iteration(monkeypatch):
    """A frame with more ground truths than queries stops training before
    any step, naming its clip and frame; a frame at capacity passes."""
    box = np.tile([0.5, 0.5, 0.2, 0.2], (4, 3, 1))
    box[3, :2] = np.nan                                 # track 3 enters at frame 2
    dataset = [_clip(0, box[:3]), _clip(5, box)]
    cfg = micro_config()                                # 3 queries
    sv.check_capacity(dataset[:1], cfg.num_queries)
    monkeypatch.setattr(tr, "batch_step", lambda *a: pytest.fail("an iteration ran"))
    with pytest.raises(CapacityError, match="^clip 5 frame 2: 4 ground truths exceed 3 "
                                            "prediction slots$"):
        tr.train(dataset, cfg, M.init_model(cfg, np.random.default_rng(0)), stage=1,
                 use_ica=False, settings=tr.TrainSettings(iters=1))


def _selection_arrays(selections, T: int) -> list[np.ndarray]:
    """The selections' anchors, picks, dots and oracle flags, each
    concatenated, anchor frames counted within their window of T."""
    anchors = np.concatenate([s.anchors for s in selections])
    anchors[:, 0] %= T
    return [anchors] + [np.concatenate([getattr(s, name) for s in selections])
                        for name in ("picks", "dots", "oracle")]


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("frames, t_infer, ica_layers, kw", [
    (32, 16, 1, {}),
    (20, 8, 1, {}),
    (5, 8, 1, {}),
    (20, 8, 1, {"mode": "oracle_ica"}),
    (20, 8, 1, {"use_ica": False}),
    (20, 8, 2, {}),
], ids=["2x16", "2x8+4", "5_of_8", "oracle_ica", "no_ica", "two_ica_layers"])
def test_infer_clip_equals_the_per_window_loop(bits, frames, t_infer, ica_layers, kw):
    """The stacked windows detect and select as the windows run one at a
    time, bit for bit. A stacked pass lists its selections layer by layer,
    each covering every window, so the per-window loop's are put in that
    order."""
    cfg = M.ModelConfig(t_infer=t_infer, ica_layers=ica_layers).validate()
    clip = sv.generate_clip(sv.GenConfig(t=frames, min_objects=2, max_objects=3), seed=2)
    with ad.precision(bits):
        params = M.init_model(cfg, np.random.default_rng(0))
        dets, sels = tr.infer_clip(clip, cfg, params, **kw)
        want_dets, want_sels = window_infer_clip(clip, cfg, params, **kw)
    same_dets = repr(dets) == repr(want_dets)    # a bool: pytest's diff of the text is slow
    assert same_dets and len(dets) == frames
    per_pass = ica_layers if kw.get("use_ica", True) else 0    # selections per window
    end = frames // t_infer * per_pass
    groups = [want_sels[layer:end:per_pass] for layer in range(per_pass) if end]
    groups += [[sel] for sel in want_sels[end:]]
    assert len(sels) == len(groups)
    oracle = False
    for sel, group in zip(sels, groups):
        T = sel.picks.shape[1]
        got, want = _selection_arrays([sel], T), _selection_arrays(group, T)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        oracle |= want[3].any()
    assert oracle == (kw.get("mode") == "oracle_ica")


@pytest.mark.parametrize("frames, calls", [
    (32, [(32, 4)]),
    (20, [(16, 2), (4, 1)]),
    (5, [(5, 1)]),
    (8, [(8, 1)]),
])
def test_infer_clip_runs_full_windows_as_one_pass(monkeypatch, frames, calls):
    """One clip_forward (frames, clips) for a clip of whole t_infer=8
    windows, a second for a remainder."""
    seen = []
    real = tr.M.clip_forward

    def recording(frames, *rest, clips=1, **kw):
        seen.append((len(frames), clips))
        return real(frames, *rest, clips=clips, **kw)

    monkeypatch.setattr(tr.M, "clip_forward", recording)
    cfg = replace(micro_config(), t_infer=8)
    clip = sv.generate_clip(sv.GenConfig(num_classes=2, max_objects=2, frame_size=16, t=frames),
                            seed=0)
    dets, _ = tr.infer_clip(clip, cfg, M.init_model(cfg, np.random.default_rng(0)))
    assert len(dets) == frames
    assert seen == calls


def test_stacked_clip_loss_equals_per_layer_loop():
    """clip_loss's one set_loss call over every layer's frames scores as
    the per-layer loop: 64-bit micro clip, aggregation and the contrastive
    loss on. Layer 0, which feeds the contrastive term, is matched
    differently from layer 1 (the loop's matches show it), so reading
    another layer's assignments shows."""
    cfg = micro_config()
    params = M.init_model(cfg, np.random.default_rng(0))
    named = M.named_parameters(params)
    frames, gts = micro_clip(7)
    runs = []
    for loss_fn in (tr.clip_loss, per_layer_clip_loss):
        for p in named.values():
            p.grad = None
        with ad.ComputationTape() as tape:
            total, parts, *pred = loss_fn(M.clip_forward(frames, cfg, params), gts)
        tape.backward(total)
        runs.append((float(total.data), parts,
                     {k: p.grad.copy() for k, p in named.items() if p.grad is not None}))
    (total, parts, grads), (ref_total, ref_parts, ref_grads) = runs

    ref_pred, = pred
    assert parts.con > 0.0 and ref_pred.shape == (2, 4)
    assert not np.array_equal(ref_pred[0], ref_pred[1])
    assert total == pytest.approx(ref_total, rel=1e-12)
    for f in fields(tr.LossParts):
        assert getattr(parts, f.name) == pytest.approx(getattr(ref_parts, f.name), rel=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name


MID = dict(num_queries=30, dim=64, decoder_layers=6)


def sampled_batch(lengths, cfg, seed, sizes=None):
    """One sampled (frames, targets) clip per entry of lengths, each from a
    seeded clip of that many frames (of sizes' frame size, 64 px by
    default), as train() samples them."""
    rng = np.random.default_rng(seed)
    sizes = sizes or [64] * len(lengths)
    return [tr.sample_frames(sv.generate_clip(sv.GenConfig(t=t, min_objects=2, frame_size=size),
                                              seed=seed + i), cfg.t_train, rng)
            for i, (t, size) in enumerate(zip(lengths, sizes))]


def _step_gradients(step, batch, cfg, params):
    named = M.named_parameters(params)
    for p in named.values():
        p.grad = None
    parts = step(batch, cfg, params)
    return parts, {k: leaf_grad(p).copy() for k, p in named.items()}


@pytest.mark.parametrize("overrides,lengths,sizes,stacks", [
    (dict(), (8, 8), None, [2]),
    (dict(MID, ica_layers=0), (8, 8), None, [2]),
    (dict(), (8, 3, 8), None, [2, 1]),
    (dict(), (8, 8), (64, 32), [1, 1]),
], ids=["desk_stage2", "train_mid_stage1", "ragged_8_3_8", "sizes_64_32"])
def test_stacked_step_matches_the_per_clip_loop(overrides, lengths, sizes, stacks):
    """One stacked forward, loss and backward over a batch's clips scores
    and differentiates as one pass per clip, at 64 bits: every loss part
    and every parameter gradient within 1e-12 relative, after the same
    1/B scaling. Clips of 8 and 3 frames at t_train 4 make two stacks, as
    do clips of 64- and 32-px frames."""
    cfg = M.ModelConfig(**overrides).validate()
    params = M.init_model(cfg, np.random.default_rng(2))
    batch = sampled_batch(lengths, cfg, seed=4, sizes=sizes)
    assert [clips for _frames, _targets, clips in tr.stack_clips(batch)] == stacks
    inv = 1.0 / len(batch)
    parts, grads = _step_gradients(tr.batch_step, batch, cfg, params)
    ref_parts, ref_grads = _step_gradients(per_clip_step, batch, cfg, params)
    if cfg.ica_layers:
        assert ref_parts.con > 0.0
    for f in fields(tr.LossParts):
        assert getattr(parts, f.name) * inv == pytest.approx(getattr(ref_parts, f.name) * inv,
                                                            rel=1e-12, abs=0.0), f.name
    for name, g in grads.items():
        ref = ref_grads[name] * inv
        assert np.abs(g * inv - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize("stage,use_ica", [(1, True), (2, True), (2, False)],
                         ids=["stage1", "stage2", "stage2_no_ica"])
def test_train_flattens_only_tensors_its_pass_reads(stage, use_ica, monkeypatch):
    """train() trains every named tensor, less the aggregation ones where
    aggregation is off, and after one desk iteration each trained tensor
    has a nonzero gradient: none is dead weight in the flat vector. No
    named tensor enters a tape record as a constant, so the adjoints' every
    gradient of a parameter is one the tape keeps."""
    flat, flatten, constants, record = [], tr.flatten, [], ad._record

    def capture(tensors):
        flat.extend(tensors)
        return flatten(tensors)

    def spy(op, inputs, *rest):
        constants.extend(t for t in inputs if not t.requires_grad)
        return record(op, inputs, *rest)

    monkeypatch.setattr(tr, "flatten", capture)
    monkeypatch.setattr(ad, "_record", spy)
    cfg = M.ModelConfig()
    params = M.init_model(cfg, np.random.default_rng(0))
    data = sv.generate_dataset(sv.GenConfig(min_objects=2), 2, seed=0)
    tr.train(data, cfg, params, stage, use_ica, tr.TrainSettings(iters=1, seed=0))
    ica = use_ica and stage == 2
    trained = {name: p for name, p in M.named_parameters(params).items()
               if ica or not M.is_ica_param(name)}
    assert [id(p) for p in flat] == [id(p) for p in trained.values()]
    assert [name for name, p in trained.items() if not p.grad.any()] == []
    named = {id(p): name for name, p in M.named_parameters(params).items()}
    assert constants and [named[id(t)] for t in constants if id(t) in named] == []


def test_stacked_oracle_forward_equals_each_clip_bitexactly():
    """A two-clip stack with oracle_gts (both clips' tables, stacked) gives
    each clip the outputs and the selection of its own oracle pass, bit for
    bit; aggregation never leaves a clip, though the clips share track ids."""
    cfg = M.ModelConfig().validate()
    params = M.init_model(cfg, np.random.default_rng(2))
    batch = sampled_batch((8, 8), cfg, seed=6)
    assert set(batch[0][1].track) & set(batch[1][1].track)
    [(frames, targets, clips)] = tr.stack_clips(batch)
    stacked = M.clip_forward(frames, cfg, params, oracle_gts=targets, clips=clips)
    T, k = cfg.t_train, cfg.ica_topk
    for c, (clip_frames, clip_targets) in enumerate(batch):
        alone = M.clip_forward(clip_frames, cfg, params, oracle_gts=clip_targets)
        rows = slice(c * T, (c + 1) * T)
        for got, want in zip(stacked, alone, strict=True):
            assert np.array_equal(got.logits.data[rows], want.logits.data)
            assert np.array_equal(got.boxes[rows], want.boxes)
            if want.ident is not None:
                assert np.array_equal(got.ident.data[rows], want.ident.data)
            if want.selection is not None:
                sel, ref = got.selection, want.selection
                assert len(sel) == clips * T * k
                mine = slice(c * T * k, (c + 1) * T * k)
                assert np.array_equal(sel.anchors[mine], ref.anchors + [c * T, 0])
                assert np.array_equal(sel.picks[mine], ref.picks)
                assert np.array_equal(sel.dots[mine], ref.dots, equal_nan=True)
                assert np.array_equal(sel.oracle[mine], ref.oracle) and ref.oracle.any()


def test_adamw_first_step_is_the_closed_form(rng):
    """From fresh state the bias-corrected moments are g and g*g, so the
    first step is p - lr * (g / (|g| + eps) + wd * p)."""
    data, grad = rng.normal(size=12), rng.normal(size=12)
    p0 = data.copy()
    opt = tr.AdamW(np.zeros(12), np.zeros(12))
    opt.step(data, grad, lr=0.01)
    want = p0 - 0.01 * (grad / (np.abs(grad) + tr.ADAM_EPS) + tr.WEIGHT_DECAY * p0)
    assert np.abs(data - want).max() <= 1e-12 * np.abs(want).max()
    assert opt.t == 1 and np.array_equal(opt.m, (1.0 - tr.ADAM_BETA1) * grad)


@pytest.mark.parametrize("kind", ["above", "at", "below"])
def test_clip_gradients_caps_the_global_norm(rng, kind):
    """Gradients whose global norm exceeds the threshold are rescaled to
    exactly it; gradients at or below it keep their bits. The "at" case
    is a (3, 4) pair, whose norm is exactly 5."""
    a, b = ad.param(np.zeros((2, 3))), ad.param(np.zeros(4))
    _data, grad = tr.flatten([a, b])
    if kind == "at":
        a.grad[0, 0], b.grad[1] = 3.0, 4.0
        assert tr.MAX_GRAD_NORM == 5.0
    else:
        size = 10.0 if kind == "above" else 0.01
        a.grad[:], b.grad[:] = size * rng.normal(size=(2, 3)), size * rng.normal(size=4)
    before = grad.copy()
    tr._clip_gradients(grad)
    norm = lambda g: math.sqrt(float(np.sum(g * g)))
    if kind == "above":
        assert norm(before) > tr.MAX_GRAD_NORM
        assert norm(grad) == pytest.approx(tr.MAX_GRAD_NORM, rel=1e-12)
    else:
        assert norm(before) <= tr.MAX_GRAD_NORM
        assert np.array_equal(grad, before)


@pytest.mark.parametrize("bits", [32, 64])
def test_clip_gradients_norm_is_the_float64_norm(rng, bits):
    """On vectors below, at and above one block, the returned norm is within
    1e-12 relative of math.fsum's sum of the float64 squares. A clipped
    gradient equals grad * (MAX_GRAD_NORM / norm) bit for bit; an unclipped
    one keeps its bits."""
    block = tr.ADAM_BLOCK
    for size in (1, block - 1, block, 3 * block + 7):
        for target, clipped in ((50.0, True), (0.5, False)):  # norm in [target, 2*target]
            grad = (rng.choice([-1.0, 1.0], size=size) * rng.uniform(1.0, 2.0, size=size)
                    * target / math.sqrt(size)).astype(f"float{bits}")
            want = math.sqrt(math.fsum((grad.astype(np.float64) ** 2).tolist()))
            before = grad.copy()
            norm = tr._clip_gradients(grad)
            assert abs(norm - want) <= 1e-12 * want and (norm > tr.MAX_GRAD_NORM) == clipped
            expect = before * (tr.MAX_GRAD_NORM / norm) if clipped else before
            assert np.array_equal(grad, expect)


def test_clip_gradients_sums_float32_squares_in_float64():
    """Finite float32 entries of 1e30 square past float32's range, so a
    float32 dot overflows to inf; the clip's float64 sum keeps the norm
    finite and rescales the gradient to the cap."""
    grad = np.full(10, 1e30, dtype=np.float32)
    with np.errstate(over="ignore"):
        assert np.dot(grad, grad) == np.inf
    norm = tr._clip_gradients(grad)
    assert norm == pytest.approx(math.sqrt(10) * float(np.float32(1e30)), rel=1e-12)
    assert grad.dtype == np.float32 and np.isfinite(grad).all()
    assert math.sqrt(float(np.dot(grad, grad))) == pytest.approx(tr.MAX_GRAD_NORM, rel=1e-6)


@pytest.mark.parametrize("bits", [32, 64])
def test_clip_gradients_allocates_one_block_sized_row(bits):
    """The clip neither squares nor casts the whole vector: on a vector of
    64 blocks its traced peak stays within two float64 blocks."""
    grad = np.full(64 * tr.ADAM_BLOCK, 0.5, dtype=f"float{bits}")
    tracemalloc.start()
    try:
        norm = tr._clip_gradients(grad)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norm == 0.5 * math.sqrt(grad.size) > tr.MAX_GRAD_NORM
    assert peak < 2 * tr.ADAM_BLOCK * 8


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("size", [10.0, 0.01], ids=["clipped", "unclipped"])
def test_flat_optimizer_matches_per_tensor_oracle(rng, bits, size):
    """Clipping and AdamW steps over one flat vector, through the tensors'
    views of it, give the per-tensor oracle's parameters and moments bit
    for bit, whether or not clipping fires."""
    with ad.precision(bits):
        shapes = [(2, 3), (4,), (), (3, 1, 2)]
        ref = {f"p{i}": ad.param(rng.normal(size=s)) for i, s in enumerate(shapes)}
        flat = [ad.param(p.data.copy()) for p in ref.values()]
        data, grad = tr.flatten(flat)
        opt, ref_opt = tr.AdamW(np.zeros_like(data), np.zeros_like(data)), PerTensorAdamW()
        for it in range(4):
            for p, q in zip(ref.values(), flat):
                q.grad[...] = size * rng.normal(size=p.shape)
                p.grad = q.grad.copy()
            assert (math.sqrt(float(np.sum(grad.astype(np.float64) ** 2)))
                    > tr.MAX_GRAD_NORM) == (size > 1.0)
            per_tensor_clip_gradients(ref)
            tr._clip_gradients(grad)
            lr = 0.01 if it < 2 else 0.001
            ref_opt.step(ref, lr)
            opt.step(data, grad, lr)
        assert data.dtype == np.dtype(f"float{bits}") and opt.t == ref_opt.t == 4
        for p, q in zip(ref.values(), flat):
            assert q.data.shape == p.data.shape and np.array_equal(q.data, p.data)
        for got, want in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
            assert np.array_equal(got, np.concatenate([a.ravel() for a in want.values()]))


@pytest.mark.parametrize("bits", [32, 64])
def test_adamw_blocks_do_not_change_the_step(rng, monkeypatch, bits):
    """Blocks that split the vector unevenly give the one-block step's
    parameters and moments bit for bit."""
    with ad.precision(bits):
        data0 = rng.normal(size=17).astype(ad.get_dtype())
        grads = [rng.normal(size=17).astype(ad.get_dtype()) for _ in range(3)]
        out = []
        for block in (tr.ADAM_BLOCK, 5):
            monkeypatch.setattr(tr, "ADAM_BLOCK", block)
            data = data0.copy()
            opt = tr.AdamW(np.zeros_like(data), np.zeros_like(data))
            for g in grads:
                opt.step(data, g, 0.01)
            out.append((data, opt.m, opt.v))
    for one, blocked in zip(*out):
        assert one.dtype == np.dtype(f"float{bits}") and np.array_equal(one, blocked)


def test_adamw_step_allocates_no_vector_sized_temporaries():
    """Once the first step has allocated the moments, a step's temporaries
    are block-sized: its traced peak stays far below the vector's size."""
    data, grad = np.ones(64 * tr.ADAM_BLOCK), np.full(64 * tr.ADAM_BLOCK, 0.5)
    opt = tr.AdamW()
    opt.step(data, grad, 0.01)
    tracemalloc.start()
    try:
        opt.step(data, grad, 0.01)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert opt.m.size == data.size and peak < 8 * tr.ADAM_BLOCK * data.itemsize
