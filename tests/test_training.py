import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from clipvid import autodiff as ad
from clipvid import model as M
from clipvid import synthvid as sv
from clipvid import training as tr
from clipvid.checkpoint import save_checkpoint
from clipvid.errors import ConfigError
from clipvid.gradcheck_suite import micro_clip, micro_config
from oracles import PerTensorAdamW, per_layer_clip_loss, per_tensor_clip_gradients


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


def test_stacked_clip_loss_equals_per_layer_loop():
    """clip_loss's one set_loss call over every layer's frames scores as
    the per-layer loop: 64-bit micro clip, aggregation and the contrastive
    loss on. Layer 0, which feeds the contrastive term, is matched
    differently from layer 1, so reading another layer's assignments shows."""
    cfg = micro_config()
    params = M.init_model(cfg, np.random.default_rng(0))
    named = M.named_parameters(params)
    frames, gts = micro_clip(7)
    runs = []
    for loss_fn in (tr.clip_loss, per_layer_clip_loss):
        for p in named.values():
            p.grad = None
        with ad.ComputationTape() as tape:
            total, parts, pred = loss_fn(M.clip_forward(frames, cfg, params), gts)
        tape.backward(total)
        runs.append((float(total.data), parts, pred,
                     {k: p.grad.copy() for k, p in named.items() if p.grad is not None}))
    (total, parts, pred, grads), (ref_total, ref_parts, ref_pred, ref_grads) = runs

    assert parts.con > 0.0 and not np.array_equal(pred[0], pred[1])
    assert pred.shape == (2, 4) and np.array_equal(pred, ref_pred)
    assert total == pytest.approx(ref_total, rel=1e-12)
    for f in fields(tr.LossParts):
        assert getattr(parts, f.name) == pytest.approx(getattr(ref_parts, f.name), rel=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name


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
    tr._clip_gradients(grad, [a.grad, b.grad])
    norm = lambda g: math.sqrt(float(np.sum(g * g)))
    if kind == "above":
        assert norm(before) > tr.MAX_GRAD_NORM
        assert norm(grad) == pytest.approx(tr.MAX_GRAD_NORM, rel=1e-12)
    else:
        assert norm(before) <= tr.MAX_GRAD_NORM
        assert np.array_equal(grad, before)


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
            tr._clip_gradients(grad, [q.grad for q in flat])
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
