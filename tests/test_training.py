import math
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
from oracles import per_layer_clip_loss


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
            p.zero_grad()
        with ad.ComputationTape() as tape:
            total, parts, assignments = loss_fn(M.clip_forward(frames, cfg, params), gts)
        tape.backward(total)
        runs.append((float(total.data), parts, assignments,
                     {k: p.grad.copy() for k, p in named.items() if p.grad is not None}))
    (total, parts, assignments, grads), (ref_total, ref_parts, ref_assignments, ref_grads) = runs

    assert parts.con > 0.0 and assignments[0] != assignments[1]
    assert assignments == ref_assignments
    assert total == pytest.approx(ref_total, rel=1e-12)
    for f in fields(tr.LossParts):
        assert getattr(parts, f.name) == pytest.approx(getattr(ref_parts, f.name), rel=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name


def test_adamw_first_step_is_the_closed_form(rng):
    """From fresh state the bias-corrected moments are g and g*g, so the
    first step is p - lr * (g / (|g| + eps) + wd * p); a parameter without
    a gradient is left alone."""
    p = ad.param(rng.normal(size=(3, 4)))
    p.grad[:] = rng.normal(size=(3, 4))
    frozen = ad.tensor(rng.normal(size=5))
    p0, frozen0 = p.data.copy(), frozen.data.copy()
    opt = tr.AdamW()
    opt.step({"p": p, "frozen": frozen}, lr=0.01)
    want = p0 - 0.01 * (p.grad / (np.abs(p.grad) + tr.ADAM_EPS) + tr.WEIGHT_DECAY * p0)
    assert np.abs(p.data - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(frozen.data, frozen0)
    assert opt.t == 1 and opt.m.keys() == {"p"}


@pytest.mark.parametrize("kind", ["above", "at", "below"])
def test_clip_gradients_caps_the_global_norm(rng, kind):
    """Gradients whose global norm exceeds the threshold are rescaled to
    exactly it; gradients at or below it keep their bits. The "at" case
    is a (3, 4) pair, whose norm is exactly 5."""
    a, b = ad.param(np.zeros((2, 3))), ad.param(np.zeros(4))
    if kind == "at":
        a.grad[0, 0], b.grad[1] = 3.0, 4.0
        assert tr.MAX_GRAD_NORM == 5.0
    else:
        size = 10.0 if kind == "above" else 0.01
        a.grad[:], b.grad[:] = size * rng.normal(size=(2, 3)), size * rng.normal(size=4)
    before = [a.grad.copy(), b.grad.copy()]
    tr._clip_gradients({"a": a, "b": b, "const": ad.tensor(np.zeros(2))})
    norm = lambda grads: math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if kind == "above":
        assert norm(before) > tr.MAX_GRAD_NORM
        assert norm([a.grad, b.grad]) == pytest.approx(tr.MAX_GRAD_NORM, rel=1e-12)
    else:
        assert norm(before) <= tr.MAX_GRAD_NORM
        assert np.array_equal(a.grad, before[0]) and np.array_equal(b.grad, before[1])
