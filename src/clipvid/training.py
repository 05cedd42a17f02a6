"""Two-stage training: clip loss assembly, decoupled-weight-decay adaptive
moments optimizer, and the seeded training loop.

Stage 1 trains everything except the aggregation machinery with aggregation
disabled; stage 2 fine-tunes the whole model with it enabled. The loss is
one set loss over every layer's frames of the clip, normalized by the
clip's object count, plus the pair-normalized contrastive identity loss of
each layer feeding an aggregation layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import ica as ica_mod
from . import matching as mt
from . import model as M
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .synthvid import ClipSample

CONTRASTIVE_WEIGHT = 1.0


@dataclass
class LossParts:
    total: float = 0.0
    cls: float = 0.0
    giou: float = 0.0
    l1: float = 0.0
    con: float = 0.0


def clip_loss(layers: list[M.LayerOutput], gts: list[list[tuple]],
              frozen_assignments=None) -> tuple[Tensor, LossParts, list[list[mt.Assignment]]]:
    """Deep-supervised set loss of one clip, plus the contrastive identity
    loss of every layer with identity embeddings.

    Every layer's [T, L, ·] predictions go layer-major into one
    [Ly*T, L, ·] set_loss call, normalized by the clip's object count;
    each contrastive term reads its own layer's assignments.
    frozen_assignments (as returned by a previous call: per layer, per
    frame) bypasses the matching so finite differencing sees a fixed
    assignment.
    """
    T = len(gts)
    scale = 1.0 / max(1, sum(len(g) for g in gts))
    frame_gts = [[(c, b) for c, b, _t in g] for g in gts]
    res = mt.set_loss(ad.concat([layer.logits for layer in layers]),
                      ad.concat([layer.boxes_t for layer in layers]),
                      np.concatenate([layer.boxes for layer in layers]),
                      frame_gts * len(layers),
                      assignments=([a for per_layer in frozen_assignments for a in per_layer]
                                   if frozen_assignments else None))
    assignments = [res.assignments[li * T:(li + 1) * T] for li in range(len(layers))]
    total = res.total * scale
    parts = LossParts(cls=mt.LAMBDA_CLS * res.cls_term * scale,
                      giou=mt.LAMBDA_GIOU * res.giou_term * scale,
                      l1=mt.LAMBDA_L1 * res.l1_term * scale)
    for layer, layer_assignments in zip(layers, assignments):
        if layer.ident is not None:
            matched_tracks = [{g[j][2]: a.pred_of_gt[j] for j in range(len(g))}
                              for g, a in zip(gts, layer_assignments)]
            con, pairs = ica_mod.contrastive_loss(layer.ident, matched_tracks)
            if pairs > 0:
                total = total + con * CONTRASTIVE_WEIGHT
                parts.con += CONTRASTIVE_WEIGHT * float(con.data)
    parts.total = float(total.data)
    return total, parts, assignments


# ---------------------------------------------------------------------------
# Optimizer: adaptive moments with bias correction and decoupled decay


@dataclass
class AdamW:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: dict[str, Tensor], lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.data -= lr * (mhat / (np.sqrt(vhat) + self.eps)
                            + self.weight_decay * p.data)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainSettings:
    iters: int = 2000
    lr: float = 1e-3
    lr_drop_at: int = 1500
    batch: int = 2
    seed: int = 0


def sample_frames(clip: ClipSample, t: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, list[list[tuple]]]:
    """Random sorted frame subset of one clip plus its annotations."""
    total = clip.frames.shape[0]
    take = min(t, total)
    idx = np.sort(rng.choice(total, size=take, replace=False))
    frames = clip.frames[idx]
    gts = [clip.frame_gts(int(i)) for i in idx]
    return frames, gts


def _clip_gradients(params: dict[str, Tensor], max_norm: float = 5.0) -> None:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale


def check_classes(dataset: list[ClipSample], num_classes: int) -> None:
    """Raise InputError for a ground-truth class the model lacks."""
    for clip in dataset:
        for track in clip.tracks:
            if not 0 <= track.class_id < num_classes:
                raise InputError(f"clip {clip.clip_id} track {track.track_id}: class "
                                 f"{track.class_id} out of range for {num_classes} classes")


def train(dataset: list[ClipSample], cfg: M.ModelConfig, params: M.ModelParams,
          stage: int, use_ica: bool, settings: TrainSettings,
          log=None) -> list[str]:
    """Seeded training loop; returns the per-iteration loss log lines.
    Raises InputError, before the first iteration, for a ground-truth class
    the model lacks."""
    check_classes(dataset, cfg.num_classes)
    named = M.named_parameters(params)
    if stage == 1:
        trainable = {k: v for k, v in named.items() if not M.is_ica_param(k)}
    else:
        trainable = dict(named)
    if not (use_ica and stage >= 2):
        cfg = replace(cfg, ica_layers=0)
    opt = AdamW(lr=settings.lr)
    rng = np.random.default_rng(settings.seed)
    lines = []

    def run_clip(frames, gts):
        with ad.ComputationTape() as tape:
            loss, parts, _ = clip_loss(M.clip_forward(frames, cfg, params), gts)
        tape.backward(loss)
        return parts

    for it in range(settings.iters):
        picks = rng.integers(len(dataset), size=settings.batch)
        batch_args = [sample_frames(dataset[int(c)], cfg.t_train, rng)
                      for c in picks]
        for p in trainable.values():
            p.zero_grad()
        all_parts = [run_clip(*a) for a in batch_args]
        inv = 1.0 / settings.batch
        for p in trainable.values():
            if p.grad is not None:
                p.grad *= inv
        _clip_gradients(trainable)
        lr = settings.lr * (0.1 if it >= settings.lr_drop_at else 1.0)
        opt.step(trainable, lr)
        agg = LossParts(**{f.name: sum(getattr(p, f.name) for p in all_parts) * inv
                           for f in fields(LossParts)})
        line = (f"{it},{agg.total:.9g},{agg.cls:.9g},{agg.giou:.9g},"
                f"{agg.l1:.9g},{agg.con:.9g}")
        lines.append(line)
        if log is not None:
            print(line, file=log, flush=True)
    return lines


# ---------------------------------------------------------------------------
# Inference over full clips


def infer_clip(clip: ClipSample, cfg: M.ModelConfig, params: M.ModelParams,
               mode: str = "infer", use_ica: bool = True):
    """Detect on every frame of a clip in passes of cfg.t_infer frames.

    mode is "infer" or "oracle_ica" (aggregation follows the clip's
    ground-truth tracks); use_ica=False runs without aggregation. Returns
    (per-frame detections, every pass's aggregation-layer selections in
    pass and layer order).
    """
    if mode not in ("infer", "oracle_ica"):
        raise ConfigError(f"unknown mode {mode!r}")
    if not use_ica:
        cfg = replace(cfg, ica_layers=0)
    total = clip.frames.shape[0]
    detections: list[list] = []
    selections = []
    for start in range(0, total, cfg.t_infer):
        stop = min(start + cfg.t_infer, total)
        frames = clip.frames[start:stop]
        gts = [clip.frame_gts(i) for i in range(start, stop)] if mode == "oracle_ica" else None
        layers = M.clip_forward(frames, cfg, params, oracle_gts=gts)
        detections.extend(M.extract_detections(layers[-1], cfg))
        selections.extend(layer.selection for layer in layers if layer.selection is not None)
    return detections, selections
