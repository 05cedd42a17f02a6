"""Two-stage training: clip loss assembly, decoupled-weight-decay adaptive
moments optimizer, and the seeded training loop.

Stage 1 trains everything except the aggregation machinery with aggregation
disabled; stage 2 fine-tunes the whole model with it enabled. The loss is
one set loss over every layer's frames of the clip, normalized by the
clip's object count, plus the pair-normalized contrastive identity loss of
each layer feeding an aggregation layer.

train() owns one flat parameter vector and one flat gradient vector; each
trainable tensor's .data and .grad are views of its slice. The optimizer's
state is the step count t and the moments m and v over that vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import ica as ica_mod
from . import matching as mt
from . import model as M
from .autodiff import Tensor
from .errors import ConfigError
from .synthvid import ClipSample, Targets, check_classes

CONTRASTIVE_WEIGHT = 1.0
# AdamW's moment decay rates, denominator floor and decoupled weight decay,
# and the global gradient norm above which gradients are rescaled.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-4
MAX_GRAD_NORM = 5.0
# AdamW steps in blocks whose temporaries (at most 64 KiB) reuse freed heap.
ADAM_BLOCK = 8192


@dataclass
class LossParts:
    total: float = 0.0
    cls: float = 0.0
    giou: float = 0.0
    l1: float = 0.0
    con: float = 0.0


def clip_loss(layers: list[M.LayerOutput], targets: Targets,
              frozen_assignments: np.ndarray | None = None
              ) -> tuple[Tensor, LossParts, np.ndarray]:
    """Deep-supervised set loss of one clip, plus the contrastive identity
    loss of every layer with identity embeddings.

    Every layer's [T, L, ·] predictions go layer-major into one
    [Ly*T, L, ·] set_loss call against the clip's ground-truth table tiled
    over the layers, normalized by the clip's object count. Returns the
    loss, its parts and pred [Ly, N], the query matched to each target row
    in each layer; each contrastive term reads its own layer's row.
    frozen_assignments (a previous call's pred) bypasses the matching so
    finite differencing sees a fixed assignment.
    """
    T = layers[0].logits.shape[0]
    scale = 1.0 / max(1, len(targets))
    res = mt.set_loss(ad.concat([layer.logits for layer in layers]),
                      ad.concat([layer.boxes_t for layer in layers]),
                      np.concatenate([layer.boxes for layer in layers]),
                      targets.tile(len(layers), T),
                      pred=None if frozen_assignments is None else frozen_assignments.ravel())
    pred = res.pred.reshape(len(layers), len(targets))
    total = res.total * scale
    parts = LossParts(cls=mt.LAMBDA_CLS * res.cls_term * scale,
                      giou=mt.LAMBDA_GIOU * res.giou_term * scale,
                      l1=mt.LAMBDA_L1 * res.l1_term * scale)
    for layer, layer_pred in zip(layers, pred):
        if layer.ident is not None:
            con, pairs = ica_mod.contrastive_loss(layer.ident, targets.frame, targets.track,
                                                  layer_pred)
            if pairs > 0:
                total = total + con * CONTRASTIVE_WEIGHT
                parts.con += CONTRASTIVE_WEIGHT * float(con.data)
    parts.total = float(total.data)
    return total, parts, pred


# ---------------------------------------------------------------------------
# Optimizer: adaptive moments with bias correction and decoupled decay


@dataclass
class AdamW:
    """The optimizer's state over one flat parameter vector: the step count
    and the moment estimates, which the first step allocates, so that they do
    not add to the first backward pass's peak memory."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    def step(self, data: np.ndarray, grad: np.ndarray, lr: float) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(data), np.zeros_like(data)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for lo in range(0, data.size, ADAM_BLOCK):
            p, g, m, v = (x[lo:lo + ADAM_BLOCK] for x in (data, grad, self.m, self.v))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (m / bc1 / (np.sqrt(v / bc2) + ADAM_EPS) + WEIGHT_DECAY * p)


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
                  ) -> tuple[np.ndarray, Targets]:
    """Random sorted frame subset of one clip plus its ground-truth table."""
    total = clip.frames.shape[0]
    idx = np.sort(rng.choice(total, size=min(t, total), replace=False))
    return clip.frames[idx], clip.targets(idx.tolist())


def flatten(tensors: list[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Copy the tensors into one flat data vector and one zeroed gradient
    vector, and rebind each tensor's .data and .grad to reshaped views of
    its slice of them; returns (data, grad)."""
    data = np.concatenate([t.data.ravel() for t in tensors])
    grad = np.zeros_like(data)
    ends = np.cumsum([t.data.size for t in tensors]).tolist()
    for t, lo, hi in zip(tensors, [0] + ends, ends):
        t.data, t.grad = data[lo:hi].reshape(t.shape), grad[lo:hi].reshape(t.shape)
    return data, grad


def _clip_gradients(grad: np.ndarray, views: list[np.ndarray]) -> None:
    """Rescale the flat gradient to the global norm cap. The squares are
    summed per parameter view, in float64 and parameter order."""
    norm = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in views))
    if norm > MAX_GRAD_NORM:
        grad *= MAX_GRAD_NORM / norm


def train(dataset: list[ClipSample], cfg: M.ModelConfig, params: M.ModelParams,
          stage: int, use_ica: bool, settings: TrainSettings,
          log=None) -> list[str]:
    """Seeded training loop; returns the per-iteration loss log lines.
    Raises InputError, before the first iteration, for a ground-truth class
    the model lacks."""
    check_classes(dataset, cfg.num_classes)
    trainable = [p for k, p in M.named_parameters(params).items()
                 if stage != 1 or not M.is_ica_param(k)]
    if not (use_ica and stage >= 2):
        cfg = replace(cfg, ica_layers=0)
    data, grad = flatten(trainable)
    views = [p.grad for p in trainable]
    opt = AdamW()
    rng = np.random.default_rng(settings.seed)
    lines = []

    def run_clip(frames, targets):
        with ad.ComputationTape() as tape:
            loss, parts, _ = clip_loss(M.clip_forward(frames, cfg, params), targets)
        tape.backward(loss)
        return parts

    for it in range(settings.iters):
        picks = rng.integers(len(dataset), size=settings.batch)
        batch_args = [sample_frames(dataset[int(c)], cfg.t_train, rng)
                      for c in picks]
        grad.fill(0.0)
        all_parts = [run_clip(*a) for a in batch_args]
        inv = 1.0 / settings.batch
        grad *= inv
        _clip_gradients(grad, views)
        lr = settings.lr * (0.1 if it >= settings.lr_drop_at else 1.0)
        opt.step(data, grad, lr)
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
        gts = clip.targets(range(start, stop)) if mode == "oracle_ica" else None
        layers = M.clip_forward(frames, cfg, params, oracle_gts=gts)
        detections.extend(M.extract_detections(layers[-1], cfg))
        selections.extend(layer.selection for layer in layers if layer.selection is not None)
    return detections, selections
