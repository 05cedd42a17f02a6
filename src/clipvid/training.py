"""Two-stage training: clip loss assembly, decoupled-weight-decay adaptive
moments optimizer, and the seeded training loop.

Stage 1 trains everything except the aggregation machinery with aggregation
disabled; stage 2 fine-tunes the whole model with it enabled, or trains as
stage 1 does without it. Each iteration stacks its batch's clips into one
forward pass, one loss and one tape backward (clips of different sampled
lengths go into one stack per length). The loss is one set loss over every
layer's frames of the stack, each clip normalized by its own object count,
plus the pair-normalized contrastive identity loss of each layer feeding an
aggregation layer, each clip normalized by its own pair count; the
gradients of the clips' summed losses are scaled by one over the batch
size.

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
from .errors import ConfigError, NumericError
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


def clip_loss(layers: list[M.LayerOutput], targets: Targets, clips: int = 1
              ) -> tuple[Tensor, LossParts]:
    """Deep-supervised set loss of a stack of clips, plus the contrastive
    identity loss of every layer with identity embeddings.

    layers hold the [B*T, L, ·] outputs of B = clips stacked clips and
    targets the stack's ground-truth table. Every layer's predictions go
    layer-major into one [Ly*B*T, L, ·] set_loss call against the table
    tiled over the layers; each frame is weighted by one over its clip's
    object count, so each clip is normalized by its own. Each contrastive
    term reads its own layer's matches. Returns the loss, summed over the
    clips, and its parts.
    """
    F = layers[0].logits.shape[0]
    T = F // clips
    scale = 1.0 / np.maximum(np.bincount(targets.frame // T, minlength=clips), 1)
    res = mt.set_loss(ad.concat([layer.logits for layer in layers]),
                      ad.concat([layer.boxes_t for layer in layers]),
                      np.concatenate([layer.boxes for layer in layers]),
                      targets.tile(len(layers), F),
                      weight=np.tile(np.repeat(scale, T), len(layers)))
    pred = res.pred.reshape(len(layers), len(targets))
    total = res.total
    parts = LossParts(cls=mt.LAMBDA_CLS * res.cls_term, giou=mt.LAMBDA_GIOU * res.giou_term,
                      l1=mt.LAMBDA_L1 * res.l1_term)
    for layer, layer_pred in zip(layers, pred):
        if layer.ident is not None:
            con, pairs = ica_mod.contrastive_loss(layer.ident, targets.frame, targets.track,
                                                  layer_pred, clips)
            if pairs > 0:
                total = total + con * CONTRASTIVE_WEIGHT
                parts.con += CONTRASTIVE_WEIGHT * float(con.data)
    parts.total = float(total.data)
    return total, parts


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


def stack_clips(batch: list[tuple[np.ndarray, Targets]]
                ) -> list[tuple[np.ndarray, Targets, int]]:
    """Sampled (frames, targets) clips as stacks of equal frame count, one
    per count in order of first appearance: (frames [B*T, H, W, 3], the
    stack's ground-truth table, B)."""
    groups: dict[int, list[tuple[np.ndarray, Targets]]] = {}
    for frames, targets in batch:
        groups.setdefault(len(frames), []).append((frames, targets))
    return [(np.concatenate([f for f, _ in group]), Targets.stack([t for _, t in group], t),
             len(group)) for t, group in groups.items()]


def batch_step(batch: list[tuple[np.ndarray, Targets]], cfg: M.ModelConfig,
               params: M.ModelParams) -> LossParts:
    """One forward, loss and backward pass per stack of the batch's clips
    (one stack unless their frame counts differ). The gradients of the
    summed clip losses accumulate into the parameters' .grad; returns the
    loss parts, summed over the clips."""
    parts = LossParts()
    for frames, targets, clips in stack_clips(batch):
        with ad.ComputationTape() as tape:
            loss, stack_parts = clip_loss(M.clip_forward(frames, cfg, params, clips=clips),
                                          targets, clips=clips)
        tape.backward(loss)
        for f in fields(LossParts):
            setattr(parts, f.name, getattr(parts, f.name) + getattr(stack_parts, f.name))
    return parts


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
    the model lacks, and NumericError for a step that leaves a parameter
    non-finite."""
    check_classes(dataset, cfg.num_classes)
    ica = use_ica and stage >= 2
    trainable = {k: p for k, p in M.named_parameters(params).items()
                 if ica or not M.is_ica_param(k)}
    if not ica:
        cfg = replace(cfg, ica_layers=0)
    data, grad = flatten(list(trainable.values()))
    views = [p.grad for p in trainable.values()]
    opt = AdamW()
    rng = np.random.default_rng(settings.seed)
    lines = []

    inv = 1.0 / settings.batch
    for it in range(settings.iters):
        picks = rng.integers(len(dataset), size=settings.batch)
        batch = [sample_frames(dataset[int(c)], cfg.t_train, rng) for c in picks]
        grad.fill(0.0)
        parts = batch_step(batch, cfg, params)
        grad *= inv
        _clip_gradients(grad, views)
        lr = settings.lr * (0.1 if it >= settings.lr_drop_at else 1.0)
        opt.step(data, grad, lr)
        if not np.isfinite(data).all():
            bad = next(k for k, p in trainable.items() if not np.isfinite(p.data).all())
            raise NumericError(f"iteration {it}: parameter '{bad}' is not finite after the step")
        agg = LossParts(**{f.name: getattr(parts, f.name) * inv for f in fields(LossParts)})
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
    """Detect on every frame of a clip in windows of cfg.t_infer frames: the
    full windows as one stacked pass, so peak memory grows with their number,
    and a shorter remainder as its own pass. mode is "infer" or "oracle_ica"
    (aggregation follows the clip's ground-truth tracks); use_ica=False runs
    without aggregation. Returns (per-frame detections, every pass's
    aggregation-layer selections in pass and layer order).
    """
    if mode not in ("infer", "oracle_ica"):
        raise ConfigError(f"unknown mode {mode!r}")
    if not use_ica:
        cfg = replace(cfg, ica_layers=0)
    total = clip.frames.shape[0]
    full = total - total % cfg.t_infer
    detections: list[list] = []
    selections = []
    for start, stop, clips in ((0, full, full // cfg.t_infer), (full, total, 1)):
        if stop > start:
            gts = clip.targets(range(start, stop)) if mode == "oracle_ica" else None
            layers = M.clip_forward(clip.frames[start:stop], cfg, params, oracle_gts=gts,
                                    clips=clips)
            detections.extend(M.extract_detections(layers[-1], cfg))
            selections.extend(layer.selection for layer in layers if layer.selection is not None)
    return detections, selections
