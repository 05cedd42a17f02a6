"""The clip-wise detector: convolutional backbone, adaptive per-frame object
queries, a decoder stack of clip-wide self-attention / identity-consistent
aggregation / box-guided cross-attention, and per-layer detection heads.

All frames of a clip are predicted in one forward pass that carries one
[T, L, ·] tensor per quantity: T frames, L queries. Training stacks the B
clips of a batch into one pass of [B*T, L, ·] tensors, and inference stacks
a video clip's full t_infer-frame windows as B clips the same way. Clip-wide
self-attention, one autodiff.self_attention record, attends each clip's
T*L queries as one problem, and aggregation selects within each clip; the
backbone, cross-attention, feed-forward and heads work per frame. In
cross-attention each query attends only to its own s*s region rows, as one
autodiff.context_attention record that projects no keys or values; the
region features are one geometry.roi_sample_frame record, which samples
layer 0's shared full-frame grid once a frame. Stacking stays bit-exact
with single-clip and single-frame runs because numpy's matmul makes one
BLAS call per stacked matrix and each forward product over several rows is
one frame block's ([frames, rows, ·] stacks), so a frame's rows see the
same calls either way. Each decoder layer's predictions (LayerOutput) are
class logits [B*T, L, C], refined boxes [B*T, L, 4] as a tensor and as
detached clamped float64 reference boxes, and, where an aggregation layer
follows, identity embeddings [B*T, L, d] and the region features
[B*T, L, s*s, d] that the aggregation reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import ica
from .autodiff import LayerNormParams, LinearParams, MHAParams, Tensor
from .errors import ConfigError, DimensionError
from .geometry import Box


@dataclass
class ModelConfig:
    """The model's shape and inference settings; a config file holds
    exactly these fields. The last ica_layers decoder layers aggregate, each
    from the previous layer's identity head, so ica_layers must stay below
    decoder_layers: the first layer has no earlier head."""

    num_classes: int = 5
    t_train: int = 4
    t_infer: int = 8
    num_queries: int = 8
    dim: int = 32
    heads: int = 4
    decoder_layers: int = 3
    roi_size: int = 4
    ica_layers: int = 1          # counted from the last decoder layer
    ica_topk: int = 4
    backbone_channels: tuple[int, ...] = (8, 16, 32)
    score_thresh: float = 0.05

    @staticmethod
    def paper_scale() -> "ModelConfig":
        """Published configuration. It runs; ROADMAP.md's Baseline holds its
        measured forward frames/s."""
        return ModelConfig(num_classes=30, t_train=3, t_infer=30,
                           num_queries=72, dim=384, heads=8, decoder_layers=6,
                           roi_size=7, ica_layers=2, ica_topk=10,
                           backbone_channels=(64, 128, 256, 384))

    @property
    def backbone_stride(self) -> int:
        """Each backbone block halves the resolution."""
        return 2 ** len(self.backbone_channels)

    def check_frame(self, h: int, w: int) -> None:
        """ConfigError unless an h x w frame divides by backbone_stride and
        its feature map by roi_size."""
        stride, s = self.backbone_stride, self.roi_size
        if h % stride or w % stride:
            raise ConfigError(f"frame {h}x{w} not divisible by backbone stride {stride}")
        if h // stride % s or w // stride % s:
            raise ConfigError(f"feature map {h // stride}x{w // stride} not divisible by summary size {s}")

    def validate(self) -> "ModelConfig":
        for f in fields(self):         # counts are at least 1; ica_layers may be 0
            least = 0 if f.name == "ica_layers" else 1
            if f.type == "int" and getattr(self, f.name) < least:
                raise ConfigError(f"{f.name} must be at least {least}, got {getattr(self, f.name)}")
        if min(self.backbone_channels, default=1) < 1:
            raise ConfigError(f"backbone_channels must be at least 1, got {self.backbone_channels}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.ica_layers and self.ica_layers >= self.decoder_layers:
            raise ConfigError(f"ica_layers {self.ica_layers} must be below decoder_layers "
                              f"{self.decoder_layers}: the first layer has no earlier head "
                              "to aggregate from")
        if self.ica_topk > self.num_queries:
            raise ConfigError(f"ica_topk {self.ica_topk} exceeds num_queries {self.num_queries}")
        if not math.isfinite(self.score_thresh):
            raise ConfigError(f"score_thresh must be finite, got {self.score_thresh}")
        return self

    def is_ica_layer(self, layer: int) -> bool:
        return layer >= self.decoder_layers - self.ica_layers

    def has_identity_head(self, layer: int) -> bool:
        return layer + 1 < self.decoder_layers and self.is_ica_layer(layer + 1)


def save_config(cfg: ModelConfig, path) -> None:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> ModelConfig:
    """The config of a file of field=value lines; ConfigError for a field
    that is unknown, repeated or of a bad value."""
    types = {f.name: f.type for f in fields(ModelConfig)}
    kwargs = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, v = (part.strip() for part in line.partition("="))
            if key not in types:
                raise ConfigError(f"{path}: unknown field '{key}'")
            if key in kwargs:
                raise ConfigError(f"{path}: repeated field '{key}'")
            try:
                if key == "backbone_channels":
                    kwargs[key] = tuple(int(x) for x in v.split(",") if x)
                elif types[key] == "float":
                    kwargs[key] = float(v)
                else:
                    kwargs[key] = int(v)
            except ValueError:
                raise ConfigError(f"{path}: field '{key}' has bad value {v!r}") from None
    return ModelConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# Parameters


def init_ln(dim: int) -> LayerNormParams:
    return LayerNormParams(ad.param(np.ones(dim)), ad.param(np.zeros(dim)))


@dataclass
class DecoderLayerParams:
    self_attn: MHAParams
    ln_self: LayerNormParams
    cross_attn: MHAParams
    ln_cross: LayerNormParams
    adapter: Tensor              # [d, s*s*d] region-feature adapter
    ffn1: LinearParams
    ffn2: LinearParams
    ln_ffn: LayerNormParams
    head_cls: LinearParams
    head_loc: tuple[LinearParams, LinearParams, LinearParams]
    head_id: tuple[LinearParams, LinearParams] | None = None
    ica_attn: MHAParams | None = None
    ln_ica: LayerNormParams | None = None
    ica_pos: LinearParams | None = None


@dataclass
class ModelParams:
    convs: list[LinearParams]    # autodiff.conv_relu blocks: [9*cin, cout] weights
    proj: LinearParams           # 1x1 projection to model dim
    query_embed: Tensor          # [L, d]
    layers: list[DecoderLayerParams]


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    cfg.validate()
    d, s = cfg.dim, cfg.roi_size
    convs = []
    cin = 3
    for cout in cfg.backbone_channels:
        # relu gain: the plain 1/sqrt(fan_in) init collapses activation
        # variance over the conv stack and washes out spatial contrast
        convs.append(ad.init_linear(rng, 9 * cin, cout, gain=math.sqrt(6.0)))
        cin = cout
    proj = ad.init_linear(rng, cin, d)
    # unit-normal embedding rows, as is conventional for object queries
    query_embed = ad.param(rng.normal(size=(cfg.num_queries, d)))
    bound = 1.0 / math.sqrt(d)

    layers = []
    for l in range(cfg.decoder_layers):
        lp = DecoderLayerParams(
            self_attn=ad.init_mha(rng, d, cfg.heads),
            ln_self=init_ln(d),
            cross_attn=ad.init_mha(rng, d, cfg.heads),
            ln_cross=init_ln(d),
            adapter=ad.param(rng.uniform(-bound, bound, size=(d, s * s * d))),
            ffn1=ad.init_linear(rng, d, 4 * d),
            ffn2=ad.init_linear(rng, 4 * d, d),
            ln_ffn=init_ln(d),
            head_cls=ad.init_linear(rng, d, cfg.num_classes),
            head_loc=(ad.init_linear(rng, d, d), ad.init_linear(rng, d, d),
                      ad.init_linear(rng, d, 4)),
        )
        if cfg.has_identity_head(l):
            lp.head_id = (ad.init_linear(rng, d, d), ad.init_linear(rng, d, d))
        if cfg.is_ica_layer(l):
            lp.ica_attn = ad.init_mha(rng, d, cfg.heads)
            lp.ln_ica = init_ln(d)
            lp.ica_pos = ad.init_linear(rng, d, d)
        layers.append(lp)
    return ModelParams(convs, proj, query_embed, layers)


# Checkpoint names of the ModelParams fields that are not named as stored.
_NAME_PREFIX = {"convs": "backbone.conv", "proj": "backbone.proj", "layers": "layer"}


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Every parameter tensor by checkpoint name, in declaration order. A
    dataclass field joins with '.', a list or tuple item appends its index
    (layer0.head_loc1.w); an int (head count) or None (an absent part) holds
    no tensor."""
    out: dict[str, Tensor] = {}

    def walk(name: str, v) -> None:
        if isinstance(v, Tensor):
            out[name] = v
        elif isinstance(v, (list, tuple)):
            for i, item in enumerate(v):
                walk(f"{name}{i}", item)
        elif is_dataclass(v):
            for f in fields(v):
                walk(f"{name}.{f.name}", getattr(v, f.name))

    for f in fields(params):
        walk(_NAME_PREFIX.get(f.name, f.name), getattr(params, f.name))
    return out


ICA_PARAM_MARKERS = (".ica_attn", ".ln_ica", ".ica_pos", ".head_id")


def is_ica_param(name: str) -> bool:
    return any(m in name for m in ICA_PARAM_MARKERS)


# ---------------------------------------------------------------------------
# Forward pieces


def backbone(frames, cfg: ModelConfig, params: ModelParams) -> tuple[Tensor, Tensor]:
    """Stride-2 conv_relu blocks, a 1x1 projection to the model dim, then each
    frame's feature map average-pooled to roi_size x roi_size summary rows:
    returns the [T, h, w, d] maps f and the [T, s*s, d] summaries m.

    frames: [T, H, W, 3] pixel array or Tensor (gradients reach the pixels)."""
    cfg.check_frame(frames.shape[1], frames.shape[2])
    x = frames if isinstance(frames, Tensor) else ad.tensor(frames)
    for conv in params.convs:
        x = ad.conv_relu(x, conv)
    f = ad.mlp(x, (params.proj,))
    t, h, w, d = f.shape
    s = cfg.roi_size
    pooled = ad.mean(ad.reshape(f, (t, s, h // s, s, w // s, d)), axis=(2, 4))
    return f, ad.reshape(pooled, (t, s * s, d))


def adaptive_queries(m: Tensor, e: Tensor) -> Tensor:
    """Each frame's query rows are attention-weighted averages of its
    summary rows: [T, s*s, d] summaries, [L, d] embeddings -> [T, L, d]."""
    logits = ad.matmul(e, ad.transpose(m, (0, 2, 1)))
    return ad.matmul(ad.softmax(logits, axis=-1), m)


def guided_cross_attention(queries: Tensor, boxes: np.ndarray, f: Tensor,
                           lp: DecoderLayerParams, s: int) -> tuple[Tensor, Tensor]:
    """Each query attends to adapted features sampled inside its own box.

    queries [T, L, d], boxes [T, 1 or L, 4], f [T, h, w, d]. Returns (updated
    [T, L, d] queries, adapted [T, L, s*s, d] region features, which
    aggregation layers reuse).
    """
    region = geo.roi_sample_frame(f, boxes, s, queries, lp.adapter)
    out = ad.residual_norm(queries, ad.context_attention(queries, region, lp.cross_attn),
                           lp.ln_cross)
    return out, region


def l2_normalize_rows(x: Tensor) -> Tensor:
    norm2 = ad.reduce_sum(ad.mul(x, x), axis=-1, keepdims=True)
    return x / ad.sqrt(norm2 + 1e-12)


def detection_head(queries: Tensor, ref_boxes: np.ndarray,
                   lp: DecoderLayerParams, with_identity: bool
                   ) -> tuple[Tensor, Tensor, np.ndarray, Tensor | None]:
    """Class logits, refined boxes (tensor + held detached clamped), optional
    identities, for [..., L, d] queries and [..., 1 or L, 4] reference boxes."""
    logits = ad.mlp(queries, (lp.head_cls,))
    delta = ad.mlp(queries, lp.head_loc)
    boxes_t = geo.boxes_refine(ref_boxes, delta)
    boxes = ad.hold(lambda: geo.clamp_boxes(np.asarray(boxes_t.data, dtype=np.float64)))
    ident = None
    if with_identity:
        ident = l2_normalize_rows(ad.mlp(queries, lp.head_id))
    return logits, boxes_t, boxes, ident


# ---------------------------------------------------------------------------
# Full clip forward


@dataclass
class LayerOutput:
    """One decoder layer's predictions for every frame of the clip."""

    logits: Tensor                          # [T, L, C]
    boxes_t: Tensor                         # [T, L, 4] differentiable refined boxes
    boxes: np.ndarray                       # [T, L, 4] detached, clamped float64
    ident: Tensor | None                    # [T, L, d] unit rows, or None
    region: Tensor | None                   # [T, L, s*s, d], or None
    selection: ica.Selection | None = None  # an aggregation layer's selection


def clip_forward(frames: np.ndarray, cfg: ModelConfig, params: ModelParams,
                 oracle_gts=None, clips: int = 1) -> list[LayerOutput]:
    """Run the detector on all frames of a stack of clips in a single pass
    and return every decoder layer's output.

    frames: [B*T, H, W, 3] pixel array, the T frames of each of B = clips
    clips of equal length, clip-major. Self-attention and aggregation stay
    within a clip, so each clip's outputs are those of its own pass, bit
    for bit. Layer 0's boxes are [B*T, 1, 4] full frames, one a frame.
    With oracle_gts, the stack's synthvid.Targets table, aggregation
    follows the ground-truth tracks. Aggregation runs on the layers cfg
    marks; a config with ica_layers=0 has none.
    """
    if clips < 1 or len(frames) % clips:
        raise DimensionError(f"{len(frames)} frames do not split into {clips} clips")
    f, m = backbone(frames, cfg, params)
    queries = adaptive_queries(m, params.query_embed)
    boxes = np.tile(geo.FULL_FRAME, (frames.shape[0], 1, 1))        # one shared box a frame

    layers: list[LayerOutput] = []
    for li, lp in enumerate(params.layers):
        queries = ad.self_attention(queries, lp.self_attn, lp.ln_self, clips)

        selection = None
        if cfg.is_ica_layer(li):
            queries, selection = ica.ica_sublayer(queries, layers[-1], lp, cfg, oracle_gts, clips)

        queries, region = guided_cross_attention(queries, boxes, f, lp, cfg.roi_size)
        queries = ad.residual_norm(queries, ad.mlp(queries, (lp.ffn1, lp.ffn2)), lp.ln_ffn)
        feeds_ica = cfg.has_identity_head(li)
        logits, boxes_t, boxes, ident = detection_head(queries, boxes, lp, feeds_ica)
        layers.append(LayerOutput(logits, boxes_t, boxes, ident,
                                  region if feeds_ica else None, selection))
    return layers


# ---------------------------------------------------------------------------
# Detection extraction


@dataclass
class Detection:
    class_id: int
    score: float
    box: Box


def extract_detections(last_layer: LayerOutput, cfg: ModelConfig) -> list[list[Detection]]:
    """Per-frame scored boxes from every (query, class) slot above threshold,
    in descending score order; equal scores keep (query, class) order.

    Reference boxes may reach past the frame edge; each detection keeps only
    the part inside the frame (corners clipped to [0, 1]). The slots of all
    frames are found and ordered in one pass, and each query's Box is built
    from its clipped corners in float64 as ((x1 + x2) / 2, x2 - x1)."""
    scores = ad.stable_sigmoid(np.asarray(last_layer.logits.data, dtype=np.float64))
    x1, y1, x2, y2 = np.moveaxis(np.clip(geo.box_corners(last_layer.boxes), 0.0, 1.0), -1, 0)
    boxes = [Box(*row) for row in np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1],
                                           axis=-1).reshape(-1, 4).tolist()]
    frames, queries, _ = scores.shape
    frame, query, cls = np.nonzero(scores > cfg.score_thresh)              # [T, L, C] order
    kept = scores[frame, query, cls]
    order = np.lexsort((-kept, frame))                  # stable: by frame, then score
    frame, kept = frame[order], kept[order]
    dets = [Detection(c, score, boxes[j]) for c, score, j
            in zip(cls[order].tolist(), kept.tolist(), (frame * queries + query[order]).tolist())]
    ends = np.cumsum(np.bincount(frame, minlength=frames)).tolist()
    return [dets[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
