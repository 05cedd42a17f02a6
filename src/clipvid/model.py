"""The clip-wise detector: convolutional backbone, adaptive per-frame object
queries, a decoder stack of clip-wide self-attention / identity-consistent
aggregation / box-guided cross-attention, and per-layer detection heads.

All frames of a clip are predicted in one forward pass. Per-frame blocks are
kept as separate [L, d] tensors so that the test-only within-frame attention
mask reproduces independent single-frame runs bit-exactly. Each decoder
layer's predictions are per-frame arrays (LayerOutput): class logits [L, C],
refined boxes [L, 4] as a tensor and as detached clamped float64 reference
boxes, and identity embeddings [L, d] where an aggregation layer follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .autodiff import LinearParams, MHAParams, Tensor
from .errors import ConfigError
from .geometry import Box

LN_EPS = 1e-5


@dataclass
class ModelConfig:
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
    backbone_stride: int = 8
    backbone_channels: tuple[int, ...] = (8, 16, 32)
    encoder_layers: int = 0
    fixed_queries: bool = False
    score_thresh: float = 0.05

    @staticmethod
    def paper_scale() -> "ModelConfig":
        """Published configuration; kept as documentation, not run here."""
        return ModelConfig(num_classes=30, t_train=3, t_infer=30,
                           num_queries=72, dim=384, heads=8, decoder_layers=6,
                           roi_size=7, ica_layers=2, ica_topk=10,
                           backbone_stride=16, backbone_channels=(64, 128, 256, 384))

    def validate(self) -> "ModelConfig":
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.ica_layers > self.decoder_layers:
            raise ConfigError("ica_layers exceeds decoder_layers")
        if self.ica_topk > self.num_queries:
            raise ConfigError("ica_topk exceeds num_queries")
        if 2 ** len(self.backbone_channels) != self.backbone_stride:
            raise ConfigError("backbone_channels must supply one block per stride doubling")
        return self

    def is_ica_layer(self, layer: int) -> bool:
        # The first layer can never aggregate: it has no preceding head to
        # supply identity embeddings or region features.
        return layer >= max(self.decoder_layers - self.ica_layers, 1)

    def has_identity_head(self, layer: int) -> bool:
        return self.is_ica_layer(layer + 1) if layer + 1 < self.decoder_layers else False


def save_config(cfg: ModelConfig, path) -> None:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Fields an older sidecar may still carry; they are ignored on load.
REMOVED_CONFIG_KEYS = ("ica_all_candidates",)
_BOOLS = {"True": True, "true": True, "1": True, "False": False, "false": False, "0": False}


def load_config(path) -> ModelConfig:
    raw: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            raw[key.strip()] = val.strip()
    unknown = sorted(set(raw) - {f.name for f in fields(ModelConfig)}
                     - set(REMOVED_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown field '{unknown[0]}'")
    kwargs = {}
    for f in fields(ModelConfig):
        if f.name not in raw:
            continue
        v = raw[f.name]
        try:
            if f.name == "backbone_channels":
                kwargs[f.name] = tuple(int(x) for x in v.split(",") if x)
            elif f.type == "bool":
                kwargs[f.name] = _BOOLS[v]
            elif f.type == "float":
                kwargs[f.name] = float(v)
            else:
                kwargs[f.name] = int(v)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}: field '{f.name}' has bad value {v!r}") from None
    return ModelConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


def init_ln(dim: int) -> LayerNormParams:
    return LayerNormParams(ad.param(np.ones(dim)), ad.param(np.zeros(dim)))


def apply_ln(x: Tensor, p: LayerNormParams) -> Tensor:
    return ad.layer_norm(x, p.gain, p.bias, LN_EPS)


@dataclass
class EncoderLayerParams:
    attn: MHAParams
    ln_attn: LayerNormParams
    ffn1: LinearParams
    ffn2: LinearParams
    ln_ffn: LayerNormParams


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
    convs: list[LinearParams]    # im2col 3x3 stride-2 blocks
    proj: LinearParams           # 1x1 projection to model dim
    query_embed: Tensor          # [L, d]
    encoder: list[EncoderLayerParams]
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

    encoder = []
    for _ in range(cfg.encoder_layers):
        encoder.append(EncoderLayerParams(
            ad.init_mha(rng, d, cfg.heads), init_ln(d),
            ad.init_linear(rng, d, 4 * d), ad.init_linear(rng, 4 * d, d),
            init_ln(d)))

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
    return ModelParams(convs, proj, query_embed, encoder, layers)


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}

    def put_linear(prefix: str, p: LinearParams):
        out[f"{prefix}.w"] = p.w
        out[f"{prefix}.b"] = p.b

    def put_mha(prefix: str, p: MHAParams):
        for name in ("q", "k", "v", "out"):
            put_linear(f"{prefix}.{name}", getattr(p, name))

    def put_ln(prefix: str, p: LayerNormParams):
        out[f"{prefix}.gain"] = p.gain
        out[f"{prefix}.bias"] = p.bias

    for i, c in enumerate(params.convs):
        put_linear(f"backbone.conv{i}", c)
    put_linear("backbone.proj", params.proj)
    out["query_embed"] = params.query_embed
    for i, e in enumerate(params.encoder):
        put_mha(f"encoder{i}.attn", e.attn)
        put_ln(f"encoder{i}.ln_attn", e.ln_attn)
        put_linear(f"encoder{i}.ffn1", e.ffn1)
        put_linear(f"encoder{i}.ffn2", e.ffn2)
        put_ln(f"encoder{i}.ln_ffn", e.ln_ffn)
    for i, lp in enumerate(params.layers):
        pre = f"layer{i}"
        put_mha(f"{pre}.self_attn", lp.self_attn)
        put_ln(f"{pre}.ln_self", lp.ln_self)
        put_mha(f"{pre}.cross_attn", lp.cross_attn)
        put_ln(f"{pre}.ln_cross", lp.ln_cross)
        out[f"{pre}.adapter"] = lp.adapter
        put_linear(f"{pre}.ffn1", lp.ffn1)
        put_linear(f"{pre}.ffn2", lp.ffn2)
        put_ln(f"{pre}.ln_ffn", lp.ln_ffn)
        put_linear(f"{pre}.head_cls", lp.head_cls)
        for j, hl in enumerate(lp.head_loc):
            put_linear(f"{pre}.head_loc{j}", hl)
        if lp.head_id is not None:
            for j, hl in enumerate(lp.head_id):
                put_linear(f"{pre}.head_id{j}", hl)
        if lp.ica_attn is not None:
            put_mha(f"{pre}.ica_attn", lp.ica_attn)
            put_ln(f"{pre}.ln_ica", lp.ln_ica)
            put_linear(f"{pre}.ica_pos", lp.ica_pos)
    return out


ICA_PARAM_MARKERS = (".ica_attn", ".ln_ica", ".ica_pos", ".head_id")


def is_ica_param(name: str) -> bool:
    return any(m in name for m in ICA_PARAM_MARKERS)


# ---------------------------------------------------------------------------
# Forward pieces


@dataclass
class FrameFeature:
    f: Tensor                    # [H, W, d]
    m: Tensor                    # [s*s, d] pooled summary


def backbone(frame, cfg: ModelConfig, params: ModelParams) -> FrameFeature:
    """Stride-2 conv blocks then a 1x1 projection to the model dim.

    frame: [H, W, 3] pixel array or Tensor (gradients reach the pixels)."""
    h0, w0 = frame.shape[0], frame.shape[1]
    if h0 % cfg.backbone_stride or w0 % cfg.backbone_stride:
        raise ConfigError(
            f"frame {h0}x{w0} not divisible by backbone stride {cfg.backbone_stride}")
    x = frame if isinstance(frame, Tensor) else ad.tensor(frame)
    x = ad.reshape(x, (1,) + tuple(frame.shape))
    for conv in params.convs:
        patches = ad.extract_patches(x, ksize=3, stride=2, pad=1)
        x = ad.relu(ad.linear(patches, conv))
    x = ad.linear(x, params.proj)
    h, w, d = x.shape[1], x.shape[2], x.shape[3]
    f = ad.reshape(x, (h, w, d))
    s = cfg.roi_size
    if h % s or w % s:
        raise ConfigError(f"feature map {h}x{w} not divisible by summary size {s}")
    pooled = ad.mean(ad.reshape(f, (s, h // s, s, w // s, d)), axis=(1, 3))
    return FrameFeature(f, ad.reshape(pooled, (s * s, d)))


def adaptive_queries(m: Tensor, e: Tensor) -> Tensor:
    """Each query row is the attention-weighted average of summary rows."""
    logits = ad.matmul(e, ad.transpose(m, (1, 0)))
    return ad.matmul(ad.softmax(logits, axis=-1), m)


def extended_self_attention(frame_queries: list[Tensor], lp: DecoderLayerParams,
                            within_frame_mask: bool = False) -> list[Tensor]:
    """Residual attention over every query of the clip; the test-only mask
    restricts key/value sets to each query's own frame."""
    if within_frame_mask:
        return [apply_ln(q + ad.multi_head_attention(q, q, q, lp.self_attn), lp.ln_self)
                for q in frame_queries]
    L = frame_queries[0].shape[0]
    allq = ad.concat(frame_queries, axis=0) if len(frame_queries) > 1 else frame_queries[0]
    attn = ad.multi_head_attention(allq, allq, allq, lp.self_attn)
    out = apply_ln(allq + attn, lp.ln_self)
    if len(frame_queries) == 1:
        return [out]
    return [ad.gather_rows(out, range(i * L, (i + 1) * L))
            for i in range(len(frame_queries))]


def guided_cross_attention_frame(queries: Tensor, boxes: np.ndarray, f: Tensor,
                                 lp: DecoderLayerParams, s: int) -> tuple[Tensor, Tensor]:
    """Each query attends to adapted features sampled inside its own box.

    Returns (updated [L, d] queries, adapted [L, s*s, d] region features,
    which aggregation layers reuse).
    """
    L, d = queries.shape
    rois = geo.roi_sample_frame(f, boxes, s)               # [L, s*s, d]
    patch = ad.reshape(ad.matmul(queries, lp.adapter), (L, s * s, d))
    region = rois + patch
    q3 = ad.reshape(queries, (L, 1, d))
    attn = ad.multi_head_attention(q3, region, region, lp.cross_attn)
    out = apply_ln(queries + ad.reshape(attn, (L, d)), lp.ln_cross)
    return out, region


def feed_forward(x: Tensor, lp: DecoderLayerParams) -> Tensor:
    inner = ad.linear(ad.relu(ad.linear(x, lp.ffn1)), lp.ffn2)
    return apply_ln(x + inner, lp.ln_ffn)


def mlp(x: Tensor, layers: tuple[LinearParams, ...]) -> Tensor:
    for i, p in enumerate(layers):
        x = ad.linear(x, p)
        if i + 1 < len(layers):
            x = ad.relu(x)
    return x


def l2_normalize_rows(x: Tensor) -> Tensor:
    norm2 = ad.reduce_sum(ad.mul(x, x), axis=-1, keepdims=True)
    return x / ad.sqrt(norm2 + 1e-12)


def detection_head_frame(queries: Tensor, ref_boxes: np.ndarray,
                         lp: DecoderLayerParams, with_identity: bool
                         ) -> tuple[Tensor, Tensor, np.ndarray, Tensor | None]:
    """Class logits, refined boxes (tensor + detached clamped), optional identities."""
    logits = ad.linear(queries, lp.head_cls)
    delta = mlp(queries, lp.head_loc)
    boxes_t = geo.boxes_refine(ref_boxes, delta)
    boxes = geo.clamp_boxes(np.asarray(boxes_t.data, dtype=np.float64))
    ident = None
    if with_identity and lp.head_id is not None:
        ident = l2_normalize_rows(mlp(queries, lp.head_id))
    return logits, boxes_t, boxes, ident


def encoder_forward(feats: list[FrameFeature], params: ModelParams) -> list[FrameFeature]:
    """Optional plain self-attention encoder over all clip feature tokens."""
    if not params.encoder:
        return feats
    shapes = [f.f.shape for f in feats]
    tokens = ad.concat([ad.reshape(f.f, (sh[0] * sh[1], sh[2]))
                        for f, sh in zip(feats, shapes)], axis=0)
    for ep in params.encoder:
        tokens = apply_ln(tokens + ad.multi_head_attention(tokens, tokens, tokens, ep.attn),
                          ep.ln_attn)
        inner = ad.linear(ad.relu(ad.linear(tokens, ep.ffn1)), ep.ffn2)
        tokens = apply_ln(tokens + inner, ep.ln_ffn)
    out = []
    offset = 0
    s = int(math.isqrt(feats[0].m.shape[0]))
    for f, sh in zip(feats, shapes):
        n = sh[0] * sh[1]
        fmap = ad.reshape(ad.gather_rows(tokens, range(offset, offset + n)), sh)
        offset += n
        pooled = ad.mean(ad.reshape(fmap, (s, sh[0] // s, s, sh[1] // s, sh[2])), axis=(1, 3))
        out.append(FrameFeature(fmap, ad.reshape(pooled, (s * s, sh[2]))))
    return out


# ---------------------------------------------------------------------------
# Full clip forward


@dataclass
class LayerOutput:
    """One decoder layer's predictions, one entry per frame."""

    logits: list[Tensor]                    # [L, C]
    boxes_t: list[Tensor]                   # [L, 4] differentiable refined boxes
    boxes: list[np.ndarray]                 # [L, 4] detached, clamped float64
    ident: list[Tensor] | None              # [L, d] unit rows, or None
    region: list[Tensor]                    # [L, s*s, d]
    matches: list = field(default_factory=list)   # IdentityMatch diagnostics


@dataclass
class ClipForwardResult:
    layers: list[LayerOutput]
    boxes_in: list[list[np.ndarray]] = field(default_factory=list)  # per layer/frame [L, 4]


def clip_forward(frames: np.ndarray, cfg: ModelConfig, params: ModelParams,
                 mode: str = "infer", gts=None, ica_active: bool = True,
                 within_frame_mask: bool = False,
                 frozen_ica: dict[int, list] | None = None,
                 frozen_boxes: list[list[np.ndarray]] | None = None) -> ClipForwardResult:
    """Run the detector on all frames of one clip in a single pass.

    frames: [T, H, W, 3] pixel array. mode is "train", "infer", or
    "oracle_ica" (ground-truth-guided aggregation; needs gts as a per-frame
    list of (class_id, Box, track_id)). ica_active=False skips aggregation
    and identity heads at runtime (parameters stay in place, frozen). The
    within-frame mask is a test hook that closes every cross-frame path.
    frozen_ica / frozen_boxes replay the discrete selections and the carried
    (non-differentiated) reference boxes of an earlier run, so finite
    differencing sees a smooth function.
    """
    from . import ica as ica_mod

    if mode not in ("train", "infer", "oracle_ica"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "oracle_ica" and gts is None:
        raise ConfigError("oracle_ica mode needs ground-truth annotations")
    T = frames.shape[0]
    L, d, s = cfg.num_queries, cfg.dim, cfg.roi_size

    feats = [backbone(frames[i], cfg, params) for i in range(T)]
    feats = encoder_forward(feats, params)

    if cfg.fixed_queries:
        frame_queries = [params.query_embed for _ in range(T)]
    else:
        frame_queries = [adaptive_queries(f.m, params.query_embed) for f in feats]
    frame_boxes = [np.tile(geo.FULL_FRAME, (L, 1)) for _ in range(T)]

    result = ClipForwardResult([])
    prev_layer: LayerOutput | None = None
    for li, lp in enumerate(params.layers):
        if frozen_boxes is not None:
            frame_boxes = frozen_boxes[li]
        result.boxes_in.append(frame_boxes)
        frame_queries = extended_self_attention(frame_queries, lp, within_frame_mask)

        matches = []
        if (ica_active and cfg.is_ica_layer(li) and prev_layer is not None
                and prev_layer.ident is not None):
            frame_queries, matches = ica_mod.ica_sublayer(
                frame_queries, prev_layer, lp, cfg, mode, gts,
                within_frame_mask=within_frame_mask,
                frozen_matches=frozen_ica.get(li) if frozen_ica else None)

        new_queries = []
        regions = []
        for i in range(T):
            q, region = guided_cross_attention_frame(
                frame_queries[i], frame_boxes[i], feats[i].f, lp, s)
            new_queries.append(feed_forward(q, lp))
            regions.append(region)
        frame_queries = new_queries

        with_identity = ica_active and cfg.has_identity_head(li)
        logits_f, boxes_tf, ident_f, new_boxes = [], [], [], []
        for i in range(T):
            logits, boxes_t, boxes, ident = detection_head_frame(
                frame_queries[i], frame_boxes[i], lp, with_identity)
            logits_f.append(logits)
            boxes_tf.append(boxes_t)
            ident_f.append(ident)
            new_boxes.append(boxes)
        frame_boxes = new_boxes
        layer_out = LayerOutput(logits=logits_f, boxes_t=boxes_tf, boxes=new_boxes,
                                ident=ident_f if with_identity else None,
                                region=regions, matches=matches)
        result.layers.append(layer_out)
        prev_layer = layer_out
    return result


# ---------------------------------------------------------------------------
# Detection extraction


@dataclass
class Detection:
    class_id: int
    score: float
    box: Box


def extract_detections(last_layer: LayerOutput, cfg: ModelConfig) -> list[list[Detection]]:
    """Per-frame scored boxes from every (query, class) slot above threshold.

    Reference boxes may reach past the frame edge; each detection keeps only
    the part inside the frame (corners clipped to [0, 1])."""
    out = []
    for logits, b in zip(last_layer.logits, last_layer.boxes):
        scores = 1.0 / (1.0 + np.exp(-np.asarray(logits.data, dtype=np.float64)))
        corners = np.clip(np.concatenate([b[:, :2] - b[:, 2:] / 2.0,
                                          b[:, :2] + b[:, 2:] / 2.0], axis=1), 0.0, 1.0)
        dets = []
        for j, row in enumerate(corners.tolist()):
            box = Box.from_corners(*row)
            for c in range(scores.shape[1]):
                if scores[j, c] > cfg.score_thresh:
                    dets.append(Detection(c, float(scores[j, c]), box))
        dets.sort(key=lambda dd: -dd.score)
        out.append(dets)
    return out
