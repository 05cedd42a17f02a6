"""Finite-difference audit of every differentiable primitive and of the
complete clip loss on a tiny model.

primitive_cases is the table of what the primitive audit differentiates:
one row per primitive that records itself on the tape, named as its
record, then the composed function logsumexp, the second paths of matmul,
gather_rows and context_attention (two frame blocks), and last the fused
records conv_relu, residual_norm, self_attention (over a two-clip stack),
roi_sample (a box a query, then one box a frame) and mlp (three layers).
primitive_checks checks every input of every row.

Each model check plays back one recorded pass (autodiff.Replay), holding its
ReLU masks, carried boxes, selections and assignments: a smooth function.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import matching as mt
from . import model as M
from . import training as tr
from .autodiff import GradCheckReport, Tensor
from .synthvid import Targets

Case = tuple[str, Callable[..., Tensor], list[np.ndarray]]


def micro_config() -> M.ModelConfig:
    return M.ModelConfig(num_classes=2, t_train=2, t_infer=2, num_queries=3,
                         dim=8, heads=2, decoder_layers=2, roi_size=2,
                         ica_layers=1, ica_topk=2, backbone_channels=(4, 4)).validate()


def micro_clip(seed: int):
    """Two random 8x8 frames and their ground truth: tracks 7 and 9, of
    classes 0 and 1, in both frames."""
    rng = np.random.default_rng(seed)
    frames = rng.random((2, 8, 8, 3))
    return frames, Targets(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                           np.array([[0.40, 0.40, 0.30, 0.35], [0.72, 0.60, 0.25, 0.30],
                                     [0.46, 0.42, 0.30, 0.35], [0.66, 0.62, 0.25, 0.30]]),
                           np.array([7, 9, 7, 9]))


def primitive_cases(seed: int) -> list[Case]:
    """Rows (name, op, input arrays): op maps one tensor per array to the
    output the audit differentiates. Inputs of conv_relu, mlp and
    box_pair_loss keep away from their kinks; div's divisor, the inputs of
    log and sqrt and the layer norms' gains stay positive."""
    rng = np.random.default_rng(seed)
    n = lambda *s: rng.normal(size=s)
    pos = lambda *s: rng.uniform(0.5, 2.0, size=s)
    # An overlapping and a disjoint pair, no corner or coordinate tied.
    gt_boxes = np.array([[0.4, 0.5, 0.3, 0.2], [0.6, 0.4, 0.25, 0.35]])
    pred_boxes = np.array([[0.45, 0.55, 0.35, 0.25], [0.2, 0.15, 0.2, 0.1]])
    positive = np.array([[True, False], [False, True], [False, False]])
    attend = lambda q, ctx, wq, bq, wk, wv, bv, wo, bo: ad.context_attention(
        q, ctx, ad.MHAParams(2, ad.LinearParams(wq, bq), wk, ad.LinearParams(wv, bv),
                             ad.LinearParams(wo, bo)))
    attention_weights = lambda: [n(8, 8), n(8), n(8, 8), n(8, 8), n(8), n(8, 8), n(8)]
    cases = [
        ("add", ad.add, [n(3, 4), n(3, 4)]),
        ("sub", ad.sub, [n(3, 4), n(3, 4)]),
        ("mul", ad.mul, [n(3, 4), n(3, 4)]),
        ("div", ad.div, [n(3, 4), pos(3, 4)]),
        ("exp", ad.exp, [n(3, 4)]),
        ("log", ad.log, [pos(3, 4)]),
        ("sqrt", ad.sqrt, [pos(3, 4)]),
        ("sigmoid", ad.sigmoid, [n(3, 4)]),
        ("sum", lambda x: ad.reduce_sum(x, axis=0), [n(3, 4)]),
        ("reshape", lambda x: ad.reshape(x, (4, 3)), [n(2, 6)]),
        ("transpose", lambda x: ad.transpose(x, (2, 0, 1)), [n(2, 3, 4)]),
        ("concat", lambda a, b: ad.concat([a, b], axis=1), [n(3, 2), n(3, 4)]),
        ("gather_rows", lambda x: ad.gather_rows(x, [0, 3, -2]), [n(4, 3)]),
        ("row_update", lambda x, rows: ad.row_update(x, [1, 3], rows), [n(4, 4), n(2, 4)]),
        ("matmul", ad.matmul, [n(2, 3, 4), n(4, 5)]),
        ("softmax", lambda x: ad.softmax(x, axis=-1), [n(2, 5)]),
        ("context_attention", attend, [n(3, 8), n(3, 5, 8), *attention_weights()]),
        ("logsumexp", lambda x: ad.logsumexp(x, axis=-1), [n(3, 5)]),
        ("focal_loss", lambda x: mt.focal_loss(x, positive), [n(3, 2)]),
        ("box_pair_loss", lambda x: geo.box_pair_loss(x, gt_boxes), [pred_boxes]),
        # matmul's adjoint for a right operand broadcast against the left's;
        # gather_rows' for repeated rows; context_attention's for two frame blocks.
        ("matmul_batched", ad.matmul, [n(1, 3, 4), n(2, 4, 5)]),
        ("gather_rows_repeated", lambda x: ad.gather_rows(x, [2, 0, -1, 1, 2, 0]), [n(3, 4)]),
        ("context_attention_blocks", attend, [n(2, 3, 8), n(2, 3, 5, 8), *attention_weights()]),
    ]
    # The fused records. Each output column of conv_relu, and of each of
    # mlp's hidden layers, keeps one sign, away from the kink; conv_relu's
    # through |patch @ w| <= max|x| * sum|w| (a padded tap reads 0).
    def away_from_kink(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        signs = np.resize([1.0, -1.0], w.shape[1])
        return signs * (np.abs(x @ w).max(axis=(0, 1)) + 0.5)

    conv_x, conv_w = n(2, 5, 6, 2), n(18, 3)
    conv_b = np.resize([1.0, -1.0], 3) * (np.abs(conv_x).max() * np.abs(conv_w).sum(axis=0) + 0.5)
    roi_boxes = np.array([[[0.45, 0.5, 0.5, 0.4], [0.3, 0.7, 0.22, 0.34]],
                          [[0.62, 0.38, 0.44, 0.5], [0.5, 0.5, 1.0, 1.0]]])
    roi = lambda boxes: lambda f, q, a: geo.roi_sample_frame(f, boxes, 2, q, a)
    cases += [
        ("conv_relu", lambda x, w, b: ad.conv_relu(x, ad.LinearParams(w, b)),
         [conv_x, conv_w, conv_b]),
        ("residual_norm", lambda x, y, g, b: ad.residual_norm(x, y, ad.LayerNormParams(g, b)),
         [n(2, 3, 6), n(2, 3, 6), pos(6), n(6)]),
        ("self_attention", lambda x, wq, bq, wk, wv, bv, wo, bo, g, b: ad.self_attention(
            x, ad.MHAParams(2, ad.LinearParams(wq, bq), wk, ad.LinearParams(wv, bv),
                            ad.LinearParams(wo, bo)),
            ad.LayerNormParams(g, b), clips=2),
         [n(4, 2, 8), n(8, 8), n(8), n(8, 8), n(8, 8), n(8), n(8, 8), n(8), pos(8), n(8)]),
        ("roi_sample", roi(roi_boxes), [n(2, 5, 5, 3), n(2, 2, 3), n(3, 12)]),
        ("roi_sample_shared_box", roi(roi_boxes[:, :1]), [n(2, 5, 5, 3), n(2, 2, 3), n(3, 12)]),
    ]
    mlp_x, mlp_w = n(2, 3, 4), [n(4, 5), n(5, 6), n(6, 3)]
    mlp_b = [away_from_kink(mlp_x, mlp_w[0])]
    mlp_b += [away_from_kink(np.maximum(mlp_x @ mlp_w[0] + mlp_b[0], 0.0), mlp_w[1]), n(3)]

    def three_layers(x, w0, b0, w1, b1, w2, b2):
        return ad.mlp(x, [ad.LinearParams(w0, b0), ad.LinearParams(w1, b1),
                          ad.LinearParams(w2, b2)])

    return cases + [("mlp", three_layers, [mlp_x, mlp_w[0], mlp_b[0], mlp_w[1], mlp_b[1],
                                           mlp_w[2], mlp_b[2]])]


def primitive_checks(seed: int) -> list[GradCheckReport]:
    """Check each input of each primitive_cases row with the other inputs
    held constant, the output weighted by seeded random values outside the
    tape. Input i of a row with several inputs is reported as name[i]."""
    rng = np.random.default_rng(seed + 1)
    reports = []
    for name, op, arrays in primitive_cases(seed):
        inputs = [ad.tensor(a) for a in arrays]
        weight = rng.normal(size=op(*inputs).shape)
        for i, x in enumerate(inputs):
            reports.append(ad.grad_check(lambda _x: op(*inputs), x, weight=weight,
                                         name=f"{name}[{i}]" if len(inputs) > 1 else name))
    return reports


def played(f: Callable[[], Tensor]) -> Callable[[Tensor], Tensor]:
    """f of the checked tensor, decorated to play back a pass recorded now."""
    replay = ad.Replay()
    with replay.record():
        f()
    return replay.play()(lambda _x: f())


def model_checks(seed: int) -> list[GradCheckReport]:
    cfg = micro_config()
    rng = np.random.default_rng(seed)
    params = M.init_model(cfg, rng)
    frames, gts = micro_clip(seed + 7)
    build = played(lambda: tr.clip_loss(M.clip_forward(frames, cfg, params), gts)[0])

    named = M.named_parameters(params)
    # grad_check turns requires_grad on for the checked tensor alone, so each
    # tape records only what depends on it.
    for tensor in named.values():
        tensor.requires_grad = False
    worst = GradCheckReport("micro_model_loss", 0.0)
    # Loss values are O(10): a wider step keeps ulp noise out of the
    # central differences of the smallest gradient entries.
    for name, tensor in named.items():
        rep = ad.grad_check(build, tensor, step=1e-4, name=f"micro_model_loss[{name}]")
        if rep.max_rel_err > worst.max_rel_err:
            worst = GradCheckReport(f"micro_model_loss (worst: {name})", rep.max_rel_err)

    stack_reps = stack_checks(seed, cfg, params)

    # Gradient w.r.t. the input pixels through the whole backbone.
    rng3 = np.random.default_rng(seed + 2)
    pix_w = rng3.normal(size=(2, 2, 2, cfg.dim))
    pix = ad.tensor(rng3.random((2, 8, 8, 3)))
    pixel_rep = ad.grad_check(played(lambda: M.backbone(pix, cfg, params)[0]), pix,
                              name="backbone_to_pixels", weight=pix_w)
    return [worst, *stack_reps, pixel_rep]


# The heads whose gradients carry a stack's per-clip weights: the class
# logits (focal frame weights), the last box layer (box row weights) and the
# identity head (the contrastive pair weights).
STACK_CHECKED = ("layer0.head_cls.w", "layer1.head_loc2.w", "layer0.head_id1.w")


def stack_checks(seed: int, cfg: M.ModelConfig, params: M.ModelParams
                 ) -> list[GradCheckReport]:
    """The loss of a two-clip stack, played, checked through STACK_CHECKED.
    The second clip keeps three of its four ground-truth rows, so the clips
    differ in object and contrastive pair counts, and each clip's weights
    show."""
    frames_a, gts_a = micro_clip(seed + 7)
    frames_b, gts_b = micro_clip(seed + 8)
    gts_b = Targets(*(getattr(gts_b, k)[:3] for k in ("frame", "cls", "box", "track")))
    frames, gts = np.concatenate([frames_a, frames_b]), Targets.stack([gts_a, gts_b], 2)
    build = played(lambda: tr.clip_loss(M.clip_forward(frames, cfg, params, clips=2), gts,
                                         clips=2)[0])
    named = M.named_parameters(params)
    return [ad.grad_check(build, named[name], step=1e-4, name=f"micro_stack_loss[{name}]")
            for name in STACK_CHECKED]


def run_suite(seed: int = 0) -> list[GradCheckReport]:
    with ad.precision(64):
        return primitive_checks(seed) + model_checks(seed)
