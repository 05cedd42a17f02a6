"""Finite-difference audit of every differentiable primitive and of the
complete clip loss on a tiny model.

primitive_cases is the table of what the primitive audit differentiates:
one row per primitive that records itself on the tape, named as its
record, then the composed functions the loss uses and the second adjoint
paths of matmul and gather_rows. primitive_checks checks every input of
every row.

Discrete decisions (set matching, aggregation selection) are captured once
and replayed, so central differences never cross an argmin/argmax flip.
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
from .geometry import Box

Case = tuple[str, Callable[..., Tensor], list[np.ndarray]]


def micro_config() -> M.ModelConfig:
    return M.ModelConfig(num_classes=2, t_train=2, t_infer=2, num_queries=3,
                         dim=8, heads=2, decoder_layers=2, roi_size=2,
                         ica_layers=1, ica_topk=2, backbone_channels=(4, 4)).validate()


def micro_clip(seed: int):
    rng = np.random.default_rng(seed)
    frames = rng.random((2, 8, 8, 3))
    gts = [
        [(0, Box(0.40, 0.40, 0.30, 0.35), 7), (1, Box(0.72, 0.60, 0.25, 0.30), 9)],
        [(0, Box(0.46, 0.42, 0.30, 0.35), 7), (1, Box(0.66, 0.62, 0.25, 0.30), 9)],
    ]
    return frames, gts


def primitive_cases(seed: int) -> list[Case]:
    """Rows (name, op, input arrays): op maps one tensor per array to the
    output the audit differentiates. Inputs of abs and relu keep away from
    their kinks; div's divisor, the inputs of log, sqrt and pow_const and
    layer_norm's gain stay positive."""
    rng = np.random.default_rng(seed)
    n = lambda *s: rng.normal(size=s)
    pos = lambda *s: rng.uniform(0.5, 2.0, size=s)
    off_zero = lambda *s: rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.2, 2.0, size=s)
    mha = ad.init_mha(rng, 8, 2)
    points = np.array([[[0.3, 1.2], [2.7, 0.4], [1.5, 2.5], [3.2, 3.4]],
                       [[1.1, 0.2], [3.9, 3.0], [0.5, 2.5], [2.2, 1.4]]])
    gt_boxes = np.array([[0.4, 0.5, 0.3, 0.2], [0.6, 0.4, 0.25, 0.35]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return [
        ("add", ad.add, [n(3, 4), n(3, 4)]),
        ("sub", ad.sub, [n(3, 4), n(3, 4)]),
        ("mul", ad.mul, [n(3, 4), n(3, 4)]),
        ("div", ad.div, [n(3, 4), pos(3, 4)]),
        ("neg", ad.neg, [n(3, 4)]),
        ("exp", ad.exp, [n(3, 4)]),
        ("log", ad.log, [pos(3, 4)]),
        ("sqrt", ad.sqrt, [pos(3, 4)]),
        ("pow_const", lambda x: ad.pow_const(x, 2.7), [pos(3, 4)]),
        ("abs", ad.absolute, [off_zero(3, 4)]),
        ("sigmoid", ad.sigmoid, [n(3, 4)]),
        ("softplus", ad.softplus, [n(3, 4)]),
        ("relu", ad.relu, [off_zero(3, 4)]),
        ("maximum", ad.maximum, [n(3, 4), n(3, 4)]),
        ("minimum", ad.minimum, [n(3, 4), n(3, 4)]),
        ("sum", lambda x: ad.reduce_sum(x, axis=0), [n(3, 4)]),
        ("reshape", lambda x: ad.reshape(x, (4, 3)), [n(2, 6)]),
        ("transpose", lambda x: ad.transpose(x, (2, 0, 1)), [n(2, 3, 4)]),
        ("concat", lambda a, b: ad.concat([a, b], axis=1), [n(3, 2), n(3, 4)]),
        ("gather_rows", lambda x: ad.gather_rows(x, [0, 3, -2]), [n(4, 3)]),
        ("row_update", lambda x, rows: ad.row_update(x, [1, 3], rows), [n(4, 4), n(2, 4)]),
        ("matmul", ad.matmul, [n(2, 3, 4), n(4, 5)]),
        ("softmax", lambda x: ad.softmax(x, axis=-1), [n(2, 5)]),
        ("layer_norm", ad.layer_norm, [n(2, 3, 6), pos(6), n(6)]),
        ("attention", lambda q, k, v: ad.attention(q, k, v, 2),
         [n(2, 3, 8), n(2, 4, 8), n(2, 4, 8)]),
        ("extract_patches", lambda x: ad.extract_patches(x, 3, 2, 1), [n(1, 6, 6, 3)]),
        ("bilinear_sample", lambda f: ad.bilinear_sample(f, points), [n(2, 5, 5, 3)]),
        ("linear", lambda x, w, b: ad.linear(x, ad.LinearParams(w, b)),
         [n(2, 3, 4), n(4, 5), n(5)]),
        ("logsumexp", lambda x: ad.logsumexp(x, axis=-1), [n(3, 5)]),
        ("multi_head_attention", lambda q, k, v: ad.multi_head_attention(q, k, v, mha),
         [n(1, 3, 8), n(1, 4, 8), n(1, 4, 8)]),
        ("giou_pairs", lambda x: geo.giou_pairs(ad.sigmoid(x), gt_boxes), [n(2, 4)]),
        ("focal_loss", lambda x: mt.focal_loss_logits(x, targets), [n(3, 2)]),
        # matmul's adjoint for a right operand with leading axes, here
        # broadcast against the left's; gather_rows' for repeated rows.
        ("matmul_batched", ad.matmul, [n(1, 3, 4), n(2, 4, 5)]),
        ("gather_rows_repeated", lambda x: ad.gather_rows(x, [2, 0, -1, 1, 2, 0]), [n(3, 4)]),
    ]


def primitive_checks(seed: int, tol: float) -> list[GradCheckReport]:
    """Check each input of each primitive_cases row with the other inputs
    held constant, the output weighted by seeded random values. Input i of
    a row with several inputs is reported as name[i]."""
    rng = np.random.default_rng(seed + 1)
    reports = []
    for name, op, arrays in primitive_cases(seed):
        inputs = [ad.tensor(a) for a in arrays]
        weight = ad.tensor(rng.normal(size=op(*inputs).shape))
        for i, x in enumerate(inputs):
            reports.append(ad.grad_check(lambda _x: ad.reduce_sum(ad.mul(op(*inputs), weight)),
                                         x, tol=tol,
                                         name=f"{name}[{i}]" if len(inputs) > 1 else name))
    return reports


def model_checks(seed: int, tol: float) -> list[GradCheckReport]:
    cfg = micro_config()
    rng = np.random.default_rng(seed)
    params = M.init_model(cfg, rng)
    frames, gts = micro_clip(seed + 7)

    out = M.clip_forward(frames, cfg, params)
    _, _, assignments = tr.clip_loss(out, gts)

    def build(_x: Tensor) -> Tensor:
        total, _, _ = tr.clip_loss(M.clip_forward(frames, cfg, params, replay=out), gts,
                                   frozen_assignments=assignments)
        return total

    named = M.named_parameters(params)
    worst = GradCheckReport("micro_model_loss", 0.0, tol)
    # Loss values are O(10): a wider step keeps ulp noise out of the
    # central differences of the smallest gradient entries.
    for name, tensor in named.items():
        rep = ad.grad_check(build, tensor, step=1e-4, tol=tol,
                            name=f"micro_model_loss[{name}]")
        if rep.max_rel_err > worst.max_rel_err:
            worst = GradCheckReport(f"micro_model_loss (worst: {name})",
                                    rep.max_rel_err, tol)

    # Gradient w.r.t. the input pixels through the whole backbone.
    def pixel_loss(x: Tensor) -> Tensor:
        feat = M.backbone(x, cfg, params)
        return ad.reduce_sum(ad.mul(feat.f, ad.tensor(pix_w)))

    rng3 = np.random.default_rng(seed + 2)
    pix_w = rng3.normal(size=(2, 2, 2, cfg.dim))
    pix = ad.tensor(rng3.random((2, 8, 8, 3)))
    pixel_rep = ad.grad_check(pixel_loss, pix, tol=tol, name="backbone_to_pixels")
    return [worst, pixel_rep]


def run_suite(seed: int = 0, tol: float = 1e-4) -> list[GradCheckReport]:
    with ad.precision(64):
        return primitive_checks(seed, tol) + model_checks(seed, tol)
