"""Finite-difference audit of every differentiable primitive and of the
complete clip loss on a tiny model.

Discrete decisions (set matching, aggregation selection) are captured once
and replayed, so central differences never cross an argmin/argmax flip.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import matching as mt
from . import model as M
from . import training as tr
from .autodiff import GradCheckReport, Tensor
from .geometry import Box


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


def primitive_checks(seed: int, tol: float) -> list[GradCheckReport]:
    rng = np.random.default_rng(seed)
    r = lambda *s: ad.tensor(rng.normal(size=s))
    rp = lambda *s: ad.tensor(rng.uniform(0.5, 2.0, size=s))
    checks: list[tuple[str, object, Tensor]] = []

    b = r(3, 4)
    checks.append(("add", lambda x: ad.reduce_sum(ad.mul(ad.add(x, b), b)), r(3, 4)))
    checks.append(("sub", lambda x: ad.reduce_sum(ad.mul(ad.sub(x, b), b)), r(3, 4)))
    checks.append(("mul", lambda x: ad.reduce_sum(ad.mul(x, b)), r(3, 4)))
    checks.append(("div", lambda x: ad.reduce_sum(ad.div(ad.add(x, b), x)), rp(3, 4)))
    checks.append(("neg", lambda x: ad.reduce_sum(ad.mul(ad.neg(x), b)), r(3, 4)))
    checks.append(("exp", lambda x: ad.reduce_sum(ad.mul(ad.exp(x), b)), r(3, 4)))
    checks.append(("log", lambda x: ad.reduce_sum(ad.mul(ad.log(x), b)), rp(3, 4)))
    checks.append(("sqrt", lambda x: ad.reduce_sum(ad.mul(ad.sqrt(x), b)), rp(3, 4)))
    checks.append(("pow_const", lambda x: ad.reduce_sum(ad.pow_const(x, 2.7)), rp(3, 4)))
    checks.append(("abs", lambda x: ad.reduce_sum(ad.absolute(x)),
                   ad.tensor(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5)))
    checks.append(("sigmoid", lambda x: ad.reduce_sum(ad.mul(ad.sigmoid(x), b)), r(3, 4)))
    checks.append(("softplus", lambda x: ad.reduce_sum(ad.mul(ad.softplus(x), b)), r(3, 4)))
    checks.append(("relu", lambda x: ad.reduce_sum(ad.mul(ad.relu(x), b)),
                   ad.tensor(rng.normal(size=(3, 4)) + 0.31)))
    m2 = r(3, 4)
    checks.append(("maximum", lambda x: ad.reduce_sum(ad.maximum(x, m2)), r(3, 4)))
    checks.append(("minimum", lambda x: ad.reduce_sum(ad.minimum(x, m2)), r(3, 4)))
    w = r(4, 5)
    checks.append(("matmul", lambda x: ad.reduce_sum(ad.mul(ad.matmul(x, w), r2_const)),
                   r(3, 4)))
    r2_const = r(3, 5)
    wgt = r(2, 5)
    checks.append(("softmax", lambda x: ad.reduce_sum(ad.mul(ad.softmax(x, axis=-1), wgt)),
                   r(2, 5)))
    checks.append(("sum", lambda x: ad.reduce_sum(ad.mul(ad.reduce_sum(x, axis=0), r1c)),
                   r(3, 4)))
    r1c = r(4)
    checks.append(("reshape_transpose", lambda x: ad.reduce_sum(
        ad.mul(ad.transpose(ad.reshape(x, (4, 3)), (1, 0)), b)), r(2, 6)))
    cpart = r(2, 4)
    checks.append(("concat_gather", lambda x: ad.reduce_sum(
        ad.mul(ad.gather_rows(ad.concat([x, cpart], axis=0), [0, 2, 4, 1]), rg)), r(3, 4)))
    rg = r(4, 4)
    rows = r(2, 4)
    checks.append(("row_update", lambda x: ad.reduce_sum(
        ad.mul(ad.row_update(x, [1, 3], rows), rg)), r(4, 4)))
    gain, bias = rp(6), r(6)
    checks.append(("layer_norm", lambda x: ad.reduce_sum(
        ad.mul(ad.layer_norm(x, gain, bias), lnw)), r(2, 6)))
    lnw = r(2, 6)
    checks.append(("logsumexp", lambda x: ad.reduce_sum(ad.logsumexp(x, axis=-1)), r(3, 5)))

    rng2 = np.random.default_rng(seed + 1)
    mha = ad.init_mha(rng2, 8, 2)
    kv = r(1, 4, 8)
    mha_w = r(1, 3, 8)
    checks.append(("multi_head_attention", lambda x: ad.reduce_sum(
        ad.mul(ad.multi_head_attention(x, kv, kv, mha), mha_w)), r(1, 3, 8)))

    checks.append(("extract_patches", lambda x: ad.reduce_sum(
        ad.pow_const(ad.extract_patches(x, 3, 2, 1), 2.0)), r(1, 6, 6, 3)))
    pts = np.array([[[0.3, 1.2], [2.7, 0.4], [1.5, 2.5], [3.2, 3.4]],
                    [[1.1, 0.2], [3.9, 3.0], [0.5, 2.5], [2.2, 1.4]]])
    bsw = r(2, 4, 3)
    checks.append(("bilinear_sample", lambda x: ad.reduce_sum(
        ad.mul(ad.bilinear_sample(x, pts), bsw)), r(2, 5, 5, 3)))

    boxes = np.array([[0.4, 0.5, 0.3, 0.2], [0.6, 0.4, 0.25, 0.35]])
    checks.append(("giou_pairs", lambda x: ad.reduce_sum(
        geo.giou_pairs(ad.sigmoid(x), boxes)), r(2, 4)))
    targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    checks.append(("focal_loss", lambda x: ad.reduce_sum(
        mt.focal_loss_logits(x, targets, 0.25, 2.0)), r(3, 2)))

    # The folded weight adjoint and the repeated-index scatter; appended so
    # that the draws above keep their values.
    left, mw = r(2, 3, 4), r(2, 3, 5)
    checks.append(("matmul_batched_weight", lambda x: ad.reduce_sum(
        ad.mul(ad.matmul(left, x), mw)), r(4, 5)))
    shared, sw = r(4, 5), r(2, 1, 5)
    checks.append(("matmul_shared_weight", lambda x: ad.reduce_sum(
        ad.mul(ad.matmul(x, shared), sw)), r(2, 1, 4)))
    gw = r(6, 4)
    checks.append(("gather_rows_repeated", lambda x: ad.reduce_sum(
        ad.mul(ad.gather_rows(x, [2, 0, 2, 1, 2, 0]), gw)), r(3, 4)))

    reports = []
    for name, fn, x in checks:
        reports.append(ad.grad_check(fn, x, tol=tol, name=name))
    return reports


def operand_checks(seed: int, tol: float) -> list[GradCheckReport]:
    """The inputs that primitive_checks holds constant: the other operand
    of the binary primitives and every input of layer_norm, attention and
    linear. A check named op[i] differentiates input i of op only."""
    rng = np.random.default_rng(seed + 3)
    r = lambda *s: ad.tensor(rng.normal(size=s))
    rp = lambda *s: ad.tensor(rng.uniform(0.5, 2.0, size=s))
    checks: list[tuple[str, object, Tensor]] = []

    a, w = r(3, 4), r(3, 4)
    checks.append(("add[1]", lambda x: ad.reduce_sum(ad.mul(ad.add(a, x), w)), r(3, 4)))
    checks.append(("sub[1]", lambda x: ad.reduce_sum(ad.mul(ad.sub(a, x), w)), r(3, 4)))
    checks.append(("mul[1]", lambda x: ad.reduce_sum(ad.mul(a, x)), r(3, 4)))
    checks.append(("maximum[1]", lambda x: ad.reduce_sum(ad.maximum(a, x)), r(3, 4)))
    checks.append(("minimum[1]", lambda x: ad.reduce_sum(ad.minimum(a, x)), r(3, 4)))
    base, rw = r(4, 4), r(4, 4)
    checks.append(("row_update[1]", lambda x: ad.reduce_sum(
        ad.mul(ad.row_update(base, [1, 3], x), rw)), r(2, 4)))
    head, cw = r(2, 4), r(5, 4)
    checks.append(("concat[1]", lambda x: ad.reduce_sum(
        ad.mul(ad.concat([head, x], axis=0), cw)), r(3, 4)))

    ln_x, gain, bias, lnw = r(2, 3, 6), rp(6), r(6), r(2, 3, 6)
    checks.append(("layer_norm[1]", lambda x: ad.reduce_sum(
        ad.mul(ad.layer_norm(ln_x, x, bias), lnw)), rp(6)))
    checks.append(("layer_norm[2]", lambda x: ad.reduce_sum(
        ad.mul(ad.layer_norm(ln_x, gain, x), lnw)), r(6)))

    # Two problems, three queries over four keys, two heads of width 4.
    q, k, v, aw = r(2, 3, 8), r(2, 4, 8), r(2, 4, 8), r(2, 3, 8)
    checks.append(("attention[0]", lambda x: ad.reduce_sum(
        ad.mul(ad.attention(x, k, v, 2), aw)), r(2, 3, 8)))
    checks.append(("attention[1]", lambda x: ad.reduce_sum(
        ad.mul(ad.attention(q, x, v, 2), aw)), r(2, 4, 8)))
    checks.append(("attention[2]", lambda x: ad.reduce_sum(
        ad.mul(ad.attention(q, k, x, 2), aw)), r(2, 4, 8)))

    left, lw, lb, yw = r(2, 3, 4), r(4, 5), r(5), r(2, 3, 5)
    checks.append(("linear[0]", lambda x: ad.reduce_sum(
        ad.mul(ad.linear(x, ad.LinearParams(lw, lb)), yw)), r(2, 3, 4)))
    checks.append(("linear[1]", lambda x: ad.reduce_sum(
        ad.mul(ad.linear(left, ad.LinearParams(x, lb)), yw)), r(4, 5)))
    checks.append(("linear[2]", lambda x: ad.reduce_sum(
        ad.mul(ad.linear(left, ad.LinearParams(lw, x)), yw)), r(5)))

    return [ad.grad_check(fn, x, tol=tol, name=name) for name, fn, x in checks]


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
        return primitive_checks(seed, tol) + model_checks(seed, tol) + operand_checks(seed, tol)
