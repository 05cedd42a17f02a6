"""Command-line entry point: dataset generation, two-stage training,
evaluation, ablation grids, and gradient checking.

Exit codes:
  0  ok
  1  usage or config error: bad arguments, or a ConfigError such as a
     malformed --config value or a checkpoint that does not fit the config
  2  I/O error: an unreadable file, or a ParseError from a malformed
     dataset or checkpoint (the message gives the byte offset or line)
  3  check failure (gradcheck)
  4  numeric error: a NumericError, such as a NaN or inf in the model's
     activations, costs or losses (e.g. after a diverging --lr)
CLIPVID_PRECISION=32|64 overrides float precision (gradcheck always 64).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import autodiff as ad
from . import evaluate as ev
from . import ica as ica_mod
from . import model as M
from . import synthvid as sv
from . import training as tr
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, NumericError, ParseError
from .model import Detection, ModelConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECK = 3
EXIT_NUMERIC = 4

TRAIN_VARIANTS = ("full", "no_ica", "fixed_queries", "with_encoder")
EVAL_VARIANTS = ("full", "no_ica", "oracle_ica", "oracle_detections")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="clipvid", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic clip dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--frames", type=int, default=8)
    g.add_argument("--frame-size", type=int, default=64)
    g.add_argument("--classes", type=int, default=5)
    g.add_argument("--min-objects", type=int, default=1)
    g.add_argument("--max-objects", type=int, default=4)
    g.add_argument("--occluder-prob", type=float, default=0.35)
    g.add_argument("--blur-scale", type=float, default=0.45)

    t = sub.add_parser("train", help="train a detector stage")
    t.add_argument("--data", required=True)
    t.add_argument("--stage", type=int, choices=(1, 2), required=True)
    t.add_argument("--variant", choices=TRAIN_VARIANTS, default="full")
    t.add_argument("--config", help="model config file (defaults to desk scale)")
    t.add_argument("--ckpt-in")
    t.add_argument("--ckpt-out", required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--iters", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--lr-drop", type=int)
    t.add_argument("--batch", type=_positive_int, default=2)
    t.add_argument("--log", help="loss log path (default: <ckpt-out>.log)")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt")
    e.add_argument("--variant", choices=EVAL_VARIANTS, default="full")
    e.add_argument("--frames", type=int, help="inference frames per pass")
    e.add_argument("--topk", type=int, help="override aggregation top-k")
    e.add_argument("--out", required=True, help="report path prefix")
    e.add_argument("--dump-matches", help="write identity-match diagnostics here")

    c = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tol", type=float, default=1e-4)
    c.add_argument("--corrupt-op", help=argparse.SUPPRESS)

    a = sub.add_parser("ablate", help="evaluate a grid of inference knobs")
    a.add_argument("--data", required=True)
    a.add_argument("--ckpt", required=True)
    a.add_argument("--grid", action="append", default=[],
                   help="knob=v1,v2,... (frames | topk | ica_layers)")
    a.add_argument("--out", required=True, help="table file path")
    return p


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _snapshot(path: str, pairs: dict) -> None:
    _write_lines(path, [f"{k}={v}" for k, v in pairs.items()])


# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = sv.GenConfig(num_classes=args.classes, min_objects=args.min_objects,
                       max_objects=args.max_objects, frame_size=args.frame_size,
                       t=args.frames, occluder_prob=args.occluder_prob,
                       blur_scale=args.blur_scale).validate()
    samples = sv.generate_dataset(cfg, args.clips, args.seed)
    try:
        sv.write_dataset(samples, args.out)
        _snapshot(os.path.join(args.out, "config.txt"), {
            "seed": args.seed, "clips": args.clips, "frames": cfg.t,
            "frame_size": cfg.frame_size, "num_classes": cfg.num_classes,
            "min_objects": cfg.min_objects, "max_objects": cfg.max_objects,
            "occluder_prob": cfg.occluder_prob, "blur_scale": cfg.blur_scale,
            "slow_max": cfg.slow_max, "fast_min": cfg.fast_min})
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    n_tracks = sum(len(s.tracks) for s in samples)
    print(f"wrote {len(samples)} clips, {n_tracks} tracks to {args.out}")
    return EXIT_OK


def _load_params(cfg: ModelConfig, ckpt_path: str) -> M.ModelParams:
    data, _prec = load_checkpoint(ckpt_path)
    sidecar = ckpt_path + ".config.txt"
    if os.path.exists(sidecar):
        saved = M.load_config(sidecar)
        # Structural fields only; runtime knobs (topk, inference frames) may
        # differ from the training-time snapshot.
        for f in ("num_queries", "dim", "heads", "decoder_layers", "roi_size",
                  "ica_layers", "num_classes", "backbone_stride",
                  "backbone_channels", "encoder_layers"):
            if getattr(saved, f) != getattr(cfg, f):
                raise ConfigError(
                    f"checkpoint config field '{f}'={getattr(saved, f)} does not "
                    f"match requested {getattr(cfg, f)}")
    params = M.init_model(cfg, np.random.default_rng(0))
    named = M.named_parameters(params)
    if set(named) != set(data):
        missing = sorted(set(named) - set(data))[:3]
        extra = sorted(set(data) - set(named))[:3]
        raise ConfigError(f"checkpoint/config mismatch: missing={missing} extra={extra}")
    for name, tensor in named.items():
        if tensor.data.shape != data[name].shape:
            raise ConfigError(f"checkpoint tensor '{name}' has shape "
                              f"{data[name].shape}, config implies {tensor.data.shape}")
        tensor.data = np.ascontiguousarray(data[name], dtype=ad.get_dtype())
        tensor.grad = np.zeros_like(tensor.data)
    return params


def _variant_config(cfg: ModelConfig, variant: str) -> ModelConfig:
    if variant == "fixed_queries":
        cfg.fixed_queries = True
    elif variant == "with_encoder":
        cfg.encoder_layers = max(cfg.encoder_layers, 1)
    return cfg


STAGE_DEFAULTS = {1: (2000, 1e-3, 1500), 2: (600, 1e-4, 400)}


def cmd_train(args) -> int:
    if args.stage == 2 and not args.ckpt_in:
        print("error: --stage 2 requires --ckpt-in", file=sys.stderr)
        return EXIT_USAGE
    try:
        dataset = sv.read_dataset(args.data)
    except ParseError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    if not dataset:
        print("error: empty dataset", file=sys.stderr)
        return EXIT_USAGE

    cfg = M.load_config(args.config) if args.config else ModelConfig()
    cfg = _variant_config(cfg, args.variant).validate()
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    if args.ckpt_in:
        params = _load_params(cfg, args.ckpt_in)
    else:
        params = M.init_model(cfg, np.random.default_rng(seeds[0]))

    d_iters, d_lr, d_drop = STAGE_DEFAULTS[args.stage]
    settings = tr.TrainSettings(
        iters=args.iters if args.iters is not None else d_iters,
        lr=args.lr if args.lr is not None else d_lr,
        lr_drop_at=args.lr_drop if args.lr_drop is not None else d_drop,
        batch=args.batch, seed=int(seeds[1].generate_state(1)[0]))

    log_path = args.log or (args.ckpt_out + ".log")
    use_ica = args.variant != "no_ica"
    os.makedirs(os.path.dirname(os.path.abspath(args.ckpt_out)), exist_ok=True)
    try:
        with open(log_path, "w") as log:
            tr.train(dataset, cfg, params, args.stage, use_ica, settings, log=log)
        save_checkpoint(M.named_parameters(params), args.ckpt_out,
                        precision=32 if ad.get_dtype() == np.float32 else 64)
        M.save_config(cfg, args.ckpt_out + ".config.txt")
        _snapshot(args.ckpt_out + ".run.txt", {
            "command": "train", "stage": args.stage, "variant": args.variant,
            "seed": args.seed, "iters": settings.iters, "lr": settings.lr,
            "lr_drop_at": settings.lr_drop_at, "batch": settings.batch,
            "data": args.data, "ckpt_in": args.ckpt_in or ""})
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"stage {args.stage} done: {settings.iters} iters -> {args.ckpt_out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        dataset = sv.read_dataset(args.data)
    except ParseError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO

    if args.variant == "oracle_detections":
        # Test hook: echo the ground truth as detections.
        cfg = ModelConfig()
        detections = [[[Detection(c, 1.0, b) for c, b, _t in clip.frame_gts(i)]
                       for i in range(clip.frames.shape[0])] for clip in dataset]
        report = ev.evaluate(detections, dataset, cfg.num_classes)
        return _emit_report(args, report, cfg, None)

    if not args.ckpt:
        print("error: --ckpt is required unless --variant oracle_detections",
              file=sys.stderr)
        return EXIT_USAGE
    sidecar = args.ckpt + ".config.txt"
    cfg = M.load_config(sidecar) if os.path.exists(sidecar) else ModelConfig()
    if args.topk is not None:
        if args.topk > cfg.num_queries:
            print(f"error: topk {args.topk} exceeds queries {cfg.num_queries}",
                  file=sys.stderr)
            return EXIT_USAGE
        cfg.ica_topk = args.topk
    params = _load_params(cfg, args.ckpt)

    mode = "oracle_ica" if args.variant == "oracle_ica" else "infer"
    use_ica = args.variant != "no_ica"
    all_dets = []
    diagnostics = []
    for clip in dataset:
        dets, diag = tr.infer_clip(clip, cfg, params, mode=mode, use_ica=use_ica,
                                   frames_per_pass=args.frames,
                                   collect_matches=bool(args.dump_matches))
        all_dets.append(dets)
        diagnostics.extend(diag)
    report = ev.evaluate(all_dets, dataset, cfg.num_classes)
    if args.dump_matches:
        _write_lines(args.dump_matches, ica_mod.dump_matches(diagnostics).splitlines() or [""])
    return _emit_report(args, report, cfg, args.ckpt)


def _emit_report(args, report: ev.EvalReport, cfg: ModelConfig,
                 ckpt: str | None) -> int:
    try:
        _write_lines(args.out + ".report.txt", report.lines())
        _write_lines(args.out + ".buckets.csv", report.table_lines())
        _snapshot(args.out + ".run.txt", {
            "command": "eval", "variant": args.variant,
            "frames": args.frames or cfg.t_infer, "ckpt": ckpt or "",
            "data": args.data})
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    for line in report.lines()[:4]:
        print(line)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ad.set_precision(64)
    ad.debug_corrupt_op = args.corrupt_op or None
    try:
        from .gradcheck_suite import run_suite
        reports = run_suite(args.seed, args.tol)
    finally:
        ad.debug_corrupt_op = None
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name}: max_rel_err={r.max_rel_err:.3e} tol={r.tol:g} {status}")
    print(f"{len(reports)} checks, {len(failed)} failed")
    return EXIT_CHECK if failed else EXIT_OK


def cmd_ablate(args) -> int:
    grids: dict[str, list[int]] = {}
    for spec in args.grid:
        key, _, vals = spec.partition("=")
        key = key.strip()
        try:
            grids[key] = [int(v) for v in vals.split(",") if v]
        except ValueError:
            grids[key] = []
        if key not in ("frames", "topk", "ica_layers") or not grids[key]:
            print(f"error: bad grid spec {spec!r} (knobs: frames, topk, ica_layers)",
                  file=sys.stderr)
            return EXIT_USAGE
    if not grids:
        print("error: empty grid", file=sys.stderr)
        return EXIT_USAGE
    try:
        dataset = sv.read_dataset(args.data)
    except ParseError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO

    keys = sorted(grids)
    cells: list[dict[str, int]] = [{}]
    for k in keys:
        cells = [dict(c, **{k: v}) for c in cells for v in grids[k]]

    rows = ["," .join(keys + ["map", "map_slow", "map_medium", "map_fast"])]
    for cell in cells:
        sidecar = args.ckpt + ".config.txt"
        cfg = M.load_config(sidecar) if os.path.exists(sidecar) else ModelConfig()
        params = _load_params(cfg, args.ckpt)
        # Runtime knobs applied after loading; layer overrides only restrict.
        if "topk" in cell:
            cfg.ica_topk = min(cell["topk"], cfg.num_queries)
        if "ica_layers" in cell:
            cfg.ica_layers = min(cell["ica_layers"], cfg.ica_layers)
        all_dets = []
        for clip in dataset:
            dets, _ = tr.infer_clip(clip, cfg, params,
                                    frames_per_pass=cell.get("frames"))
            all_dets.append(dets)
        report = ev.evaluate(all_dets, dataset, cfg.num_classes)
        rows.append(",".join([str(cell[k]) for k in keys]
                             + [f"{report.mean_ap:.6f}",
                                f"{report.bucket_ap['slow']:.6f}",
                                f"{report.bucket_ap['medium']:.6f}",
                                f"{report.bucket_ap['fast']:.6f}"]))
        print(rows[-1])
    try:
        _write_lines(args.out, rows)
        _snapshot(args.out + ".run.txt", {
            "command": "ablate", "ckpt": args.ckpt, "data": args.data,
            "grid": ";".join(args.grid)})
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    env = os.environ.get("CLIPVID_PRECISION")
    if env:
        if env not in ("32", "64"):
            print(f"error: CLIPVID_PRECISION must be 32 or 64, got {env!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        ad.set_precision(int(env))
    else:
        ad.set_precision(32)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handler = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
               "gradcheck": cmd_gradcheck, "ablate": cmd_ablate}[args.command]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
