"""Command-line entry point: dataset generation, two-stage training,
evaluation, ablation grids, and gradient checking.

Exit codes:
  0  ok
  1  usage or config error: bad arguments, or a ConfigError such as a
     malformed --config value or a checkpoint that does not fit the config
  2  I/O error: any file a command cannot read or write, or a ParseError
     from a malformed dataset or checkpoint (the message gives the byte
     offset or line)
  3  check failure (gradcheck)
  4  numeric error: a NumericError, such as a NaN or inf in the model's
     activations, costs or losses (e.g. after a diverging --lr)
  5  input error: an InputError, data the model cannot take, such as a
     ground-truth class id outside the model's classes
  6  capacity error: a CapacityError, a frame with more ground-truth
     objects than the model has queries
CLIPVID_PRECISION=32|64 overrides float precision (gradcheck always 64).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import autodiff as ad
from . import evaluate as ev
from . import gradcheck_suite
from . import ica as ica_mod
from . import model as M
from . import synthvid as sv
from . import training as tr
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CapacityError, ConfigError, InputError, NumericError, ParseError
from .model import ModelConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECK = 3
EXIT_NUMERIC = 4
EXIT_INPUT = 5
EXIT_CAPACITY = 6
# Errors a command may raise: exit code and message label. main alone turns
# an exception into an exit code.
ERROR_EXITS = {ConfigError: (EXIT_USAGE, "error"), ParseError: (EXIT_IO, "I/O error"),
               OSError: (EXIT_IO, "I/O error"),
               NumericError: (EXIT_NUMERIC, "numeric error"),
               InputError: (EXIT_INPUT, "input error"),
               CapacityError: (EXIT_CAPACITY, "capacity error")}

TRAIN_VARIANTS = ("full", "no_ica")
EVAL_VARIANTS = ("full", "no_ica", "oracle_ica")
# Inference knobs of eval and ablate: the ModelConfig field each sets, its
# smallest valid value and the checkpoint config field, named as in messages,
# that it may not exceed.
KNOBS = {"frames": ("t_infer", 1, None), "topk": ("ica_topk", 1, ("num_queries", "queries")),
         "ica_layers": ("ica_layers", 0, ("ica_layers", "checkpoint ICA layers"))}
# ModelConfig fields a run may set apart from its checkpoint's; every other
# field shapes the model and must match the checkpoint's sidecar.
RUN_FIELDS = ("t_train", "t_infer", "ica_topk", "score_thresh")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(least: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"            # argparse names the type in its errors
    return parse


def _grid_axis(spec: str) -> tuple[str, str, list[int]]:
    """Parse one --grid knob=v1,v2,... into (spec, knob, values)."""
    key, _, vals = spec.partition("=")
    key = key.strip()
    try:
        values = [_int_at_least(KNOBS[key][1])(v) for v in vals.split(",") if v]
        if values:
            return spec, key, values
    except (KeyError, ValueError, argparse.ArgumentTypeError):
        pass
    least = "; ".join(f"{k} at least {knob[1]}" for k, knob in KNOBS.items())
    raise argparse.ArgumentTypeError(f"bad grid spec {spec!r} (knobs: {least})")


def build_parser() -> _Parser:
    p = _Parser(prog="clipvid", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic clip dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=_int_at_least(0), required=True)
    g.add_argument("--seed", type=_int_at_least(0), default=0)
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
    t.add_argument("--seed", type=_int_at_least(0), default=0)
    t.add_argument("--iters", type=_int_at_least(0))
    t.add_argument("--lr", type=float)
    t.add_argument("--lr-drop", type=_int_at_least(0))
    t.add_argument("--batch", type=_int_at_least(1), default=2)
    t.add_argument("--log", help="loss log path (default: <ckpt-out>.log)")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--variant", choices=EVAL_VARIANTS, default="full")
    e.add_argument("--frames", type=_int_at_least(KNOBS["frames"][1]),
                   help="inference frames per pass")
    e.add_argument("--topk", type=_int_at_least(KNOBS["topk"][1]), help="override aggregation top-k")
    e.add_argument("--out", required=True, help="report path prefix")
    e.add_argument("--dump-matches", help="write identity-match diagnostics here")

    c = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    c.add_argument("--seed", type=_int_at_least(0), default=0)
    c.add_argument("--tol", type=float, default=1e-4)

    a = sub.add_parser("ablate", help="evaluate a grid of inference knobs")
    a.add_argument("--data", required=True)
    a.add_argument("--ckpt", required=True)
    a.add_argument("--grid", type=_grid_axis, action="append", default=[],
                   help="knob=v1,v2,... (frames | topk | ica_layers)")
    a.add_argument("--out", required=True, help="table file path")
    return p


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _snapshot(path: str, pairs: dict) -> None:
    _write_lines(path, [f"{k}={v}" for k, v in pairs.items()])


def _read_dataset(path: str) -> list[sv.ClipSample]:
    dataset = sv.read_dataset(path)
    if not dataset:
        raise ConfigError("empty dataset")
    return dataset


def _precision() -> int:
    """Bits of the float precision in effect."""
    return 32 if ad.get_dtype() == np.float32 else 64


# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = sv.GenConfig(num_classes=args.classes, min_objects=args.min_objects,
                       max_objects=args.max_objects, frame_size=args.frame_size,
                       t=args.frames, occluder_prob=args.occluder_prob,
                       blur_scale=args.blur_scale).validate()
    samples = sv.generate_dataset(cfg, args.clips, args.seed)
    sv.write_dataset(samples, args.out)
    _snapshot(os.path.join(args.out, "config.txt"), {
        "seed": args.seed, "clips": args.clips, "frames": cfg.t,
        "frame_size": cfg.frame_size, "num_classes": cfg.num_classes,
        "min_objects": cfg.min_objects, "max_objects": cfg.max_objects,
        "occluder_prob": cfg.occluder_prob, "blur_scale": cfg.blur_scale,
        "slow_max": cfg.slow_max, "fast_min": cfg.fast_min})
    n_tracks = sum(len(s.tracks) for s in samples)
    print(f"wrote {len(samples)} clips, {n_tracks} tracks to {args.out}")
    return EXIT_OK


def _load_params(ckpt_path: str, cfg: ModelConfig | None = None
                 ) -> tuple[ModelConfig, M.ModelParams]:
    """Load a checkpoint and the config it was built with: its sidecar
    <ckpt>.config.txt if one exists, else ModelConfig(). A given cfg is used
    in its place and must match the sidecar in every field but RUN_FIELDS.
    Returns the config used and the parameters."""
    data, _prec = load_checkpoint(ckpt_path)
    sidecar = ckpt_path + ".config.txt"
    saved = M.load_config(sidecar) if os.path.exists(sidecar) else None
    cfg = cfg or saved or ModelConfig()
    if saved is not None:
        for name in (f.name for f in dataclasses.fields(cfg)):
            if name not in RUN_FIELDS and getattr(saved, name) != getattr(cfg, name):
                raise ConfigError(
                    f"checkpoint config field '{name}'={getattr(saved, name)} does not "
                    f"match requested {getattr(cfg, name)}")
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
    return cfg, params


STAGE_DEFAULTS = {1: (2000, 1e-3, 1500), 2: (600, 1e-4, 400)}


def cmd_train(args) -> int:
    if args.stage == 2 and not args.ckpt_in:
        raise ConfigError("--stage 2 requires --ckpt-in")
    if args.lr is not None and not np.isfinite(args.lr):
        raise ConfigError(f"--lr must be finite, got {args.lr}")
    dataset = _read_dataset(args.data)

    cfg = M.load_config(args.config) if args.config else ModelConfig()
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    if args.ckpt_in:
        cfg, params = _load_params(args.ckpt_in, cfg)
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
    with open(log_path, "w") as log:
        tr.train(dataset, cfg, params, args.stage, use_ica, settings, log=log)
    save_checkpoint(M.named_parameters(params), args.ckpt_out, precision=_precision())
    M.save_config(cfg, args.ckpt_out + ".config.txt")
    _snapshot(args.ckpt_out + ".run.txt", {
        "command": "train", "stage": args.stage, "variant": args.variant,
        "seed": args.seed, "iters": settings.iters, "lr": settings.lr,
        "lr_drop_at": settings.lr_drop_at, "batch": settings.batch,
        "data": args.data, "ckpt_in": args.ckpt_in or "", "precision": _precision()})
    print(f"stage {args.stage} done: {settings.iters} iters -> {args.ckpt_out}")
    return EXIT_OK


def _with_knobs(cfg: ModelConfig, knobs: dict[str, int | None]) -> ModelConfig:
    """cfg with each inference knob given (not None) set. A knob may only
    lower what the checkpoint config cfg was built with."""
    given = {key: value for key, value in knobs.items() if value is not None}
    for key, value in given.items():
        ceiling = KNOBS[key][2]
        if ceiling and value > getattr(cfg, ceiling[0]):
            raise ConfigError(f"{key} {value} exceeds {ceiling[1]} {getattr(cfg, ceiling[0])}")
    return dataclasses.replace(cfg, **{KNOBS[key][0]: value
                                       for key, value in given.items()}).validate()


def _score(dataset, cfg: ModelConfig, params: M.ModelParams, mode: str = "infer",
           use_ica: bool = True) -> tuple[ev.EvalReport, list]:
    """Detect on every clip and score the detections; also returns every
    pass's aggregation-layer selections."""
    all_dets, selections = [], []
    for clip in dataset:
        dets, sel = tr.infer_clip(clip, cfg, params, mode=mode, use_ica=use_ica)
        all_dets.append(dets)
        selections.extend(sel)
    return ev.evaluate(all_dets, dataset, cfg.num_classes), selections


def cmd_eval(args) -> int:
    dataset = _read_dataset(args.data)
    cfg, params = _load_params(args.ckpt)
    cfg = _with_knobs(cfg, {"frames": args.frames, "topk": args.topk})
    sv.check_classes(dataset, cfg.num_classes)

    mode = "oracle_ica" if args.variant == "oracle_ica" else "infer"
    report, diagnostics = _score(dataset, cfg, params, mode, args.variant != "no_ica")
    if args.dump_matches:
        _write_lines(args.dump_matches,
                     ica_mod.dump_matches(diagnostics).splitlines() or [""])
    _write_lines(args.out + ".report.txt", report.lines())
    _write_lines(args.out + ".buckets.csv", report.table_lines())
    _snapshot(args.out + ".run.txt", {
        "command": "eval", "variant": args.variant,
        "frames": cfg.t_infer, "topk": cfg.ica_topk, "ckpt": args.ckpt,
        "data": args.data, "precision": _precision()})
    for name, value in report.summary().items():
        print(f"{name}={value:.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not 0 < args.tol < np.inf:                  # NaN fails both comparisons
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    ad.set_precision(64)
    reports = gradcheck_suite.run_suite(args.seed, args.tol)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name}: max_rel_err={r.max_rel_err:.3e} tol={r.tol:g} {status}")
    print(f"{len(reports)} checks, {len(failed)} failed")
    return EXIT_CHECK if failed else EXIT_OK


def cmd_ablate(args) -> int:
    if not args.grid:
        raise ConfigError("empty grid")
    grids = {key: values for _spec, key, values in args.grid}
    if len(grids) < len(args.grid):
        raise ConfigError("each --grid knob may be given once")
    keys = sorted(grids)
    cells = [dict(zip(keys, values)) for values in itertools.product(*map(grids.get, keys))]
    cfg, params = _load_params(args.ckpt)
    cell_cfgs = [_with_knobs(cfg, cell) for cell in cells]
    dataset = _read_dataset(args.data)
    sv.check_classes(dataset, cfg.num_classes)

    rows: list[str] = []
    for cell, cell_cfg in zip(cells, cell_cfgs):
        summary = _score(dataset, cell_cfg, params)[0].summary()
        if not rows:
            rows.append(",".join(keys + list(summary)))
        rows.append(",".join([str(cell[k]) for k in keys]
                             + [f"{value:.6f}" for value in summary.values()]))
        print(rows[-1])
    _write_lines(args.out, rows)
    _snapshot(args.out + ".run.txt", {
        "command": "ablate", "ckpt": args.ckpt, "data": args.data,
        "grid": ";".join(spec for spec, _key, _values in args.grid),
        "precision": _precision()})
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
    except tuple(ERROR_EXITS) as e:
        code, label = next(v for t, v in ERROR_EXITS.items() if isinstance(e, t))
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
