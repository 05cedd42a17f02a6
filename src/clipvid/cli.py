"""Command-line entry point: dataset generation, training with or without
the ICA layers, evaluation, and gradient checking.

Exit codes:
  0  ok
  1  usage or config error: bad arguments, or a ConfigError such as a
     malformed --config value or a checkpoint that does not fit the config
  2  I/O error: any file a command cannot read or write, or a ParseError
     from a malformed dataset or checkpoint (the message names the file,
     and for a dataset the manifest line)
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

    t = sub.add_parser("train", help="train a detector, with or without the ICA layers")
    t.add_argument("--data", required=True)
    t.add_argument("--variant", choices=TRAIN_VARIANTS, required=True,
                   help="full trains the ICA layers with the detector; no_ica runs "
                   "without them and leaves their weights as they start")
    t.add_argument("--config", help="model config file (default: the --ckpt-in "
                   "checkpoint's sidecar config, else desk scale)")
    t.add_argument("--ckpt-in", help="checkpoint the weights start from "
                   "(default: initialised from --seed)")
    t.add_argument("--ckpt-out", required=True)
    t.add_argument("--seed", type=_int_at_least(0), default=0)
    t.add_argument("--iters", type=_int_at_least(0), default=tr.TrainSettings.iters)
    t.add_argument("--lr", type=float, default=tr.TrainSettings.lr)
    t.add_argument("--lr-drop", type=_int_at_least(0), default=tr.TrainSettings.lr_drop_at)
    t.add_argument("--batch", type=_int_at_least(1), default=tr.TrainSettings.batch)
    t.add_argument("--log", help="loss log path (default: <ckpt-out>.log)")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--variant", choices=EVAL_VARIANTS, default="full")
    e.add_argument("--frames", type=_int_at_least(1), help="inference frames per pass")
    e.add_argument("--topk", type=_int_at_least(1), help="override aggregation top-k")
    e.add_argument("--out", required=True, help="report path prefix")
    e.add_argument("--dump-matches", help="write identity-match diagnostics here")

    c = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    c.add_argument("--seed", type=_int_at_least(0), default=0)
    return p


def _make_parents(outputs: dict[str, str | None]) -> None:
    """Create the directories the run's files go into, {option: path} (a
    None path is no file), before the work. Every parent is checked before
    any is made: one whose nearest existing ancestor is not a directory is
    refused, naming its option, and no directory is left behind."""
    outputs = {option: path for option, path in outputs.items() if path}
    parents = [os.path.dirname(os.path.abspath(path)) for path in outputs.values()]
    for (option, path), ancestor in zip(outputs.items(), parents):
        while not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise NotADirectoryError(f"{option} {path}: {ancestor} is not a directory")
    for parent in parents:
        os.makedirs(parent, exist_ok=True)


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
        "slow_max": sv.SLOW_MAX, "fast_min": sv.FAST_MIN})
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
    return cfg, params


def cmd_train(args) -> int:
    if not abs(args.lr) <= float(np.finfo(ad.get_dtype()).max):
        raise ConfigError(f"--lr must be finite in {_precision()}-bit floats, got {args.lr}")
    if not args.lr > 0:
        raise ConfigError(f"--lr must be positive, got {args.lr}")
    dataset = _read_dataset(args.data)

    cfg = M.load_config(args.config) if args.config else None
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    if args.ckpt_in:
        cfg, params = _load_params(args.ckpt_in, cfg)
    else:
        cfg = cfg or ModelConfig()
        params = M.init_model(cfg, np.random.default_rng(seeds[0]))

    settings = tr.TrainSettings(iters=args.iters, lr=args.lr, lr_drop_at=args.lr_drop,
                                batch=args.batch, seed=int(seeds[1].generate_state(1)[0]))

    tr.check_dataset(dataset, cfg)       # before any file is made: a refused run leaves none
    log_path = args.log or (args.ckpt_out + ".log")
    _make_parents({"--ckpt-out": args.ckpt_out, "--log": log_path})
    with open(log_path, "w") as log:      # stage 2 trains ICA exactly when use_ica is set
        tr.train(dataset, cfg, params, 2, args.variant == "full", settings, log=log)
    save_checkpoint(M.named_parameters(params), args.ckpt_out, precision=_precision())
    M.save_config(cfg, args.ckpt_out + ".config.txt")
    _snapshot(args.ckpt_out + ".run.txt", {
        "command": "train", "variant": args.variant,
        "seed": args.seed, "iters": settings.iters, "lr": settings.lr,
        "lr_drop_at": settings.lr_drop_at, "batch": settings.batch,
        "data": args.data, "ckpt_in": args.ckpt_in or "", "precision": _precision()})
    print(f"train {args.variant} done: {settings.iters} iters -> {args.ckpt_out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = _read_dataset(args.data)
    cfg, params = _load_params(args.ckpt)
    cfg = dataclasses.replace(cfg, t_infer=args.frames or cfg.t_infer,
                              ica_topk=args.topk or cfg.ica_topk).validate()
    # Before any directory is made; oracle aggregation gives each ground truth a query.
    tr.check_dataset(dataset, cfg, capacity=args.variant == "oracle_ica")
    _make_parents({"--out": args.out, "--dump-matches": args.dump_matches})

    mode = "oracle_ica" if args.variant == "oracle_ica" else "infer"
    all_dets, selections = [], []
    for clip in dataset:
        dets, sel = tr.infer_clip(clip, cfg, params, mode=mode,
                                  use_ica=args.variant != "no_ica")
        all_dets.append(dets)
        selections.extend(sel)
    report = ev.evaluate(all_dets, dataset, cfg.num_classes)
    if args.dump_matches:
        _write_lines(args.dump_matches,
                     ica_mod.dump_matches(selections).splitlines() or [""])
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
    reports = gradcheck_suite.run_suite(args.seed)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name}: max_rel_err={r.max_rel_err:.3e} tol={ad.GRAD_TOL:g} {status}")
    print(f"{len(reports)} checks, {len(failed)} failed")
    return EXIT_CHECK if failed else EXIT_OK


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
               "gradcheck": cmd_gradcheck}[args.command]
    try:
        return handler(args)
    except tuple(ERROR_EXITS) as e:
        code, label = next(v for t, v in ERROR_EXITS.items() if isinstance(e, t))
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
