"""Benchmark of the clipvid package, driven from outside through its public
functions.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 25 --trace 0

Workloads (all 32-bit, 64 px frames from GenConfig defaults, seeded):

  train_desk  stage-2 training of ModelConfig(), batch 2, T=4, ICA and the
              contrastive loss on: the desk loop, bound by per-op overhead.
  train_mid   stage-1 training with 30 queries, dim 64, 6 decoder layers:
              matching-heavy, ICA off.
  infer_long  inference with ICA on, t_infer=16, over 32-frame clips (two
              passes each) with seeded, checkpoint round-tripped weights.

Training runs a fixed number of iterations, sized from --seconds by a
nominal per-iteration time, so that the loss log of a seed never depends on
the machine's speed. Inference runs passes until --seconds have passed.

A step is one training iteration (2 clips of 4 frames) or one inference
pass (16 frames; a call's time split evenly over its two passes). The
end-to-end metrics (--trace 0), every one reported on every workload:

  setup_s       median time of the set-ups of one run
  frames_per_s  frames per step over step_ms_p50
  step_ms_p50   median step time, warm-up step excluded
  step_ms_tail  highest percentile with ten steps beyond it (the details
                name it and the sample count)
  loss          training: mean logged total loss over the last tenth of
                the run, at least ten iterations; inference: mean over
                ground-truth boxes of 1 - the best same-class IoU among
                the frame's detections
  peak_rss_mb   peak resident memory of this process

Step times are scaled to reference machine speed (see Speed below). --trace 1
runs the loop untraced and then traced (same work) and reports the
per-layer metrics of tracing.py, in wall time. The line before the result
holds the details: versions, wall-time quantiles, output digests, notes,
and per-layer metrics that are missing because a traced function is gone.
"""

import os

# One BLAS thread and one process: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BATCH = 2
MIN_ITERS = 2           # the first iteration or call is warm-up and untimed
# Inference calls per run, warm-up included, unless --seconds runs out in
# between: 100 to 199 timed calls keep the tail at the 90th percentile.
INFER_CALLS = (101, 200)
PREFIX_ITERS = 3        # 64-bit train_desk prefix whose bytes are digested
SETUPS = 5             # set-ups per run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str                       # "train" or "infer"
    clips: int                      # dataset size
    model: dict = dataclasses.field(default_factory=dict)    # ModelConfig overrides
    gen: dict = dataclasses.field(default_factory=dict)      # GenConfig overrides
    stage: int = 2
    lr: float = 1e-4
    iter_s: float = 0.0             # nominal seconds per iteration (2-core x86-64)


WORKLOADS = {
    "train_desk": Workload("train", clips=32, stage=2, lr=1e-4, iter_s=0.15),
    "train_mid": Workload("train", clips=32, stage=1, lr=1e-3, iter_s=1.25,
                          model=dict(num_queries=30, dim=64, decoder_layers=6)),
    "infer_long": Workload("infer", clips=16, model=dict(t_infer=16), gen=dict(t=32)),
}


def import_clipvid() -> types.ModuleType:
    """The clipvid package with the modules the benchmark drives or traces,
    imported from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import clipvid
    for name in ("autodiff", "checkpoint", "geometry", "ica", "matching", "model",
                 "synthvid", "training"):
        importlib.import_module(f"clipvid.{name}")
    if not Path(clipvid.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"clipvid imported from {clipvid.__file__}, not {SRC}")
    return clipvid


class StampedLog:
    """File-like sink for train()'s loss lines. Each complete line ends a
    step; `pause` then runs, and the next step starts after it."""

    def __init__(self, clock, pause=None):
        self.clock = clock
        self.pause = pause
        self.lines: list[str] = []
        self.marks: list[tuple[float, float]] = []    # (step end, next step start)
        self._buf = ""

    def write(self, text: str) -> int:
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            end = self.clock()
            if self.pause is not None:
                self.pause()
            self.marks.append((end, self.clock()))
            self.lines.append(line)
        return len(text)

    def flush(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Machine speed. The machine is shared, and other tenants' load changes its
# speed by as much as 2x within minutes, for seconds at a time. A fixed
# kernel of small numpy ops and interpreter work, like the package's, is
# timed right before each timed step; the step times are the wall times
# scaled by REF_KERNEL_S over that kernel time. The details line keeps the
# wall times. Set-up (large arrays and file I/O) does not track the kernel,
# so setup_s stays in wall time.

REF_KERNEL_S = 0.0054      # the kernel's time on a quiet 2-core x86-64 VM
_K_ROWS = np.random.default_rng(0).standard_normal((8, 32)).astype(np.float32)
_K_MIX = np.random.default_rng(1).standard_normal((32, 32)).astype(np.float32)


class Speed:
    """Runs and times the reference kernel each time it is called."""

    def __init__(self):
        self.kernel_s: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        x = _K_ROWS
        for _ in range(1500):
            x = np.tanh(x @ _K_MIX) * 0.5
            _ = float(x[0, 0]), {j: j * j for j in range(10)}
        self.kernel_s.append(time.perf_counter() - t0)

    def scale(self, wall: list[float]) -> list[float]:
        """Wall times of the steps that followed each kernel run, at reference speed."""
        return [w * REF_KERNEL_S / k for w, k in zip(wall, self.kernel_s)]


@dataclasses.dataclass
class Run:
    """What one loop did: per-step seconds, attempted and failed steps."""
    steps: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    frames: int = 0                 # frames per timed step
    speed: Speed | None = None      # kernel timed before each step
    lines: list = dataclasses.field(default_factory=list)     # training loss log
    first_epoch: list = dataclasses.field(default_factory=list)   # inference (clip, dets)

    @property
    def timed(self) -> list:
        """Wall seconds of each step after the warm-up one."""
        return self.steps[1:]

    @property
    def scaled(self) -> list:
        """Seconds of each step after the warm-up one, at reference speed."""
        return self.speed.scale(self.steps)[1:]


# ---------------------------------------------------------------------------
# Set-up: dataset generation and file round trip, model init, checkpoint
# round trip. The loops use what came back from disk.


def setup(pkg, wl: Workload, seeds, workdir: Path, problems: list):
    sv, M, ck = pkg.synthvid, pkg.model, pkg.checkpoint
    generated = sv.generate_dataset(sv.GenConfig(**wl.gen), wl.clips, seeds[0])
    sv.write_dataset(generated, str(workdir / "data"))
    dataset = sv.read_dataset(str(workdir / "data"))
    cfg = M.ModelConfig(**wl.model)
    params = M.init_model(cfg, np.random.default_rng(seeds[1]))
    named = M.named_parameters(params)
    ck.save_checkpoint(named, str(workdir / "model.ckpt"))
    loaded, _precision = ck.load_checkpoint(str(workdir / "model.ckpt"))
    for name, t in named.items():
        if not np.array_equal(loaded[name], t.data):
            problems.append(f"checkpoint round trip changed {name}")
        t.data = loaded[name]
    if not _same_dataset(generated, dataset):
        problems.append("dataset round trip changed the clips")
    return dataset, cfg, params


def _same_dataset(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if not np.array_equal(x.frames, y.frames) or len(x.tracks) != len(y.tracks):
            return False
        for f in range(x.frames.shape[0]):
            gx, gy = x.frame_gts(f), y.frame_gts(f)
            if [(c, t) for c, _b, t in gx] != [(c, t) for c, _b, t in gy]:
                return False
            if not np.allclose([b.corners() for _c, b, _t in gx],
                               [b.corners() for _c, b, _t in gy], rtol=0, atol=1e-12):
                return False
    return True


# ---------------------------------------------------------------------------
# The loops


def train_loop(pkg, wl: Workload, cfg, dataset, params, iters: int,
               seed: int, clock, speed: Speed | None = None) -> Run:
    settings = pkg.training.TrainSettings(iters=iters, lr=wl.lr, lr_drop_at=iters,
                                          batch=BATCH, seed=seed)
    log = StampedLog(clock, pause=speed)
    if speed is not None:
        speed()
    start = clock()
    pkg.training.train(dataset, cfg, params, wl.stage, True, settings, log=log)
    bad = [not all(math.isfinite(float(x)) for x in line.split(",")[1:])
           for line in log.lines]
    bad += [True] * (iters - len(bad))
    if not all(np.isfinite(p.data).all() for p in pkg.model.named_parameters(params).values()):
        bad[-1] = True
    starts = [start] + [resume for _end, resume in log.marks]
    return Run(steps=[end - t0 for (end, _r), t0 in zip(log.marks, starts)],
               attempted=iters, failed=sum(bad), frames=BATCH * cfg.t_train,
               speed=speed, lines=log.lines)


def infer_loop(pkg, cfg, dataset, params, clock, seconds: float = 0.0,
               calls: tuple[int, int] = INFER_CALLS, speed: Speed | None = None) -> Run:
    """Cycle through the clips for one epoch and `calls[0]` calls at least,
    then until `seconds` have passed or `calls[1]` calls are made."""
    frames = dataset[0].frames.shape[0]
    passes = -(-frames // cfg.t_infer)
    run = Run(frames=frames // passes, speed=speed)
    start = clock()
    i = 0
    least, most = max(len(dataset), calls[0]), calls[1]
    while i < least or (i < most and clock() - start < seconds):
        clip = dataset[i % len(dataset)]
        if speed is not None:
            speed()
        t0 = clock()
        dets, _ = pkg.training.infer_clip(clip, cfg, params, mode="infer", use_ica=True)
        run.steps.append((clock() - t0) / passes)
        run.attempted += passes
        run.failed += _failed_passes(dets, frames, cfg.t_infer)
        if i < len(dataset):
            run.first_epoch.append((clip, dets))
        i += 1
    return run


def _failed_passes(dets, frames: int, t_pass: int) -> int:
    """Passes with a frame that lacks its detection list, or a detection
    whose score is not in (0, 1) or whose box leaves the unit range of the
    normalized center-size form."""
    bad = set()
    for f in range(frames):
        if f >= len(dets):
            bad.add(f // t_pass)
            continue
        for d in dets[f]:
            b = d.box
            if not (math.isfinite(d.score) and 0.0 < d.score < 1.0
                    and 0.0 <= b.cx <= 1.0 and 0.0 <= b.cy <= 1.0
                    and 0.0 < b.w <= 1.0 and 0.0 < b.h <= 1.0):
                bad.add(f // t_pass)
    return len(bad)


def past_frame_share(first_epoch) -> float:
    """Share of detections whose box reaches past the frame edge; the
    detector does not clip boxes to the frame."""
    boxes = [d.box for _clip, dets in first_epoch for frame in dets for d in frame]
    past = sum(1 for b in boxes if min(b.corners()) < 0.0 or max(b.corners()) > 1.0)
    return past / len(boxes) if boxes else 0.0


# ---------------------------------------------------------------------------
# Results


def tail(values: list) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it, or
    the median when there are too few samples for any higher one."""
    pct = next((p for p in TAIL_LADDER if len(values) * (100.0 - p) / 100.0 >= 10), 50.0)
    return float(np.percentile(values, pct)), pct


def train_loss(lines: list[str]) -> float:
    """Mean logged total loss over the last tenth of the run, and over no
    fewer than ten iterations: one iteration's loss swings with the two
    clips it samples."""
    last = lines[-max(10, len(lines) // 10):]
    return sum(float(line.split(",")[1]) for line in last) / len(last)


def _iou(a, b) -> float:
    # The benchmark's own, so that its quality score does not move with the
    # package's geometry code.
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def detection_loss(first_epoch) -> float:
    """Mean over ground-truth boxes of 1 - the best IoU among the frame's
    detections of the same class."""
    misses = []
    for clip, dets in first_epoch:
        for f, frame_dets in enumerate(dets):
            for cls, box, _track in clip.frame_gts(f):
                best = max((_iou(box, d.box) for d in frame_dets if d.class_id == cls),
                           default=0.0)
                misses.append(1.0 - best)
    return sum(misses) / len(misses)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def detections_digest(first_epoch) -> str:
    rows = []
    for clip, dets in first_epoch:
        for f, frame_dets in enumerate(dets):
            for d in frame_dets:
                corners = " ".join(f"{v:.6f}" for v in d.box.corners())
                rows.append(f"{clip.clip_id} {f} {d.class_id} {d.score:.6f} {corners}")
    return _sha256("\n".join(rows))


def prefix64_digests(pkg, wl: Workload, cfg, dataset, seeds, workdir: Path) -> dict:
    """Log and checkpoint bytes of a short 64-bit training run from init."""
    M = pkg.model
    with pkg.autodiff.precision(64):
        params = M.init_model(cfg, np.random.default_rng(seeds[1]))
        settings = pkg.training.TrainSettings(iters=PREFIX_ITERS, lr=wl.lr,
                                              lr_drop_at=PREFIX_ITERS, batch=BATCH,
                                              seed=seeds[2])
        log = StampedLog(time.perf_counter)
        pkg.training.train(dataset, cfg, params, wl.stage, True, settings, log=log)
        path = workdir / "prefix64.ckpt"
        pkg.checkpoint.save_checkpoint(M.named_parameters(params), str(path), precision=64)
    return {"prefix64_log_sha256": _sha256("\n".join(log.lines)),
            "prefix64_checkpoint_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


# ---------------------------------------------------------------------------
# One benchmark run


def run(args, pkg, workdir: Path) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(3)]
    if args.small:
        wl = dataclasses.replace(wl, clips=2 if wl.kind == "infer" else 4)
    pkg.autodiff.set_precision(32)        # thread-local; be explicit
    tracer = tracing.Tracer()
    details: dict = {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "env": environment(), "notes": [], "digests": {}}
    problems: list[str] = []

    if args.trace:
        tracer.install(pkg, tracing.HOOKS)
    setup_wall = []
    for _ in range(1 if args.small else SETUPS):
        t0 = time.perf_counter()
        dataset, cfg, params = setup(pkg, wl, seeds, workdir, problems)
        setup_wall.append(time.perf_counter() - t0)
    tracer.uninstall()
    values: dict[str, float] = tracing.setup_values(tracer) if args.trace else {}
    tracer.clear()

    infer_calls = (0, INFER_CALLS[1]) if args.small else INFER_CALLS

    def loop(budget: float, clock, calls=infer_calls, speed: Speed | None = None) -> Run:
        """Training repeats the same iterations for the same budget; calls
        bounds the number of inference calls."""
        if wl.kind == "infer":
            return infer_loop(pkg, cfg, dataset, params, clock, seconds=budget,
                              calls=calls, speed=speed)
        iters = max(MIN_ITERS, round(budget / wl.iter_s))
        return train_loop(pkg, wl, cfg, dataset, params, iters, seeds[2], clock, speed)

    if not args.trace:
        main = loop(args.seconds, time.perf_counter, speed=Speed())
        runs = [main]
    else:
        initial = {k: t.data.copy() for k, t in pkg.model.named_parameters(params).items()}
        plain = loop(args.seconds / 2, time.perf_counter)
        for k, t in pkg.model.named_parameters(params).items():
            t.data = initial[k].copy()
        tracer.install(pkg, tracing.HOOKS)
        try:
            main = loop(args.seconds / 2, tracer.now, calls=(len(plain.steps),) * 2)
        finally:
            tracer.uninstall()
        runs = [plain, main]
        if main.lines != plain.lines:
            details["notes"].append("traced loss log differs from the untraced one")

    rss = peak_rss_mb()
    wall_tail, pct = tail(main.timed)
    details["steps"] = {"unit": "iteration" if wl.kind == "train" else "pass",
                        "samples": len(main.timed), "warmup": 1,
                        "tail_percentile": pct, "wall_tail_ms": wall_tail * 1e3,
                        "wall_quantiles_ms": {
                            f"p{q}": float(np.percentile(main.timed, q)) * 1e3
                            for q in (0, 10, 25, 50, 75, 90)}}
    if wl.kind == "train":
        loss = train_loss(main.lines)
        details["digests"]["loss_log_sha256"] = _sha256("\n".join(main.lines))
    else:
        loss = detection_loss(main.first_epoch)
        details["digests"]["detections_sha256"] = detections_digest(main.first_epoch)
        details["boxes_past_frame_share"] = past_frame_share(main.first_epoch)

    if args.trace:
        values.update(tracing.loop_values(tracer, main.attempted))
        values["trace.overhead"] = float(np.median(main.timed) / np.median(plain.timed)) - 1.0
        values["autodiff.records_per_pass"] = 0.0
        if wl.kind == "infer":
            passes = main.attempted // len(main.steps)
            with pkg.autodiff.ComputationTape() as tape:      # one untimed call
                pkg.training.infer_clip(dataset[0], cfg, params, mode="infer", use_ica=True)
            values["autodiff.records_per_pass"] = len(tape) / passes
        metrics = {}
        for name, unit, _better, needs, _moves in tracing.layer_table():
            gone = [n for n in needs
                    if n in tracer.missing or n.partition("#")[0] in tracer.missing]
            if gone or name in tracer.missing:
                tracer.missing.setdefault(name, f"needs {', '.join(gone)}")
                continue
            metrics[name] = {"value": values[name], "unit": unit}
        details["missing"] = tracer.missing
    else:
        p50 = float(np.median(main.scaled))
        p_tail, _pct = tail(main.scaled)
        details["speed"] = {"kernel_ms_p50": float(np.median(main.speed.kernel_s)) * 1e3,
                            "reference_kernel_ms": REF_KERNEL_S * 1e3}
        if args.workload == "train_desk":
            details["digests"].update(prefix64_digests(pkg, wl, cfg, dataset, seeds, workdir))
        metrics = {
            "setup_s": {"value": float(np.median(setup_wall)), "unit": "s"},
            "frames_per_s": {"value": main.frames / p50, "unit": "frames/s"},
            "step_ms_p50": {"value": p50 * 1e3, "unit": "ms"},
            "step_ms_tail": {"value": p_tail * 1e3, "unit": "ms"},
            "loss": {"value": loss, "unit": "loss"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    details["notes"] += sorted(set(problems))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0 and not problems and math.isfinite(loss),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smaller dataset and one set-up, for the smoke test")
    args = ap.parse_args(argv)
    try:
        pkg = import_clipvid()
    except ImportError as e:
        print(f"error: cannot import clipvid from {SRC}: {e}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        details, result = run(args, pkg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
