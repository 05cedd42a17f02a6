"""Outside-in span tracing of the clipvid package.

A Tracer replaces public functions and methods of the package's modules
with wrappers that record one span (name, start, end, parent) per call, in
memory. Nothing in the package changes: install() swaps module attributes
or class methods in this process only, and uninstall() puts them back.

Observers attached to a hook read a call's arguments and result to count
work (tape records, anchors, detections) or to check it (assignment
optimality). Their own time is paused out of every span and of now(), so
they do not show up as layer time.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Hook:
    module: str                 # attribute of the clipvid package
    target: str                 # "function" or "Class.method"
    observe: Callable | None = None   # observe(tracer, args, kwargs, result)

    @property
    def span(self) -> str:
        return f"{self.module}.{self.target}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, list] = defaultdict(list)
        self.missing: dict[str, str] = {}    # span or metric name -> reason
        self._stack: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple] = []
        self._originals: dict[str, Callable] = {}

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def original(self, span: str) -> Callable | None:
        return self._originals.get(span)

    def install(self, package, hooks: list[Hook]) -> None:
        for hook in hooks:
            owner = getattr(package, hook.module, None)
            *path, leaf = hook.target.split(".")
            for name in path:
                owner = getattr(owner, name, None)
            orig = getattr(owner, leaf, None) if owner is not None else None
            if not callable(orig):
                self.missing[hook.span] = "hook target not found"
                continue
            self._originals[hook.span] = orig
            setattr(owner, leaf, self._wrap(hook, orig))
            self._restore.append((owner, leaf, orig))

    def uninstall(self) -> None:
        for owner, leaf, orig in reversed(self._restore):
            setattr(owner, leaf, orig)
        self._restore.clear()

    def _wrap(self, hook: Hook, orig: Callable) -> Callable:
        spans, stack, name = self.spans, self._stack, hook.span

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.now(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self.now()
            key = name + "#observe"
            if hook.observe is not None and key not in self.missing:
                with self.paused():
                    try:
                        hook.observe(self, args, kwargs, result)
                    except Exception as e:  # keep the run going; report the hook
                        self.missing[key] = f"observer failed: {type(e).__name__}: {e}"
            return result

        return wrapper

    # -- reading the trace --------------------------------------------------

    def durations(self, name: str, self_time: bool = False) -> list[float]:
        """Per-call durations (s) of one span name, optionally minus the time
        its child spans cover."""
        child = [0.0] * len(self.spans)
        if self_time:
            for _n, start, end, parent in self.spans:
                if parent >= 0:
                    child[parent] += end - start
        return [end - start - child[i]
                for i, (n, start, end, _p) in enumerate(self.spans) if n == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# What is traced, and the per-layer metrics read from it


def _records(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["records"].append(len(args[0]))          # the tape at backward


def _anchors(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["anchors"].append((len(result[1]), len(args[0])))   # (anchors, frames)


def _detections(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["dets"].append((sum(len(f) for f in result), len(result)))


def _padding(tr: Tracer, args, kwargs, result) -> None:
    rows, cols = np.shape(args[0])
    tr.counts["pad"].append(1.0 - min(rows, cols) / max(rows, cols))


@functools.cache
def scipy_assignment() -> Callable | None:
    """scipy's assignment solver, imported only by traced runs; None if
    scipy is not installed."""
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None
    return linear_sum_assignment


def _optimality(tr: Tracer, args, kwargs, result) -> None:
    """Is the assignment's cost the optimum scipy finds on the same matrix?"""
    solve = scipy_assignment()
    if solve is None or not len(args[1]):
        return
    cost = np.asarray(tr.original("matching.cost_matrix")(*args, **kwargs),
                      dtype=np.float64)
    rows, cols = solve(cost)
    best = math.fsum(cost[rows, cols])
    got = math.fsum(cost[p, j] for j, p in enumerate(result.pred_of_gt))
    tr.counts["optimal"].append(math.isclose(got, best, rel_tol=1e-9, abs_tol=1e-9))


HOOKS = [
    Hook("synthvid", "generate_dataset"),
    Hook("synthvid", "write_dataset"),
    Hook("synthvid", "read_dataset"),
    Hook("checkpoint", "save_checkpoint"),
    Hook("checkpoint", "load_checkpoint"),
    Hook("model", "init_model"),
    Hook("training", "train"),
    Hook("training", "infer_clip"),
    Hook("training", "sample_frames"),
    Hook("training", "clip_loss"),
    Hook("training", "AdamW.step"),
    Hook("training", "_clip_gradients"),
    Hook("autodiff", "ComputationTape.backward", _records),
    Hook("model", "clip_forward"),
    Hook("model", "backbone"),
    Hook("model", "extract_detections", _detections),
    Hook("geometry", "roi_sample_frame"),
    Hook("ica", "ica_sublayer", _anchors),
    Hook("ica", "contrastive_loss"),
    Hook("matching", "set_loss"),
    Hook("matching", "match_frame", _optimality),
    Hook("matching", "cost_matrix"),
    Hook("matching", "hungarian", _padding),
]

# The driving loops; everything else the workloads time runs inside them.
ROOTS = ("training.train", "training.infer_clip")

# A self time is a span minus these children, so all must be traced.
CHILDREN = {
    "model.clip_forward": ("model.backbone", "geometry.roi_sample_frame", "ica.ica_sublayer"),
    "matching.set_loss": ("matching.match_frame",),
    "training.clip_loss": ("matching.set_loss", "ica.contrastive_loss"),
    "training.train": ("training.sample_frames", "model.clip_forward", "training.clip_loss",
                       "autodiff.ComputationTape.backward", "training._clip_gradients",
                       "training.AdamW.step"),
    "training.infer_clip": ("model.clip_forward", "model.extract_detections"),
}

# The driving loops' self time is the loop minus all of these.
_LOOP_NEEDS = ROOTS + CHILDREN["training.train"] + CHILDREN["training.infer_clip"]

_TRAIN = "frames_per_s on train_desk and train_mid"
_FORWARD = "frames_per_s on infer_long and train_desk, less on train_mid"
_ICA = "frames_per_s on infer_long and train_desk; zero on train_mid"
_MATCH = "frames_per_s on train_mid, a little on train_desk, zero on infer_long"
_SETUP = "setup_s on every workload"

# Timed spans: metric stem, span, self time, what it should move. Each gives
# <stem>_ms, the median per call, and <stem>_share, its summed time over the
# wall time of the driving loop.
TIMED = [
    ("autodiff.backward", "autodiff.ComputationTape.backward", False, _TRAIN),
    ("model.forward", "model.clip_forward", False, _FORWARD),
    ("model.forward_self", "model.clip_forward", True, _FORWARD),
    ("model.backbone", "model.backbone", False, _FORWARD),
    ("model.extract", "model.extract_detections", False, "frames_per_s on infer_long"),
    ("geometry.roi_sample", "geometry.roi_sample_frame", False, "frames_per_s on every workload"),
    ("ica.sublayer", "ica.ica_sublayer", False, _ICA),
    ("ica.contrastive", "ica.contrastive_loss", False, "frames_per_s on train_desk"),
    ("matching.match", "matching.match_frame", False, _MATCH),
    ("matching.hungarian", "matching.hungarian", False, _MATCH),
    ("matching.cost_matrix", "matching.cost_matrix", False, _MATCH),
    ("matching.set_loss_self", "matching.set_loss", True, _MATCH),
    ("training.loss_self", "training.clip_loss", True, _TRAIN),
    ("training.clip_grad", "training._clip_gradients", False, _TRAIN),
    ("training.optimizer", "training.AdamW.step", False, _TRAIN),
    ("training.data", "training.sample_frames", False, _TRAIN),
]

# Every other per-layer metric: name, unit, better, spans or observers it
# needs, what it should move.
OTHER = [
    ("autodiff.records_per_clip", "count", "lower",
     ("autodiff.ComputationTape.backward#observe",), _TRAIN + ", train_desk most"),
    ("autodiff.records_per_pass", "count", "lower", (), "frames_per_s on infer_long"),
    ("model.dets_per_frame", "count", "lower",
     ("model.extract_detections#observe",), "frames_per_s on infer_long"),
    ("model.init_s", "s", "lower", ("model.init_model",), _SETUP),
    ("geometry.roi_calls_per_clip", "count", "lower",
     ("geometry.roi_sample_frame", "model.clip_forward"), "frames_per_s on every workload"),
    ("ica.anchors_per_frame", "count", "lower", ("ica.ica_sublayer#observe",), _ICA),
    ("matching.calls_per_clip", "count", "lower",
     ("matching.match_frame", "model.clip_forward"), _MATCH),
    ("matching.pad_share", "share", "lower", ("matching.hungarian#observe",), _MATCH),
    ("matching.optimal_share", "share", "higher", ("matching.match_frame#observe",),
     "nothing; a correctness ratio of the assignments checked"),
    ("training.loop_self_ms", "ms", "lower", _LOOP_NEEDS, _TRAIN),
    ("training.loop_self_share", "share", "lower", _LOOP_NEEDS, _TRAIN),
    ("synthvid.generate_s", "s", "lower", ("synthvid.generate_dataset",), _SETUP),
    ("synthvid.io_s", "s", "lower", ("synthvid.write_dataset", "synthvid.read_dataset"), _SETUP),
    ("checkpoint.roundtrip_s", "s", "lower",
     ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"), _SETUP),
    ("trace.coverage", "share", "higher", (),
     "nothing; share of the loop's wall time inside named layer spans"),
    ("trace.overhead", "share", "lower", (),
     "nothing; traced minus untraced median step time, over the untraced"),
]


def _needs(span: str, self_time: bool) -> tuple[str, ...]:
    return (span,) + (CHILDREN.get(span, ()) if self_time else ())


def layer_table() -> list[tuple[str, str, str, tuple[str, ...], str]]:
    """(name, unit, better, needs, moves) of every per-layer metric."""
    rows = []
    for stem, span, self_time, moves in TIMED:
        needs = _needs(span, self_time)
        rows.append((f"{stem}_ms", "ms", "lower", needs, moves))
        rows.append((f"{stem}_share", "share", "lower", needs + ROOTS, moves))
    return rows + OTHER


def setup_values(tr: Tracer) -> dict[str, float]:
    """Medians over the set-ups traced, in seconds, of each set-up layer."""
    def per_setup(*spans: str) -> float:
        return median([sum(parts) for parts in zip(*(tr.durations(s) for s in spans))])

    return {
        "model.init_s": per_setup("model.init_model"),
        "synthvid.generate_s": per_setup("synthvid.generate_dataset"),
        "synthvid.io_s": per_setup("synthvid.write_dataset", "synthvid.read_dataset"),
        "checkpoint.roundtrip_s": per_setup("checkpoint.save_checkpoint",
                                            "checkpoint.load_checkpoint"),
    }


def loop_values(tr: Tracer, steps: int) -> dict[str, float]:
    """Per-layer values of a traced loop of `steps` iterations or passes.
    A layer that never ran reads zero."""
    roots = [d for r in ROOTS for d in tr.durations(r)]
    wall = sum(roots)
    out: dict[str, float] = {}
    for stem, span, self_time, _moves in TIMED:
        d = tr.durations(span, self_time)
        out[f"{stem}_ms"] = median(d) * 1e3
        out[f"{stem}_share"] = sum(d) / wall
    root_self = sum(d for r in ROOTS for d in tr.durations(r, self_time=True))
    out["training.loop_self_ms"] = root_self / steps * 1e3
    out["training.loop_self_share"] = root_self / wall
    out["trace.coverage"] = 1.0 - root_self / wall

    def mean(values) -> float:
        return sum(values) / len(values) if values else 0.0

    def ratio(pairs) -> float:
        total = sum(b for _a, b in pairs)
        return sum(a for a, _b in pairs) / total if total else 0.0

    forwards = tr.calls("model.clip_forward")
    c = tr.counts
    out["autodiff.records_per_clip"] = mean(c["records"])
    out["model.dets_per_frame"] = ratio(c["dets"])
    out["geometry.roi_calls_per_clip"] = (
        tr.calls("geometry.roi_sample_frame") / forwards if forwards else 0.0)
    out["ica.anchors_per_frame"] = ratio(c["anchors"])
    out["matching.calls_per_clip"] = tr.calls("matching.match_frame") / forwards if forwards else 0.0
    out["matching.pad_share"] = mean(c["pad"])
    if scipy_assignment() is None:
        tr.missing["matching.optimal_share"] = "scipy is not installed; check skipped"
    else:
        out["matching.optimal_share"] = mean(c["optimal"])
    return out
