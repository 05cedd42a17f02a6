"""The benchmark traces the package by name: bench/tracing.py's HOOKS list
each traced function as (module, target). These checks catch a renamed
target, a changed matching signature or a broken observer in the fast
suite, without the full-length benchmark."""

import argparse
import importlib
import importlib.util
import inspect
import math
import re
import sys
from pathlib import Path

from clipvid import matching as mt

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"clipvid_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_hook_resolves():
    unresolved = []
    for hook in load_bench_module("tracing").HOOKS:
        owner = importlib.import_module(f"clipvid.{hook.module}")
        for name in hook.target.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            unresolved.append(hook.span)
    assert unresolved == []


def test_cost_matrix_takes_match_frame_arguments():
    """The optimality observer calls cost_matrix with the arguments of each
    match_frame call."""
    assert inspect.signature(mt.cost_matrix).parameters \
        == inspect.signature(mt.match_frame).parameters


def test_small_traced_benchmark_run_observes_every_layer(monkeypatch, tmp_path):
    """bench/run.py's run() on a small traced train_desk: every per-layer
    metric is observed (an observer that raises, such as the matching
    optimality check, reports it missing) and the run is correct."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")                   # run.py sets these on import
    # run.py imports tracing by its bare name, as a script in bench/ does.
    monkeypatch.setitem(sys.modules, "tracing", load_bench_module("tracing"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_clipvid prepends src/
    run = load_bench_module("run")
    args = argparse.Namespace(workload="train_desk", seed=1, seconds=0.3, trace=1, small=True)
    details, result = run.run(args, run.import_clipvid(), tmp_path)
    assert details["missing"] == {}
    assert result["correct"] and result["failed"] == 0
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # The record count is read from the tape after backward has released it.
    assert result["metrics"]["autodiff.records_per_clip"]["value"] > 0


def test_small_untraced_inference_run_is_correct(monkeypatch, tmp_path):
    """bench/run.py's run() on a short untraced infer_long: the set-up's
    dataset round trip compares frame_gts, detection_loss scores the
    detections against them, and the run is correct with a finite loss and
    a detections digest."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(sys.modules, "tracing", load_bench_module("tracing"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load_bench_module("run")
    args = argparse.Namespace(workload="infer_long", seed=1, seconds=0.3, trace=0, small=True)
    details, result = run.run(args, run.import_clipvid(), tmp_path)
    assert details["notes"] == []
    assert result["correct"] and result["failed"] == 0
    assert math.isfinite(result["metrics"]["loss"]["value"])
    assert re.fullmatch("[0-9a-f]{64}", details["digests"]["detections_sha256"])
