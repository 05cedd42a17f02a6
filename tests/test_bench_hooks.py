"""The benchmark traces the package by name: bench/tracing.py's HOOKS list
each traced function as (module, target). These checks catch a renamed
target or a changed matching signature in the fast suite, without running
the benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from clipvid import matching as mt

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("clipvid_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_hook_resolves():
    unresolved = []
    for hook in load_tracing().HOOKS:
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
