"""Smoke test of the benchmark harness at reduced size (about half a minute).

    python3 -m pytest -q bench/smoke_check.py

The file name keeps it out of the package's default test collection: it
checks the benchmark, whose hooks follow the package's function names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    details, result = out.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload):
    _details, e2e = bench(workload, 0)
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    details, layers = bench(workload, 1)
    assert layers["correct"] and details["missing"] == {}
    assert set(layers["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["metrics"]["trace.coverage"]["value"] >= 0.95


def test_same_seed_gives_identical_loss_log():
    (a, ra), (b, rb) = bench("train_desk", 0), bench("train_desk", 0)
    assert a["digests"] == b["digests"]
    assert ra["metrics"]["loss"]["value"] == rb["metrics"]["loss"]["value"]


def test_spec_lists_the_traced_metrics():
    table = [(name, unit, better) for name, unit, better, _needs, _moves in tracing.layer_table()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == table
