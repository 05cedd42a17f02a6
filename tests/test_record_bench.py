"""record_bench.py's parsing and summary of bench/run.py output, on canned
lines: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)

ENV = {"blas": "scipy-openblas 0.3.31", "blas_threads": "1", "nproc": 2,
       "numpy": "2.4.6", "python": "3.11.7"}


def canned_output(seed: int, step_ms: float) -> str:
    details = {"digests": {"loss_log_sha256": f"{seed:064x}"}, "env": ENV, "notes": [],
               "seed": seed, "speed": {"kernel_ms_p50": 5.3, "reference_kernel_ms": 5.4},
               "steps": {"samples": 12, "wall_quantiles_ms": {"p50": step_ms * 1.1}},
               "workload": "train_desk"}
    result = {"correct": True, "attempted": 13, "failed": 0,
              "metrics": {"step_ms_p50": {"value": step_ms, "unit": "ms"},
                          "loss": {"value": 60.0 - seed, "unit": "loss"}}}
    return f"a warning on stdout\n{json.dumps(details)}\n{json.dumps(result)}\n\n"


def test_parse_run_reads_the_last_two_lines():
    details, result = record_bench.parse_run(canned_output(2, 9.5))
    assert details["seed"] == 2 and details["env"] == ENV
    assert result["metrics"]["step_ms_p50"] == {"value": 9.5, "unit": "ms"}


@pytest.mark.parametrize("stdout", ["", "{}\n", '{"env": {}}\n{"correct": true}\n',
                                    "{}\nnot json\n"],
                         ids=["empty", "one_line", "no_metrics", "not_json"])
def test_parse_run_refuses_output_without_a_result(stdout):
    with pytest.raises(ValueError):
        record_bench.parse_run(stdout)


def test_summarize_keeps_each_seed_and_the_medians():
    runs = [(seed, *record_bench.parse_run(canned_output(seed, ms)))
            for seed, ms in ((1, 10.0), (2, 8.0), (3, 12.5))]
    doc = record_bench.summarize("train_desk", runs, "f" * 40, dirty=True)
    assert (doc["workload"], doc["commit"], doc["dirty"], doc["env"]) == (
        "train_desk", "f" * 40, True, ENV)
    assert [s["seed"] for s in doc["seeds"]] == [1, 2, 3]
    first = doc["seeds"][0]
    assert first["metrics"] == {"step_ms_p50": 10.0, "loss": 59.0}
    assert first["digests"] == {"loss_log_sha256": f"{1:064x}"}
    assert first["kernel_ms_p50"] == 5.3 and first["wall_quantiles_ms"] == {"p50": 11.0}
    assert first["correct"] and first["failed"] == 0
    assert doc["median"] == {"step_ms_p50": {"value": 10.0, "unit": "ms"},
                             "loss": {"value": 58.0, "unit": "loss"}}
    json.dumps(doc)
