"""Record the benchmark's trajectory files: BENCH_<workload>.json.

    python3 record_bench.py

For each workload that BENCHMARK.json declares and for seeds 1-3, runs

    python3 bench/run.py --workload W --seed S --seconds <run_seconds>

one run at a time, and parses the two JSON lines it prints: the details,
then the result. Each BENCH_<workload>.json holds the commit and whether
the working tree differed from it, the environment, each seed's metrics,
output digests, reference-kernel ms and wall-time quantiles, and the
median of each metric over the seeds. Exits 1 if a run fails or reports
itself incorrect; the files are written either way.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The (details, result) of one bench/run.py run: its last two
    non-empty output lines."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"expected a details and a result line, got {len(lines)} lines")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if "metrics" not in result or "correct" not in result:
        raise ValueError("the last line is not a benchmark result")
    return details, result


def seed_record(seed: int, details: dict, result: dict) -> dict:
    """One seed's entry of a BENCH file."""
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "digests": details["digests"], "kernel_ms_p50": details["speed"]["kernel_ms_p50"],
            "wall_quantiles_ms": details["steps"]["wall_quantiles_ms"]}


def summarize(workload: str, runs: list[tuple[int, dict, dict]], commit: str,
              dirty: bool) -> dict:
    """The BENCH_<workload>.json document of (seed, details, result) runs,
    which all report the same metrics."""
    seeds = [seed_record(*run) for run in runs]
    first = runs[0][2]["metrics"] if runs else {}
    return {"workload": workload, "commit": commit, "dirty": dirty,
            "env": runs[0][1]["env"] if runs else {}, "seeds": seeds,
            "median": {name: {"value": statistics.median(s["metrics"][name] for s in seeds),
                              "unit": m["unit"]} for name, m in first.items()}}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Dirty: the measured tree differs from the commit, the BENCH files aside.
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", ".", ":!BENCH_*.json"))
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"])]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            try:
                if proc.returncode:
                    raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                details, result = parse_run(proc.stdout)
            except ValueError as e:
                print(f"{workload} seed {seed}: {e}", file=sys.stderr)
                ok = False
                continue
            ok = ok and result["correct"]
            runs.append((seed, details, result))
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        doc = summarize(workload, runs, commit, dirty)
        (ROOT / f"BENCH_{workload}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
