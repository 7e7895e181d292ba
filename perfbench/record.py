#!/usr/bin/env python3
"""Append one trajectory record per workload to perfbench/trajectory.jsonl.

    python3 perfbench/record.py

For each workload in BENCHMARK.json: RUNS end-to-end runs of run.py,
seeds 0..RUNS-1,
summarised as median, first and third quartile per metric (Python's
statistics.quantiles(n=4)) with the spread (q3 - q1) / median; then one
seed-0 traced run for the per-layer metrics. Every run must report
correct results, or nothing is appended.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"record: {workload} seed {seed} trace {trace} failed:\n"
                 f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    config = next(json.loads(line[len("config "):]) for line in lines
                  if line.startswith("config "))
    return config, result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    records = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {}
        for seed in range(RUNS):
            config, result = run(workload, seed, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  f"sweep_s {result['metrics']['sweep_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
        _, traced = run(workload, 0, 1)
        config.pop("seed")
        records.append({
            "workload": workload,
            "config": config,
            "seeds": list(range(RUNS)),
            "end_to_end": {k: summary(v) for k, v in values.items()},
            "per_layer_seed0": {k: m["value"]
                                for k, m in traced["metrics"].items()},
        })
    with open(BENCH_DIR / "trajectory.jsonl", "a") as out:
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    for record in records:
        for name, s in record["end_to_end"].items():
            print(f"{record['workload']} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
