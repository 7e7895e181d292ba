#!/usr/bin/env python3
"""Time a change against its parent with perfbench and append the record.

    python3 tools/bench_pairs.py PARENT_REV "record title"

Clones this repository at PARENT_REV into a temporary directory (under
$TMPDIR) and times it against this checkout's working tree with
`perfbench/run.py`: for every workload of BENCHMARK.json, 10 pairs at
seeds 1-10 and BENCHMARK.json's run_seconds, the parent first in odd
pairs and the change first in even ones, then one traced seed-0 run
per side. Each side first builds with a 1-second seed-0 run, which also
checks the reference CSV. The record (medians, inclusive quartiles,
pairs won, failed and attempted points, both source digests, the traced
per-layer values) is appended to BENCH_e2e.json in the schema its
"about" describes; the records already there keep their bytes.

Exits 1, appending nothing, if any run fails or reports a failed point.
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

USAGE = 'usage: python3 tools/bench_pairs.py PARENT_REV "record title"'
ROOT = Path(__file__).resolve().parent.parent
RECORD_FILE = ROOT / "BENCH_e2e.json"
SEEDS = range(1, 11)
PROTOCOL = ("alternating pairs, parent first in odd pairs and change "
            "first in even ones")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def sig4(value):
    """Four significant digits; a count stays exact."""
    return value if isinstance(value, int) else float(f"{value:.4g}")


def run_bench(checkout, workload, seed, seconds, trace=0):
    """One perfbench run: (config stamp, result) or exit 1 on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    where = f"{checkout}: {' '.join(cmd[1:])}"
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"bench_pairs: run failed (exit {proc.returncode}): {where}")
    result = json.loads(lines[-1])
    if result["failed"] != 0 or not result["correct"]:
        sys.exit(f"bench_pairs: {result['failed']} of "
                 f"{result['attempted']} points failed: {where}")
    config = next(json.loads(l[len("config "):]) for l in lines
                  if l.startswith("config "))
    name, metric = next(iter(result["metrics"].items()))
    print(f"  {where}: {name} {metric['value']:.4g}", flush=True)
    return config, result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": sig4(median), "q1": sig4(q1), "q3": sig4(q3)}


def render(value, level):
    """JSON in the file's layout: a value that fits in 100 columns on
    one line stays there, anything larger opens one entry a line."""
    flat = json.dumps(value, ensure_ascii=False)
    if not isinstance(value, (dict, list)) or len(flat) + 2 * level <= 100:
        return flat
    pad = "  " * (level + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {render(v, level + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * level + "}"
    items = [pad + render(v, level + 1) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + "  " * level + "]"


def append_record(record):
    text = RECORD_FILE.read_text()
    before = json.loads(text)["records"]
    tail = "\n  ]\n}\n"
    if not text.endswith(tail):
        sys.exit(f"bench_pairs: {RECORD_FILE.name} does not end in its "
                 "records list")
    text = (text[:-len(tail)] + ",\n    " + render(record, 2) + tail)
    if json.loads(text)["records"] != before + [record]:
        sys.exit("bench_pairs: appending would change earlier records")
    RECORD_FILE.write_text(text)


def main():
    if len(sys.argv) != 3:
        sys.exit(USAGE)
    parent_rev, title = sys.argv[1], sys.argv[2]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in bench["end_to_end"]}
    parent_sha = git("rev-parse", "--short", f"{parent_rev}^{{commit}}")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp) / "parent"
        git("clone", "--quiet", str(ROOT), str(parent))
        git("checkout", "--quiet", parent_sha, cwd=parent)
        sides = {"parent": parent, "change": ROOT}

        digests, host = {}, None
        for side, checkout in sides.items():
            print(f"building {side} ({checkout})", flush=True)
            config, _ = run_bench(checkout, workloads[0], 0, 1)
            digests[side] = config["source_digest"]
            host = (f"{config['nproc']}-vCPU host, "
                    f"{'AVX2' if config['host_avx2'] else 'no AVX2'}, "
                    f"{config['compiler']}, {config['build_type']}")

        record = {
            "title": title,
            "parent": parent_sha,
            "change": None,
            "parent_source_digest": digests["parent"],
            "change_source_digest": digests["change"],
            "backfilled": False,
            "host": host,
            "protocol": PROTOCOL,
            "workloads": {},
            "traced_seed0": {},
        }
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in SEEDS:
                order = ["parent", "change"]
                if seed % 2 == 0:
                    order.reverse()
                for side in order:
                    runs[side].append(
                        run_bench(sides[side], workload, seed, seconds)[1])
            values = {side: [{k: v["value"]
                              for k, v in r["metrics"].items()}
                             for r in side_runs]
                      for side, side_runs in runs.items()}
            every_run = runs["parent"] + runs["change"]
            record["workloads"][workload] = {
                "seeds": list(SEEDS),
                "pairs": len(SEEDS),
                "seconds": seconds,
                "failed_points": sum(r["failed"] for r in every_run),
                "attempted_points": sum(r["attempted"] for r in every_run),
                "metrics": {
                    m: {
                        "parent": summary([v[m] for v in values["parent"]]),
                        "change": summary([v[m] for v in values["change"]]),
                        "pairs_won": sum(
                            (c[m] < p[m]) if lower else (c[m] > p[m])
                            for p, c in zip(values["parent"],
                                            values["change"])),
                    }
                    for m, lower in lower_is_better.items()
                },
            }
            traced = {"seconds": seconds}
            for side, checkout in sides.items():
                result = run_bench(checkout, workload, 0, seconds, trace=1)[1]
                traced[side] = {k: sig4(v["value"])
                                for k, v in result["metrics"].items()}
            record["traced_seed0"][workload] = traced

    append_record(record)
    print(f"appended '{title}' to {RECORD_FILE.name}")


if __name__ == "__main__":
    main()
