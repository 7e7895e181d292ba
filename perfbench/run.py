#!/usr/bin/env python3
"""qpad-bench: build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload paper|fast --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; the build goes to .bench_build/perfbench at the root
of the checkout (next to this directory). The last line of stdout is
the JSON result printed by qpad_bench (see src/main.cc); the exit code
is qpad_bench's. --self-test builds and runs the benchmark's unit
tests instead.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# A run must end within 180 s; leave room for the no-op build.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_env():
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def run_logged(cmd, log, env):
    """Run a build step; on failure show the tail of its log and exit."""
    with open(log, "w") as out:
        code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode
    if code != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        die(f"build step failed: {' '.join(cmd)}")


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"qpad sources not found at {ROOT}; the benchmark builds them")
    env = build_env()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_DIR / "configure.log", env)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", target,
                "-j", jobs], BUILD_DIR / "build.log", env)
    return BUILD_DIR / target


def source_digest():
    """SHA-256 over the files the build reads, path by path."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", BENCH_DIR / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR / "src", BENCH_DIR / "tests"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "fast"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([str(build("qpad_bench_test"))]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("qpad_bench")
    cmd = [str(binary),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die(f"qpad_bench did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
