#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures a Release build of perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR or .bench_build, runs
one workload, and prints the benchmark's report; the last line of standard
output is the result object. Exits non-zero without a result when the build
or the run fails, and with exit code 1 (result marked "correct": false) when
an output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replay-cdnt", "replay-cdnw", "serve-cluster", "orchestrate-drift")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def validate(result, trace):
    """Checks the result object's shape against BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        raise ValueError("metrics differ from BENCHMARK.json: %s vs %s"
                         % (sorted(got), sorted(names)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    # Exit code 1 is a run whose output checks failed: its result (with
    # "correct": false) is still printed, and the run still fails.
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        print("perfbench: exit code %d" % proc.returncode, file=sys.stderr)
        return 4
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        validate(result, args.trace)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(proc.stdout)
        print("perfbench: bad result: %s" % e, file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
