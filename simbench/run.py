#!/usr/bin/env python3
"""Builds and runs one simbench workload under a watchdog.

    python3 simbench/run.py --workload zipf-pagecache --seed 42 --seconds 30 --trace 0

The benchmark binary is built from source (`cargo build --release --offline`
into `$CARGO_TARGET_DIR`, default `.bench_build`), then run once in a child
process with a host-time budget of 60 s + 3 x `--seconds`. A child that
overruns the budget is killed and reported as a failed run of that workload,
so a livelocked simulation cannot hang the benchmark.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The run exits with code 0
only when every correctness check passed and every metric `BENCHMARK.json`
names for the mode (`end_to_end` for `--trace 0`, `per_layer` for
`--trace 1`) was measured.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, workload):
    """Reports a failed run: the reason on stderr, a failed result on stdout."""
    print(f"simbench: workload {workload}: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in (0, 3600]")

    if not os.path.isfile(os.path.join(ROOT, "crates", "workflow", "Cargo.toml")):
        print("simbench: the simulator crates are missing next to the benchmark "
              f"(expected {os.path.join(ROOT, 'crates')})", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("simbench: building the benchmark failed", file=sys.stderr)
        return 2

    binary = os.path.join(ROOT, target, "release", "simbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = 60 + 3 * args.seconds
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return fail(f"watchdog: ran past its {budget:g} s host budget and was killed",
                    args.workload)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        return fail(f"exited with code {child.returncode}", args.workload)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return fail(f"unreadable result line ({e})", args.workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail(f"result has keys {sorted(result)}", args.workload)
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        return fail(f"metrics not measured: {sorted(missing)}", args.workload)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
