#!/usr/bin/env python3
"""Build the evolve benchmark and run one workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the repository root. The `perfbench` crate is built (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, and the workload
runs in a process of its own; its last stdout line is the JSON result.
`--workload all` runs the benchmark's workloads (those in BENCHMARK.json)
in turn, each in its own process, and ends with one combined JSON line
whose metric names are prefixed by the workload. NOTES.md describes the
workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-des", "serve-open"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr: the last stdout line is the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main(argv):
    if "--workload" not in argv[:-1]:
        print(__doc__, file=sys.stderr)
        return 2
    at = argv.index("--workload")
    workload, rest = argv[at + 1], argv[:at] + argv[at + 2:]
    binary = build()
    if binary is None:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    if workload != "all":
        return subprocess.run([binary, "--workload", workload] + rest).returncode
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([binary, "--workload", name] + rest, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"run.py: workload {name} failed", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
