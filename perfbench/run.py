#!/usr/bin/env python3
"""Train/serve benchmark of the nscaching-suite workspace.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload in a process of its own, prints every
metric by name with its unit, and prints the result as one JSON object on the
last line of standard output. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the per-layer
metrics, from a traced run made after an untraced one, plus the tracing
overhead: the traced end-to-end numbers relative to the untraced ones.

Exits 1 when an output check fails, and 2 when the run cannot be made (for
example outside a checkout of the repository).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 880
# A run must end within 180 s of the build; leave room for start-up.
RUN_BUDGET_S = 170
# End-to-end metrics whose traced/untraced ratio is the tracing overhead.
OVERHEAD = {"run_s": "trace.overhead_run_s", "ops_per_s": "trace.overhead_ops_per_s",
            "p50_ms": "trace.overhead_p50_ms"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a checkout of the repository: nothing to build")
    command = ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def run_workload(binary, args, traced, env, deadline):
    """Run one workload process; return its result object."""
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
               "--work-dir", str(ROOT / ".bench_build" / "perfbench-work")]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s", 1)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} exited with code {done.returncode} and no result", 1)
    result = json.loads(lines[-1])
    if done.returncode not in (0, 1):
        fail(f"{args.workload} exited with code {done.returncode}", 1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    # The benchmark pins the shard count; a CI matrix variable must not.
    env.pop("NSC_SHARDS", None)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    binary = build(env)

    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_workload(binary, args, False, env, deadline)
    wanted = spec["end_to_end"]
    result = untraced
    if args.trace:
        traced = run_workload(binary, args, True, env, deadline)
        for name, overhead in OVERHEAD.items():
            base = untraced["metrics"][name]["value"]
            traced["metrics"][overhead] = {
                "value": traced["metrics"][name]["value"] / base - 1.0, "unit": "ratio"}
        traced["correct"] = untraced["correct"] and traced["correct"]
        result = traced
        wanted = spec["per_layer"]

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            fail(f"{args.workload} did not report {name}", 1)
        if result["metrics"][name]["unit"] != metric["unit"]:
            fail(f"{name}: unit {result['metrics'][name]['unit']} != {metric['unit']}", 1)
        metrics[name] = result["metrics"][name]
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
