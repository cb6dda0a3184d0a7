#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). GSTG_* variables are removed from the
binary's environment, so ambient overrides cannot change what is measured.
The last line of stdout is the run's JSON result; its metric set is checked
against BENCHMARK.json before it is printed. Exits non-zero, without a
result, when the build, the run or that check fails, and with the binary's
non-zero code when an output check of the program failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def clean_env(env):
    """`env` without the GSTG_* overrides the program reads."""
    return {k: v for k, v in env.items() if not k.startswith("GSTG_")}


def expected_metrics(spec, trace):
    """name -> unit of the metrics a run must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with a run's JSON result (an empty list when it is valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(expected)):
        problems.append("unexpected metric " + name)
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append("%s: unit %s, expected %s" % (name, got[name], expected[name]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    return problems


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    log = sys.stderr
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return build_dir / "perfbench"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("run.py: unknown workload " + args.workload, file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             env=clean_env(os.environ), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        print("run.py: perfbench printed no result (exit %d)" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("run.py: last line is not JSON: " + lines[-1], file=sys.stderr)
        return 1
    problems = check_result(result, expected_metrics(spec, args.trace == "1"))
    if problems:
        print("run.py: result does not match BENCHMARK.json: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
