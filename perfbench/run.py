#!/usr/bin/env python3
"""Perf ledger of the SAIM workspace: build the harness and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (perfbench/harness, a Cargo
package of its own with a path dependency on the workspace crates) is built
in release mode into $CARGO_TARGET_DIR (default .bench_build), then run once.
It prints a report line with every metric and the run's parameters; this
script adds provenance to it, checks every metric name and unit of the
result against BENCHMARK.json, and prints the result line last. Any failure
exits non-zero without printing a result.

Every workload in turn:

    for w in saim-qkp saim-mkp baselines-qkp serve-routed; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

SCHEMA_VERSION = 1
HARNESS = os.path.join("perfbench", "harness")
SCRATCH = ".perfbench_scratch"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    """A run that must not print a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(bench, trace):
    """Name -> unit of the metrics a result line must carry."""
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, bench, trace):
    """Parses the harness's result line and checks it against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise BenchError(f"result line is not JSON: {e}") from e
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys are {sorted(result) if isinstance(result, dict) else result}")
    if not isinstance(result["correct"], bool):
        raise BenchError("`correct` is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise BenchError(f"`{key}` is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("nothing was attempted")
    expected = expected_metrics(bench, trace)
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise BenchError(f"metric {name} is not {{value, unit}}")
        if m["unit"] != unit:
            raise BenchError(f"metric {name} has unit {m['unit']!r}, BENCHMARK.json says {unit!r}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"metric {name} has a non-numeric value {v!r}")
    return result


def source_digest(root):
    """SHA-256 over the workspace sources the benchmark builds from."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "vendor", HARNESS):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            h.update(rel.encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def command_output(cmd, root):
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root, target_dir):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"], root),
        "source_sha256": source_digest(root),
        "nproc": nproc,
        "rustc": command_output(["rustc", "--version"], root),
        "cargo_profile": "release (lto = thin, codegen-units = 1)",
        "target_dir": target_dir,
    }


def build(root, target_dir):
    manifest = os.path.join(HARNESS, "Cargo.toml")
    if not os.path.isfile(os.path.join(root, manifest)):
        raise BenchError(f"{manifest} is missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError("build failed (the workspace crates must sit next to perfbench/)")
    binary = os.path.join(root, target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        raise BenchError(f"{binary} was not built")
    return binary


def run_harness(root, binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"harness ran past {RUN_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise BenchError(f"harness exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise BenchError("harness printed no report")
    return lines[-2], lines[-1]


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    trace = args.trace == "1"
    try:
        bench = load_benchmark(root)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; BENCHMARK.json has {names}")
        target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        binary = build(root, target_dir)
        report_line, result_line = run_harness(root, binary, args)
        result = check_result(result_line, bench, trace)
        report = json.loads(report_line)["report"]
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, SCRATCH), ignore_errors=True)
    report = {"schema_version": SCHEMA_VERSION, "provenance": provenance(root, target_dir), **report}
    print(json.dumps({"report": report}, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
