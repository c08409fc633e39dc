#!/usr/bin/env python3
"""Entry point of perfbench, the repository's benchmark.

    python3 perfbench/run.py --workload ingest|window|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark and the library from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the
checkout), runs one workload and prints, as the last line of standard
output, one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with --trace 1
its per_layer set, where a metric the workload does not measure reads 0;
the traced run also writes its spans as Chrome trace_event JSON next to
the build. Exits 1, without a result line, when
the build fails or the result does not match BENCHMARK.json; exits 1 with
the result line when any answer disagreed with the reference.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170     # the workload itself; the first build may add more
WORKLOADS = ("ingest", "window", "serve")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures until a build system exists, then rebuilds incrementally;
    output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4",
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    """Returns a list of problems with the result line (empty = valid).
    In a traced result, fills each per-layer metric the workload does not
    measure with 0: the bypass the workload predicts, measured."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    if trace:
        for name in set(want) - set(got):
            got[name] = {"value": 0, "unit": want[name]}
    if set(got) != set(want):
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} must be > 0")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    if not build(out_dir):
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out_dir, "perfbench_selftest")]).returncode

    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--tmpdir", tmp]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log(f"{args.workload} printed nothing (exit {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not JSON: {lines[-1][:200]}")
        return 1
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"{args.workload}: {result['failed']} of {result['attempted']} "
            f"operations failed or disagreed with the reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
