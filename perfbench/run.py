#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-static --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the simulator library from
src/ plus the benchmark binary from perfbench/src/) into .bench_build/;
later calls only rebuild what changed.  The binary prints every metric by
name with its unit and, as its last stdout line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  This script checks that the metric
names and units are exactly the ones BENCHMARK.json declares for the run's
mode (end_to_end for --trace 0, per_layer for --trace 1).  It exits non-zero
when the build fails, a correctness check fails or the metrics disagree
with BENCHMARK.json.  With --trace 1 the recorded spans are written to
.bench_build/spans/<workload>-seed<n>.json (Chrome trace-event JSON).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "uc_perfbench")
WORKLOADS = ("fleet-static", "fleet-rebalance-read", "contract-audit")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    """{name: unit} for the run's mode, or None without BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(args):
    """Runs uc_perfbench; returns (exit code, stdout lines, parsed result)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def metric_mismatches(result, trace):
    """Names/units that differ from BENCHMARK.json (empty when they agree)."""
    declared = declared_metrics(trace)
    if declared is None:
        return []
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing {n}" for n in declared if n not in emitted]
    problems += [f"undeclared {n}" for n in emitted if n not in declared]
    problems += [f"{n}: unit {emitted[n]} != {u}" for n, u in declared.items()
                 if n in emitted and emitted[n] != u]
    return problems


def bench(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(
            spans_dir, f"{opts.workload}-seed{opts.seed}.json")]
    code, lines, result = run_binary(args)
    if result is None:
        fail(f"uc_perfbench printed no result (exit code {code})")
    problems = metric_mismatches(result, opts.trace)
    if problems:
        fail("metrics disagree with BENCHMARK.json: " + "; ".join(problems))
    print("\n".join(lines))
    sys.exit(code)


def self_test():
    """The binary's self-test plus reduced-size runs of both fleet workloads."""
    code, lines, _ = run_binary(["--self-test"])
    print("\n".join(lines))
    failures = 0 if code == 0 else 1
    spans = os.path.join(BUILD, "spans-selftest.json")
    for workload in WORKLOADS[:2]:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--clusters", "4", "--tenants", "32",
                    "--spans", spans]
            code, _, result = run_binary(args)
            problems = ["no result"] if result is None else metric_mismatches(
                result, trace)
            if code != 0 or (result is not None and not result["correct"]):
                problems.append(f"exit code {code}")
            if trace and not problems:
                with open(spans) as f:
                    names = {e["name"] for e in json.load(f)["traceEvents"]}
                want = {f"workload.{workload}", "fleet.generate", "fleet.run",
                        "ladder.sim.kernel", "ladder.ebs", "ladder.essd.submit",
                        "ladder.ssd.submit"}
                problems += [f"span {n} missing" for n in sorted(want - names)]
            status = "ok  " if not problems else "FAIL"
            print(f"{status} {workload} --trace {trace} (4 clusters / 32 tenants)"
                  + ("" if not problems else ": " + "; ".join(problems)))
            failures += bool(problems)
    print("perfbench self-test:", "passed" if failures == 0 else "FAILED")
    sys.exit(0 if failures == 0 else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    if not opts.self_test and opts.workload is None:
        p.error("--workload is required")
    build()
    if opts.self_test:
        self_test()
    bench(opts)


if __name__ == "__main__":
    main()
