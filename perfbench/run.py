#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks its outputs and prints the result.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Workloads: those of BENCHMARK.json (see perfbench/NOTES.md). The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; with --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. Everything above it
is the human-readable report: each op's verdict, then every metric by name
with its unit.

With --trace 0 every run reports every end-to-end metric: after the
workload's own process, each other workload runs in a companion process of
its own for a third of --seconds and adds its own metrics. Companion ops
are checked and printed but do not count in attempted/failed. setup_s and
peak_rss_mb are always the workload's own; setup_s is the median over the
measuring process and SETUP_LAUNCHES more processes that only set up, each
timed from just before its launch to its first timed op, so every sample
is a cold start.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), as
do the per-run scratch files, the span dumps of traced runs and the
deterministic counters of earlier runs, against which every later run of
the same binary with the same workload and seed is checked.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
SETUP_LAUNCHES = 4
SETUP_TIMEOUT_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", "4"]]
    # The Makefile appears only once a configure step has succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (see {log_path})")
    return os.path.join(build_dir, "perfbench")


def launch(cmd, timeout, what):
    """Runs perfbench, telling it when it was launched (CLOCK_MONOTONIC),
    and returns its report lines and its result object."""
    cmd = cmd + ["--launched-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} exceeded {timeout} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{what} exited with code {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} printed no result")


def check_counters(build_dir, binary, tag, counters):
    """Deterministic counters must repeat exactly for the same input."""
    # Keyed by the binary too: a rebuilt program may count differently.
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:12]
    path = os.path.join(build_dir, "counters", f"{tag}-{build_id}.json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        diff = sorted(k for k in set(before) | set(counters)
                      if before.get(k) != counters.get(k))
        for k in diff[:10]:
            print(f"counter differs from an earlier run: {k}: "
                  f"{before.get(k)} -> {counters.get(k)}")
        return not diff
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counters, f, sort_keys=True)
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(build_dir, "runs", f"{tag}-{os.getpid()}")
    spans = os.path.join(build_dir, "spans", f"{tag}.jsonl")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.dirname(spans), exist_ok=True)

    def cmd(workload, seconds, wd):
        return [binary, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
                "--ir-dir", os.path.join(ROOT, "examples", "ir"),
                "--workdir", wd]

    try:
        own = cmd(args.workload, args.seconds, workdir)
        if args.trace:
            own += ["--spans-out", spans]
        report, raw = launch(own, 2 * args.seconds + 120, "perfbench")
        print("\n".join(report))
        repeated = check_counters(build_dir, binary, tag, raw["counters"])
        correct = raw["correct"] and repeated
        if not args.trace:
            for other in (w["name"] for w in spec["workloads"]):
                if other == args.workload:
                    continue
                wd = os.path.join(workdir, other)
                os.makedirs(wd)
                creport, craw = launch(cmd(other, args.seconds / 3, wd),
                                       args.seconds + 120,
                                       f"companion {other}")
                print(f"companion run of {other}:")
                print("\n".join(creport))
                repeated = check_counters(build_dir, binary,
                                          f"{other}-seed{args.seed}",
                                          craw["counters"])
                correct = correct and craw["correct"] and repeated
                for name, value in craw["metrics"].items():
                    if name not in ("setup_s", "peak_rss_mb"):
                        raw["metrics"][name] = value
            setups = [raw["metrics"]["setup_s"]]
            for k in range(SETUP_LAUNCHES):
                wd = os.path.join(workdir, f"setup{k}")
                os.makedirs(wd)
                _, sraw = launch(cmd(args.workload, args.seconds, wd) +
                                 ["--setup-only", "1"], SETUP_TIMEOUT_S,
                                 "set-up run")
                setups.append(sraw["setup_s"])
            print("setup_s samples (s): " +
                  " ".join(f"{v:.4f}" for v in setups))
            raw["metrics"]["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None and not args.trace:
            fail(f"end-to-end metric {m['name']} was not measured")
        value = 0.0 if value is None else value
        if not math.isfinite(value):
            fail(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"\n{args.workload} seed {args.seed}: "
          f"{'per-layer' if args.trace else 'end-to-end'} metrics")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  error_rate: {raw['failed']}/{raw['attempted']} ops failed"
          f" ({raw['failed'] / raw['attempted']:.4f}); "
          f"outputs {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
