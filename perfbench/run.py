#!/usr/bin/env python3
"""End-to-end benchmark of sched91 (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-table3 --seed 1 \
        --seconds 15 --trace 0

Builds the library, the shipped `sched91` binary and the benchmark
client from this checkout's sources (into $CARGO_TARGET_DIR, default
.bench_build), runs the client, checks that its document names every
metric BENCHMARK.json lists for the run's mode with the right unit,
and prints that document as the last line of stdout.  Exits non-zero
without printing a document when the build or the client fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-table3", "batch-fpppp", "serve-mixed", "serve-isolated")
CLIENT_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns (client, sched91) paths."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError(f"sched91 sources not found ({needed})")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target",
         "sched91-cli", "perfbench_client"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(build_dir, "perfbench_client"),
            os.path.join(build_dir, "sched91_tools", "sched91"))


def expected_metrics(trace):
    """{name: unit} this run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def self_check(doc, trace):
    """Problems with the document's shape; empty when it is sound."""
    problems = []
    metrics = doc.get("metrics", {})
    want = expected_metrics(trace)
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got.get("unit") != unit:
            problems.append(f"metric {name} in {got.get('unit')}, not {unit}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {name} has no finite value")
    for name in metrics:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    for key in ("attempted", "failed"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            problems.append(f"{key} is not a count")
    if doc.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    # Relative to the checkout root: AF_UNIX socket paths stay short.
    run_dir = os.path.join(target, "run")
    os.makedirs(run_dir, exist_ok=True)
    try:
        client, sched91 = build(build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sched91", sched91, "--run-dir", run_dir]
    # Own process group, so a hung client and the daemons it started
    # can be stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = (out or "").strip().splitlines()
    if out is None or proc.returncode != 0 or not lines:
        log(f"client failed (exit {proc.returncode})")
        return 1
    doc = json.loads(lines[-1])
    problems = self_check(doc, args.trace)
    for p in problems:
        log(f"self-check: {p}")
    result = {
        "correct": bool(doc.get("correct")) and not problems,
        "attempted": doc.get("attempted", 0),
        "failed": doc.get("failed", 0),
        "metrics": doc.get("metrics", {}),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
