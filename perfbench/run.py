#!/usr/bin/env python3
"""Build and run the two-clock benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload kv_serve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, one process each
    python3 perfbench/run.py --self-test     # the benchmark's own unit tests

The first call configures and builds the simulator and the `perfbench`
program into .bench_build/ (RelWithDebInfo, the repository's default);
later calls rebuild only what changed. Each workload runs in a fresh
process. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
every check passed. With --trace 1 the run's spans are written to
.bench_build/spans/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["paper_sweep", "kv_serve", "kv_durable_2pc"]


def run_timeout(seconds):
    """Seconds after which a workload process is killed.

    The measured KV passes take about --seconds, and the last one may
    overrun it by one pass. The KV warm-up pass and capacity search, the
    sweep's one full pass and the traced passes take about a minute more
    on a 4-vCPU VM. At --seconds 25 this is 170 s."""
    return 120 + 2 * seconds


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(cmd))
        return False
    if proc.returncode != 0:
        log(proc.stdout)
        log("perfbench: failed:", " ".join(cmd))
        return False
    return True


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the simulator sources (src/) are missing")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "--target", target,
                      "-j", jobs], 880)


def run_workload(workload, seed, seconds, trace):
    """Run one workload in a fresh process; relay its output.

    Returns (exit code, the parsed result line or None)."""
    cmd = [os.path.join(BUILD, "bin", "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timeout = run_timeout(seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: {workload} exceeded {timeout} s")
        return 1, None
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} printed no result line")
    if result is None:
        sys.stdout.write(out)
        return proc.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if args.self_test:
        if not build("perfbench_tests"):
            return 1
        return subprocess.call([os.path.join(BUILD, "bin", "perfbench_tests")],
                               cwd=ROOT)

    if not build("perfbench"):
        return 1
    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        return code

    # Every workload, each in its own process; one combined result line
    # with metric names prefixed by their workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_workload(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
