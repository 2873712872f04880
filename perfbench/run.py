#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_sweep --seed 1 \\
        --seconds 10 --trace 0

Builds the harness from source on first use (into .bench_build/ at the
repo root), generates the workload's inputs from --seed, runs the
harness for --seconds of measured iterations, and prints a human table,
a record line with the host and checks, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics; --trace 1 gives the per-layer metrics of a
traced run. See perfbench/README.md.
"""

import argparse
import json
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import benchlib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
# A run must finish within 180 s, or 900 s when it builds from source;
# leave room for start-up and clean-up.
RUN_DEADLINE_S = 170
FIRST_RUN_DEADLINE_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def worker_count():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, min(usable, os.cpu_count() or 1))


def run_logged(cmd, log_path, timeout):
    """Run a build step with its output in a log; False on failure."""
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def build(workers):
    """Configure (once) and build the harness; returns an error or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    if not configured():
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], log_path, 300):
            return "cmake configure failed, see " + log_path
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", str(workers)],
                      log_path, 850):
        return "build failed, see " + log_path
    return None


def configured():
    return os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))


def source_digest():
    """SHA-256 over the repo's src/ tree: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_record(raw, workers):
    return {
        "hardware_threads": os.cpu_count(),
        "workers": workers,
        "machine": platform.machine(),
        "build_type": raw["texts"].get("build_type"),
        "compiler": raw["texts"].get("compiler"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(benchlib.WORKLOAD_UNITS))
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no vmargin sources at " + os.path.join(ROOT, "src"))
    workers = worker_count()
    deadline = RUN_DEADLINE_S if configured() else FIRST_RUN_DEADLINE_S
    error = build(workers)
    if error:
        return fail(error)

    workdir = os.path.join(ROOT, ".bench_build", "work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    log_path = workdir + ".log"
    cmd = [HARNESS, "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workers", str(workers), "--workdir", workdir]
    cmd += benchlib.derive_inputs(args.workload, args.seed)
    budget = max(10.0, deadline - (time.monotonic() - started))
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  timeout=budget)
    except subprocess.TimeoutExpired:
        return fail("harness exceeded %.0f s" % budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log_path, "rb") as log:
            sys.stderr.write(log.read().decode(errors="replace")[-4000:])
        return fail("harness exited with code %d" % proc.returncode)
    os.remove(log_path)
    raw = json.loads(lines[-1])

    result = benchlib.result_line(raw, args.trace)
    unit = benchlib.WORKLOAD_UNITS[args.workload]
    print("workload %s, seed %d, %s" % (args.workload, args.seed,
                                        "traced" if args.trace
                                        else "untraced"))
    for name, metric in result["metrics"].items():
        print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if not args.trace:
        print("  %-36s %14.6g %s/s (= throughput_per_s)"
              % (unit + "_per_s",
                 result["metrics"]["throughput_per_s"]["value"], unit))
        print("  %-36s %14.6g ratio" % ("failed_ratio",
                                        benchlib.failed_ratio(raw)))
    for name in ("fidelity.vmin_err_mv", "fidelity.rmse_vs_naive",
                 "fidelity.savings_pct"):
        if name in raw["values"] and not args.trace:
            print("  %-36s %14.6g" % (name, raw["values"][name]))
    for name, check in sorted(raw["checks"].items()):
        if check["failed"]:
            print("  CHECK FAILED %s (%d of %d): %s"
                  % (name, check["failed"],
                     check["failed"] + check["passed"], check["detail"]))
    print(json.dumps({
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs": benchlib.derive_inputs(args.workload, args.seed),
            "host": host_record(raw, workers),
            "untraced_rate_quartiles":
                benchlib.quartiles(benchlib.rates(raw, "untraced")),
            "hashes": {k: v for k, v in raw["texts"].items()
                       if k.endswith("_hash")},
            "checks": raw["checks"],
        }
    }, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
