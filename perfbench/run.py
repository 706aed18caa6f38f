#!/usr/bin/env python3
"""Build and run the opvec benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload airfoil-large --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the library sources it
compiles against) into .bench_build/perfbench; later runs rebuild only what
changed. Each workload runs as a fresh process of the opvbench program,
which measures it, checks its outputs and prints its metrics; the last line
of standard output is the JSON result. The exit status is 0 only when every
output check passed.

    python3 perfbench/run.py --self-test   # build and run the benchmark's own tests
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("airfoil-large", "hazard-sweep", "tet3d-ingest-dist")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_threads():
    """Threads, workers or ranks per workload: min(4, CPUs this process may use)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def run_quiet(cmd, env, timeout=None):
    """Run a build step with its output on stderr; stdout stays the result's."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(root, build_dir, target, threads, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], env)
        if rc != 0:
            return rc
    return run_quiet(["cmake", "--build", build_dir, "--target", target,
                      "-j", str(threads)], env)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "core"))
            and os.path.isfile(os.path.join(root, "perfbench", "CMakeLists.txt"))):
        log("run from the root of an opvec checkout (CMakeLists.txt, src/ and perfbench/ "
            "must be present)")
        return 2

    threads = load_threads()
    bench_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(bench_dir, "perfbench")
    tmp_dir = os.path.join(bench_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir, OMP_NUM_THREADS=str(threads))

    target = "perfbench_tests" if args.self_test else "opvbench"
    started = time.monotonic()
    if build(root, build_dir, target, threads, env) != 0:
        log("build failed")
        return 2
    log(f"build up to date after {time.monotonic() - started:.1f} s")
    if args.self_test:
        return run_quiet([os.path.join(build_dir, "perfbench_tests")], env)

    cmd = [os.path.join(build_dir, "opvbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--threads={threads}", f"--out-dir={os.path.join(bench_dir, 'runs')}"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    log(f"{args.workload} ran for {time.monotonic() - started:.1f} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        if lines:
            print(lines[-1])
        log(f"opvbench exited {proc.returncode} without a result line")
        return proc.returncode or 2
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"output check failed (exit {proc.returncode})")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
