#!/usr/bin/env python3
"""Builds bench_suite from the checkout's sources and runs one workload.

    python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under bench_suite/; each run works in a fresh
directory there, removed afterwards. With --trace 1 the span file is
written to <build>/spans-<workload>.jsonl. The benchmark's own stdout is
passed through, so its last line is the result JSON; build output goes to
<build>/build.log, and its tail to stderr when the build fails. Exits
non-zero, without a result, when the repository sources are missing or the
build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "read-large", "insert-grow", "update-hybrid")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"bench_suite: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, log, timeout):
    with open(log, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            return False
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def build(build_dir):
    """Configures once, then brings the bench_suite target up to date."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    if ((configured or run_checked(configure, log, BUILD_TIMEOUT_S))
            and run_checked(["cmake", "--build", build_dir, "--target",
                             "bench_suite", "-j", jobs], log,
                            BUILD_TIMEOUT_S)):
        return os.path.join(build_dir, "bench_suite")
    with open(log, "rb") as f:
        sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
    if not configured:
        shutil.rmtree(build_dir, ignore_errors=True)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"repository sources not found under {ROOT}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "bench_suite")
    exe = build(build_dir)
    if exe is None:
        fail("build failed")

    # Inside the checkout, like everything the benchmark writes, so the
    # pools are file mappings on the checkout's file system (README.md,
    # "Run directory").
    run_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            build_dir, f"spans-{args.workload}.jsonl"))
    sys.stdout.flush()
    proc = None
    try:
        # Pools, checkpoints and the socket use relative names in run_dir.
        proc = subprocess.Popen(cmd, cwd=run_dir)
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench_suite: run timed out", file=sys.stderr)
        code = 3
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    # When this script is terminated it still stops and reaps the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    main()
