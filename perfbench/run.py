#!/usr/bin/env python3
"""Builds and runs the FLICK loopback benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
repository's flick_core library) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. The benchmark
binary's standard output is passed through: its last line is the JSON result.
Build output goes to standard error.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no FLICK source tree around %s" % HERE, file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out: %s" % " ".join(cmd), file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return 2 if binary is None else run([binary], RUN_TIMEOUT_S)
    if not args.workload:
        ap.error("--workload is required")
    binary = build("flickbench")
    if binary is None:
        return 2
    sys.stdout.flush()
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
