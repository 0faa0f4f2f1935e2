#!/usr/bin/env python3
"""Builds and runs the natix benchmark for one workload and one seed.

    python3 perfbench/run.py --workload paper-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and compiles
the library and the benchmark program from source (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only check the build is current. Everything the run writes (store files,
traces) stays under that directory. The program's output is passed
through; its last line is the JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("paper-hot", "adhoc-compile", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # One build at a time per checkout, even if runs start concurrently.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                              "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            jobs = str(min(4, os.cpu_count() or 1))
            steps.append(["cmake", "--build", build_dir, "-j", jobs])
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed (see %s)" % log_path)
    return os.path.join(build_dir, "natix_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("%s not found: run from a full checkout" % needed)

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    binary = build(root, build_dir)
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    env = dict(os.environ, TMPDIR=scratch)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    proc = subprocess.Popen(command, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
