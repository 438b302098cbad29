#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into .bench_build/perfbench, runs the helper
self-tests, then runs one workload and forwards its output. The last line
of stdout is the JSON result object.

    python3 perfbench/run.py --workload wire_uniform --seed 1 \\
        --seconds 20 --trace 0

Exit status: the driver's (0 = every answer passed its check), or 1 when
the sources are missing, the build fails or a self-test fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("wire_uniform", "wire_zipf_churn", "paper_offline")
DRIVER_TIMEOUT_S = 600


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              universal_newlines=True)
    if selftest.returncode:
        sys.stderr.write(selftest.stdout)
        fail("helper self-tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("src/net/server.hpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("missing %s: run from a full checkout of the repository" % need)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench_driver"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--trace", args.trace, "--out-dir", build_dir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload timed out after %d s" % DRIVER_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
