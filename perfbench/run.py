#!/usr/bin/env python3
"""Build and run the negotiation-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call compiles the stack from src/
together with the benchmark driver (perfbench/CMakeLists.txt) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild only what
changed. The driver binary prints one JSON result as its last stdout line and
exits non-zero when a correctness gate fails. Workloads and metrics are
described in perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configure (once) and build; all tool output goes to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", out_dir, "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0:
        return True
    # A cache left by a checkout at another path cannot be reused: start over.
    shutil.rmtree(out_dir, ignore_errors=True)
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(out_dir, "qnp_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
