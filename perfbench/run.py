#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload storefront --seed 1 --seconds 10 --trace 0

Builds the program's libraries (../src) and the benchmark into
.bench_build/perfbench (Release), runs the benchmark's self-tests, then runs
the workload in its own process. The last line of standard output is the JSON
result; build output and self-test output go to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("storefront", "analytics", "federated")


def source_id():
    """Digest of every source file the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def run_logged(command):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode == 0


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources next to the benchmark "
              f"({os.path.join(ROOT, 'src')} is missing)", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if not run_logged([os.path.join(BUILD_DIR, "perfbench_tests")]):
        print("perfbench: self-tests failed", file=sys.stderr)
        return 2

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id(), "--git-sha", git_sha(),
               "--work-dir", WORK_DIR]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
