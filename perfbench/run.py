#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The library under src/ and
perfbench/perfbench.cpp are compiled (optimized) into .bench_build/perfbench;
later runs only rebuild what changed.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Any further arguments
(--tiny, --tamper) are passed to the benchmark binary unchanged.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(OUT_DIR, "build")
WORK_DIR = os.path.join(OUT_DIR, "work")


def build():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        sys.exit("perfbench: no library sources at %s; run from a full checkout" % src)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    os.makedirs(WORK_DIR, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary, "--workdir", WORK_DIR] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
