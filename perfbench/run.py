#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload proof-sym --seed 1 --seconds 55 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench with a Release build; later
calls only check that the build is up to date.  Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


# Compiler and benchmark temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def build() -> None:
    if not (ROOT / "src" / "verify" / "run.hpp").is_file():
        sys.exit("perfbench: no library sources under src/; run it from a "
                 "full checkout of the repository")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main() -> int:
    build()
    sys.stdout.flush()
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:],
           "--work-dir", str(BUILD / "work")]
    return subprocess.run(cmd, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main())
