#!/usr/bin/env python3
"""Builds and runs the gedlib end-to-end benchmark (perfbench/README.md).

  python3 perfbench/run.py --workload kb_ingest --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary gedbench in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Build output
goes to stderr, so the last line of stdout is gedbench's JSON result.
Durable state (WAL, checkpoints) lives under the build directory and is
removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kb_ingest", "er_ingest", "dense_validate", "er_chase")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "gedbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    state_dir = os.path.join(build, "run-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [os.path.join(build, "gedbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", state_dir])
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
