#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an
up-to-date build is a no-op. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result line.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build() -> Path:
    if not (ROOT / "src" / "sim" / "simulation.h").is_file():
        sys.exit("perfbench: simulator sources not found under %s/src" % ROOT)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return build_dir / "perfbench"


def main() -> int:
    binary = build()
    sys.stdout.flush()
    return subprocess.run([str(binary)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
