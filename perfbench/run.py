#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve|alloc|minic --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The build uses dune with its shared cache
off, so everything it writes stays under _build/.  The benchmark binary
prints a report and, as its last line, one JSON object; this script
passes both through and exits with the binary's code.  It exits non-zero
without printing a result when the build fails (for example when the
library sources are missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "perfbench/perfbench.exe"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["serve", "alloc", "minic"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet", "./" + TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(ROOT, "_build", "default", TARGET)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, "perfbench", "out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
