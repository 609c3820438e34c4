#!/usr/bin/env python3
"""Compare one perfbench workload between a git revision and the working tree.

    python3 tools/perf_pairs.py --base REV --workload serve|alloc|minic \
        --pairs N --seconds S

Run from the repository root (`make perf-pairs` does).  The script checks
REV out into a temporary `git worktree`, then runs `perfbench/run.py
--trace 0` (which builds perfbench in its own tree) in each for N pairs
of runs.  Pair i uses seed 101 + i and alternates which side runs
first, so a drift in the machine's speed falls on both sides alike.  It
prints, for every end-to-end metric in BENCHMARK.json that the workload
reports, the median on each side, the base's interquartile range, the range of the
per-pair ratio change / base, and in how many pairs the change was
better.  The worktree is removed on exit.  A run that fails its checks
or prints no result is reported and makes the exit code 1, and a failure
in the first pair (a tree that does not build, say) stops the tool
there; the figures themselves set no exit code.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 101


def bench(tree, workload, seed, seconds):
    """The metrics of one untraced run in [tree], or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True, choices=["serve", "alloc", "minic"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="perf-pairs-")
    base_tree = os.path.join(tmp, "base")
    subprocess.run(["git", "worktree", "add", "--quiet", "--detach", base_tree, args.base],
                   cwd=ROOT, check=True)
    failures = 0
    try:
        sides = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = [("base", base_tree), ("change", ROOT)]
            if i % 2 == 1:
                order.reverse()
            got = {}
            for side, tree in order:
                got[side] = bench(tree, args.workload, seed, args.seconds)
                if got[side] is None:
                    failures += 1
                    print(f"pair {i} (seed {seed}): the {side} run failed", file=sys.stderr)
            if got["base"] is not None and got["change"] is not None:
                for side in sides:
                    sides[side].append(got[side])
            print(f"pair {i} (seed {seed}, {order[0][0]} first) done", file=sys.stderr)
            if i == 0 and failures:
                break
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)

    n = len(sides["base"])
    print(f"{args.workload}: {args.base} (base) vs working tree (change), "
          f"{n} complete pairs of {args.seconds:g} s, seeds {FIRST_SEED}-{FIRST_SEED + args.pairs - 1}")
    print(f"{'metric':<22} {'base median':>14} {'base IQR':>12} {'change median':>14} "
          f"{'ratio range':>17}  better")
    for m in metrics:
        name = m["name"]
        if n == 0 or name not in sides["base"][0]:
            continue
        base = [r[name] for r in sides["base"]]
        change = [r[name] for r in sides["change"]]
        ratios = [c / b if b else float("nan") for b, c in zip(base, change)]
        lower = m["better"] == "lower"
        better = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        iqr = statistics.quantiles(base, n=4) if n >= 2 else [base[0], base[0], base[0]]
        print(f"{name:<22} {statistics.median(base):>14.6g} {iqr[2] - iqr[0]:>12.4g} "
              f"{statistics.median(change):>14.6g} "
              f"{min(ratios):>8.3f}-{max(ratios):<8.3f}  change better in {better} of {n}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
