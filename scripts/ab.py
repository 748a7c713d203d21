#!/usr/bin/env python3
"""A/B comparison of the benchmark: a git revision against the working tree.

    python3 scripts/ab.py <rev> [--workload W] [--runs N] [--seconds S]

Builds perfbench twice: at <rev>, in a git worktree under the benchmark's
target directory (`perfbench/target/ab/<commit>`, or under
$CARGO_TARGET_DIR; reused by later calls for the same commit), and at the
working tree. Then it runs the two builds N times each, untraced, in
pairs: run i of both uses seed i + 1, and the pairs alternate which build
goes first, so a drift of the host's speed lands on both. For every
workload (all of BENCHMARK.json's, or the one named) and end-to-end
metric it prints the two medians, the gap of the working tree's median
against <rev>'s (positive = better, by the metric's direction) and in how
many pairs the working tree was better.

Single runs spread too widely to compare builds by one run each (on a
2-vCPU host, lock_attack's pass_s spreads 1.5-1.95 s); interleaved
medians can. perfbench/steady.py compares one build with itself, not two
builds. Run it from the root of the repository; remove a worktree with
`git worktree remove <path>` when done with it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PACKAGE = "perfbench"
BINARY = "seceda-perfbench"


def build(root, target):
    """Builds perfbench in the tree at `root` into `target`; returns the
    executable's path."""
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(root, PACKAGE, "Cargo.toml")],
        check=True, env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    return os.path.join(target, "release", BINARY)


def worktree(rev, target):
    """A detached worktree of `rev` under `target`, made once per commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    path = os.path.join(target, "ab", commit)
    if not os.path.isdir(path):
        subprocess.run(["git", "worktree", "add", "--detach", path, commit], check=True)
    return commit, path


def run(exe, workload, seed, seconds):
    """One untraced run; returns its result object (its last output line)."""
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{exe} {workload} seed {seed}: {result['failed']} failed ops\n{out}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare against")
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per build and workload")
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args()
    if args.runs < 1:
        sys.exit("--runs must be at least 1")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in workloads:
            sys.exit(f"unknown workload {args.workload}; BENCHMARK.json has {workloads}")
        workloads = [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(PACKAGE, "target"))
    commit, path = worktree(args.rev, os.path.abspath(target))
    exes = (build(path, os.path.join(path, PACKAGE, "target")), build(".", target))
    names = (commit[:12], "working tree")

    # values[workload][build][metric] -> list over pairs
    values = {w: [{m["name"]: [] for m in metrics} for _ in exes] for w in workloads}
    for i in range(args.runs):
        seed = i + 1
        for w in workloads:
            for b in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run(exes[b], w, seed, seconds)
                for m in metrics:
                    values[w][b][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"# pair {i + 1} {w} {names[b]}: "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics),
                      file=sys.stderr, flush=True)

    print(f"{args.runs} interleaved runs per build, {seconds} s each; "
          f"A = {names[0]}, B = {names[1]}; gap = B's improvement on A's median")
    print(f"{'workload':<17} {'metric':<12} {'A median':>11} {'B median':>11} "
          f"{'gap':>8} {'B better':>9}")
    for w in workloads:
        for m in metrics:
            name = m["name"]
            a, b = values[w][0][name], values[w][1][name]
            sign = 1 if m["better"] == "lower" else -1
            ma, mb = statistics.median(a), statistics.median(b)
            gap = sign * (ma - mb) / ma if ma else 0.0
            wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
            print(f"{w:<17} {name:<12} {ma:>11.6g} {mb:>11.6g} {gap:>+8.2%} "
                  f"{wins:>5}/{len(a)}")


if __name__ == "__main__":
    main()
