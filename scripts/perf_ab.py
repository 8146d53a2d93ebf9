#!/usr/bin/env python3
"""Paired A/B comparison of two trees on the perfbench workloads.

    python3 scripts/perf_ab.py SCRATCH [--base REV] [--change REV|WORKTREE]
                               [--workloads a,b] [--pairs N] [--first-seed K]
                               [--seconds S] [--trace 0|1]

Exports the base and the change into SCRATCH/base and SCRATCH/change, builds
each there with its own CARGO_TARGET_DIR (SCRATCH/<side>-target), then runs
`perfbench/run.py --trace T` on both for seeds K..K+N-1 per workload (K = 1
unless --first-seed picks held-out seeds). The side that runs first alternates
from seed to seed, so drift in the host's speed falls on both sides alike. For
every end-to-end metric in BENCHMARK.json it prints each side's median and
interquartile range and the number of pairs in which the change was better.
With --trace 1 it compares the per-layer metrics instead: a traced perfbench
run reports those and not the end-to-end ones.

--change defaults to HEAD and --base to the change's parent. --change WORKTREE
takes the working tree as it is (tracked and untracked, not ignored, files),
and --base then defaults to HEAD. The trees are exported with `git archive`,
so a run leaves nothing behind in the repository's .git. Run from anywhere in
the repository; nothing under the repository is written.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True, **kwargs)


def export(rev, dest):
    """Materialise `rev` (or the working tree) at `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    if rev == WORKTREE:
        files = git("ls-files", "-z", "-co", "--exclude-standard",
                    stdout=subprocess.PIPE).stdout.split(b"\0")
        for name in filter(None, (f.decode() for f in files)):
            src = os.path.join(ROOT, name)
            if not os.path.isfile(src):
                continue  # deleted but not yet staged
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("perf_ab: git archive %s failed" % rev)


def build(tree, env):
    """Build with perfbench's own build function, so both sides build alike."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build(run.build_dir()) else 1)")
    if subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                      stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit("perf_ab: build failed in %s" % tree)


def run_once(tree, env, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    result = json.loads(lines[-1])
    return {"correct": bool(result.get("correct")) and proc.returncode == 0,
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scratch", help="directory for the two trees and their builds")
    parser.add_argument("--base", default=None)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--pairs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="first seed of the run (default 1; pick e.g. 17 for held-out seeds)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and compare the per-layer metrics")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base_rev = args.base or ("HEAD" if args.change == WORKTREE else args.change + "~1")
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    scratch = os.path.abspath(args.scratch)
    sides = {}
    for side, rev in (("base", base_rev), ("change", args.change)):
        tree = os.path.join(scratch, side)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, side + "-target"))
        print("perf_ab: exporting and building %s (%s)" % (side, rev), file=sys.stderr)
        export(rev, tree)
        build(tree, env)
        sides[side] = (tree, env)

    runs = {w: {"base": [], "change": []} for w in workloads}
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree, env = sides[side]
                runs[workload][side].append(
                    run_once(tree, env, workload, seed, seconds, args.trace))
            print("perf_ab: %s seed %d done" % (workload, seed), file=sys.stderr)

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    print("base %s vs change %s; seeds %d..%d x %d s per workload, --trace %d; IQR = q1..q3"
          % (base_rev, args.change, args.first_seed, args.first_seed + args.pairs - 1, seconds,
             args.trace))
    for workload in workloads:
        base, change = runs[workload]["base"], runs[workload]["change"]
        print("\n%s: correct base %d/%d, change %d/%d" % (
            workload, sum(r["correct"] for r in base), len(base),
            sum(r["correct"] for r in change), len(change)))
        print("| metric | base median | base IQR | change median | change IQR | change | "
              "change better |")
        print("|---|---|---|---|---|---|---|")
        for metric in metrics:
            name = metric["name"]
            pairs = [(b["metrics"][name], c["metrics"][name]) for b, c in zip(base, change)
                     if name in b.get("metrics", {}) and name in c.get("metrics", {})]
            if not pairs:
                continue
            b_vals = [p[0] for p in pairs]
            c_vals = [p[1] for p in pairs]
            b_med, c_med = statistics.median(b_vals), statistics.median(c_vals)
            lower = metric["better"] == "lower"
            better = sum((c < b) if lower else (c > b) for b, c in pairs)
            delta = "n/a" if b_med == 0 else "%+.1f%%" % (100.0 * (c_med - b_med) / b_med)
            b_q, c_q = quartiles(b_vals), quartiles(c_vals)
            print("| %s | %.4g | %.4g..%.4g | %.4g | %.4g..%.4g | %s | %d/%d |" % (
                name, b_med, b_q[0], b_q[1], c_med, c_q[0], c_q[1], delta, better, len(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
