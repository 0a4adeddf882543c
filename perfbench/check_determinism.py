#!/usr/bin/env python3
"""Check that the benchmark's deterministic counts repeat exactly.

Usage, from the repository root:

    python3 perfbench/check_determinism.py [--seed N] [--workloads a,b,c]

Builds perfbench like run.py, then runs each workload twice untraced
and twice traced with one seed, for the minimum number of passes, and
compares the "counts" object of each run's perfbench-info line:

  * the two untraced runs agree on every count;
  * the two traced runs agree on every count (the VM probe's counts
    exist only in traced runs);
  * every count present in both modes agrees between them;
  * harden's program draw follows the seed: another seed changes it.

Exits 0 when all of these hold, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

import run

WORKLOADS = ("campaign", "repair", "harden")


def counts(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--out", ".bench_out"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload}: run exited {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("perfbench-info "):
            return json.loads(line.split(" ", 1)[1])["counts"]
    raise SystemExit(f"{workload}: no perfbench-info line")


def diff(a, b, keys):
    return [f"{k}: {a[k]!r} != {b[k]!r}" for k in sorted(keys) if a[k] != b[k]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    binary = run.build(root, build_dir)
    problems = []
    for w in args.workloads.split(","):
        u1, u2 = (counts(binary, w, args.seed, 0) for _ in range(2))
        t1, t2 = (counts(binary, w, args.seed, 1) for _ in range(2))
        checks = [
            ("untraced vs untraced", u1, u2, set(u1) | set(u2)),
            ("traced vs traced", t1, t2, set(t1) | set(t2)),
            ("untraced vs traced", u1, t1, set(u1) & set(t1)),
        ]
        for what, a, b, keys in checks:
            missing = [k for k in keys if k not in a or k not in b]
            bad = [f"{k}: missing" for k in missing] + diff(
                a, b, keys - set(missing))
            print(f"{w}: {what}: {len(keys)} counts, "
                  f"{'ok' if not bad else 'DIFFER'}")
            problems += [f"{w}: {what}: {m}" for m in bad]
        if w == "harden":
            other = counts(binary, w, args.seed + 1, 0)
            if other["harden.source_bytes"] == u1["harden.source_bytes"]:
                problems.append("harden: the seed does not drive the draw")
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
