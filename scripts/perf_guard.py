#!/usr/bin/env python3
"""Perf-trajectory guard: compare a fresh bench JSON artifact against
its committed baseline and fail on throughput regressions.

Usage:
    scripts/perf_guard.py --baseline bench/baselines/BENCH_vm.smoke.json \
        --current build/bench/BENCH_vm.json [--threshold 0.25]

Knows both artifact shapes:

  * BENCH_vm.json  (bench == "vm_throughput"): per-workload
    reference/fused/traced/diag steps-per-second, matched
    by workload name;
  * BENCH_explore.json (bench == "explore"): campaign
    schedules-per-second.

A metric regresses when  current < baseline * (1 - threshold); every
pinned metric is printed either way, so the CI log doubles as a
throughput-trend record.  Comparing artifacts from different modes
(smoke vs full) or different benches is a configuration error and
fails loudly — a smoke baseline says nothing about a full run.

Bless a new baseline after an intentional change by copying the fresh
artifact over the committed one (docs/TESTING.md, "Perf-trajectory
guard"):

    cp build/bench/BENCH_vm.json bench/baselines/BENCH_vm.smoke.json
"""

import argparse
import json
import sys

# Higher-is-better metrics pinned per artifact kind.
VM_WORKLOAD_METRICS = [
    "reference_steps_per_sec",
    "fused_steps_per_sec",
    "fused_traced_steps_per_sec",
    "fused_diag_steps_per_sec",
]
EXPLORE_METRICS = ["schedules_per_sec"]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"perf_guard: cannot read {path}: {e}")


def check(label, baseline, current, threshold, failures):
    """Prints one metric comparison; records a failure on regression."""
    if not baseline or baseline <= 0:
        print(f"  {label:55s} baseline empty, skipped")
        return
    ratio = current / baseline
    verdict = "ok"
    if current < baseline * (1.0 - threshold):
        verdict = "REGRESSED"
        failures.append(
            f"{label}: {current:.0f} vs baseline {baseline:.0f} "
            f"({ratio:.2f}x, floor {1.0 - threshold:.2f}x)"
        )
    print(
        f"  {label:55s} {current:12.0f} vs {baseline:12.0f} "
        f"({ratio:5.2f}x) {verdict}"
    )


def main():
    ap = argparse.ArgumentParser(
        description="fail on bench throughput regressions vs a "
        "committed baseline"
    )
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression (default 0.25 = -25%%)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    for key in ("bench", "mode"):
        b, c = base.get(key), cur.get(key)
        if b != c:
            sys.exit(
                f"perf_guard: {key} mismatch: baseline {args.baseline} "
                f"is '{b}' but current {args.current} is '{c}' — "
                f"comparing them is meaningless.  Regenerate the "
                f"baseline with the same flags (see docs/TESTING.md, "
                f"'Perf-trajectory guard')."
            )

    failures = []
    kind = base.get("bench")
    print(
        f"perf guard: {kind} ({base.get('mode')}), "
        f"threshold -{args.threshold * 100:.0f}%"
    )

    if kind == "vm_throughput":
        base_by_name = {w["name"]: w for w in base.get("workloads", [])}
        cur_by_name = {w["name"]: w for w in cur.get("workloads", [])}
        missing = sorted(set(base_by_name) - set(cur_by_name))
        if missing:
            sys.exit(
                f"perf_guard: workloads {missing} are in the baseline "
                f"but not the current run — mode/flag mismatch?"
            )
        for name, bw in sorted(base_by_name.items()):
            cw = cur_by_name[name]
            for metric in VM_WORKLOAD_METRICS:
                if metric not in bw:
                    continue  # older baseline without the column
                check(
                    f"{name}.{metric}",
                    float(bw[metric]),
                    float(cw.get(metric, 0.0)),
                    args.threshold,
                    failures,
                )
    elif kind == "explore":
        for metric in EXPLORE_METRICS:
            check(
                metric,
                float(base.get(metric, 0.0)),
                float(cur.get(metric, 0.0)),
                args.threshold,
                failures,
            )
    else:
        sys.exit(f"perf_guard: unknown bench kind '{kind}'")

    if failures:
        print("\nperf guard FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print(
            "\nIf the regression is intentional, re-bless the baseline "
            "(docs/TESTING.md, 'Perf-trajectory guard').",
            file=sys.stderr,
        )
        sys.exit(1)
    print("perf guard passed")


if __name__ == "__main__":
    main()
