#!/usr/bin/env python3
"""Paired comparison of two checkouts on the ndq benchmark.

    python3 perfbench/compare.py --parent <checkout> --change <checkout>
        [--pairs 10] [--workload NAME ...] [--trace 0|1]

Each checkout is a source tree with perfbench/ and src/ (for example
`git archive <commit> | tar -x -C <dir>`). The i-th pair runs both sides
with seed i for BENCHMARK.json's run_seconds, alternating which side runs
first. For every workload and metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither) and
a verdict:

  gain          the change won at least 9/10 of the pairs, its median is
                better by more than the parent's own quartile spread, and
                no more operations failed than on the parent
  regression    the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    the parent's quartile spread is wider than the bound and
                the change did not read better on every run
  no change     none of the above

Metric directions and bounds come from the change's BENCHMARK.json; per-layer
metrics (--trace 1) have no bound and get no regression verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("compare: %s failed on %s seed %d (exit %d)"
                 % (checkout, workload, seed, proc.returncode))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["failed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, more_failures):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if (share >= 0.9 and sign * (cm - pm) > (p3 - p1)
            and not more_failures):
        return share, "gain"
    if bound is None or pm == 0:
        return share, "no change"
    worse = sign * (pm - cm) / abs(pm)
    if worse > bound:
        return share, "regression"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) / abs(pm) > bound and not all_better:
        return share, "unresolved"
    return share, "no change"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare: at least 10 pairs")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in
             bench["per_layer" if args.trace else "end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(args.pairs):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                metrics, n_failed = run_once(checkout, workload, seed,
                                             bench["run_seconds"], args.trace)
                runs[side].append(metrics)
                failed[side] += n_failed
        print("\n%s (%d pairs, %d s each; failed operations: parent %d, "
              "change %d)" % (workload, args.pairs, bench["run_seconds"],
                              failed["parent"], failed["change"]))
        print("%-30s %-9s %34s %34s %6s  %s" % (
            "metric", "unit", "parent median [q1, q3]",
            "change median [q1, q3]", "won", "verdict"))
        for name, spec in specs.items():
            parent = [r[name] for r in runs["parent"] if name in r]
            change = [r[name] for r in runs["change"] if name in r]
            if len(parent) != args.pairs or len(change) != args.pairs:
                print("%-30s missing on one side" % name)
                continue
            share, what = verdict(parent, change, spec["better"],
                                  spec.get("bound"),
                                  failed["change"] > failed["parent"])
            fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
            print("%-30s %-9s %34s %34s %5.0f%%  %s" % (
                name, spec["unit"], fmt(quartiles(parent)),
                fmt(quartiles(change)), 100 * share, what))


if __name__ == "__main__":
    main()
