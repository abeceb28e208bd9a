#!/usr/bin/env python3
"""Compare two sets of mdseq_e2e result files, or bundle result files.

  compare.py compare --benchmark BENCHMARK.json PARENT_DIR CHANGE_DIR
  compare.py bundle DIR [DIR ...] > BENCH_e2e.json

Each DIR is searched recursively for result files written by
`mdseq_e2e --result-out` (bench/e2e/run.sh writes one per workload and
seed). `compare` pairs parent and change runs by (workload, seed) and
applies the rule of the choosing-metrics method to every end-to-end metric
of BENCHMARK.json, one row per (metric, workload):

  better      at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), the medians differ by more than the
              parent's interquartile range, and no more runs fail;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

It also compares failure shares, and reports whether the pairs alternated
which side ran first. Exit status 1 when anything is worse.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def load_results(directory):
    runs = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(base, name)) as handle:
                result = json.load(handle)
            if "workload" not in result or "metrics" not in result:
                continue
            key = (result["workload"], result["seed"], result["trace"])
            if key in runs:
                sys.exit(f"compare.py: two results for {key} in {directory}")
            runs[key] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(metric, parent, change):
    lower_better = metric["better"] == "lower"
    bound = metric["bound"]
    pairs = len(parent)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1

    def gain(p, c):
        return p - c if lower_better else c - p

    wins = sum(1 for p, c in zip(parent, change) if gain(p, c) > 0)
    worse_share = -gain(p_med, c_med) / p_med if p_med else 0.0
    if worse_share > bound:
        return "worse", wins
    if (pairs >= 10 and wins >= 0.9 * pairs
            and gain(p_med, c_med) > iqr):
        return "better", wins
    spread = iqr / p_med if p_med else 0.0
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(args):
    with open(args.benchmark) as handle:
        metrics = json.load(handle)["end_to_end"]
    parent = load_results(args.parent)
    change = load_results(args.change)
    keys = sorted(k for k in parent if k in change and k[2] == 0)
    if not keys:
        sys.exit("compare.py: no (workload, seed) present on both sides")

    first = defaultdict(int)
    for key in keys:
        side = ("parent" if parent[key]["started_unix"]
                <= change[key]["started_unix"] else "change")
        first[side] += 1
    print(f"pairs: {len(keys)} (parent first {first['parent']}, "
          f"change first {first['change']})")
    if abs(first["parent"] - first["change"]) > 1:
        print("warning: pairs did not alternate which side ran first")

    workloads = sorted({k[0] for k in keys})
    rows = []
    any_worse = False
    for workload in workloads:
        seeds = [k for k in keys if k[0] == workload]
        p_failed = sum(parent[k]["failed"] for k in seeds)
        p_tried = sum(parent[k]["attempted"] for k in seeds)
        c_failed = sum(change[k]["failed"] for k in seeds)
        c_tried = sum(change[k]["attempted"] for k in seeds)
        more_failures = c_failed / max(c_tried, 1) > p_failed / max(p_tried, 1)
        for metric in metrics:
            name = metric["name"]
            p = [parent[k]["metrics"][name]["value"] for k in seeds]
            c = [change[k]["metrics"][name]["value"] for k in seeds]
            result, wins = verdict(metric, p, c)
            if result == "better" and more_failures:
                result = "unchanged"
            any_worse = any_worse or result == "worse"
            q1, q3 = quartiles(p)
            rows.append((name, workload, statistics.median(p), q1, q3,
                         statistics.median(c), wins, len(p), result))
        status = "worse" if more_failures else "unchanged"
        any_worse = any_worse or more_failures
        print(f"{workload}: failed {p_failed}/{p_tried} -> "
              f"{c_failed}/{c_tried} ({status})")

    print(f"{'metric':16} {'workload':22} {'parent median [q1, q3]':>34} "
          f"{'change':>12} {'wins':>7}  verdict")
    for name, workload, p_med, q1, q3, c_med, wins, n, result in rows:
        print(f"{name:16} {workload:22} {p_med:12.4f} "
              f"[{q1:9.4f}, {q3:9.4f}] {c_med:12.4f} {wins:3d}/{n:<3d}  "
              f"{result}")
    return 1 if any_worse else 0


def bundle(args):
    runs = {}
    for directory in args.dirs:
        runs.update(load_results(directory))
    if not runs:
        sys.exit("compare.py: no result files found")
    passes = defaultdict(dict)
    host = None
    for (workload, seed, trace), result in sorted(runs.items()):
        host = host or result["host"]
        passes[(seed, trace)][workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
            "detail": result.get("detail", {}),
        }
    out = {
        "host": host,
        "passes": [{"seed": seed, "trace": trace, "workloads": workloads}
                   for (seed, trace), workloads in sorted(passes.items())],
    }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare")
    p.add_argument("--benchmark", required=True)
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=compare)
    b = sub.add_parser("bundle")
    b.add_argument("dirs", nargs="+")
    b.set_defaults(func=bundle)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
