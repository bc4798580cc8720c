#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A/ B/

A and B are directories of results files written by ``run.py --out`` (one
or more runs each, typically one per seed, the same seeds on both sides).
For every workload and end-to-end metric it prints each side's median and
quartiles, the win rate of B over A, and a verdict under the BENCHMARK.json
bounds:

  improved    B wins at least 9 of 10 pairs and the medians differ by more
              than A's quartile spread (or, where the spread is wider than
              the bound, every B run beats every A run);
  no worse    B's median is within the bound of A's;
  regressed   B's median is worse than A's by more than the bound;
  unresolved  either side's quartile spread is wider than the bound.

Pairs are runs with the same seed; without common seeds every A run is
paired with every B run. Runs of a seed on both sides must agree exactly on
every count metric and on the CRC of repetition 0's final parameters.
Result sets from different hosts (nproc, CPU model, AVX2/FMA, GEMM backend
and threads, build type) are refused.

Exit status: 0 nothing regressed, 1 a regression or an exactness mismatch,
2 unusable input.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
HOST_KEYS = ("nproc", "cpu_model", "avx2_fma", "gemm_backend", "gemm_threads",
             "build_type")


def load_set(directory):
    """[(host, seed, {workload: result})] for every non-smoke results file."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("smoke"):
            continue
        runs.append((doc["host"], doc["seed"], doc["workloads"]))
    if not runs:
        sys.exit(f"compare.py: no results files in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a, b):
    """Value pairs by common seed, else the full cross product."""
    common = sorted(set(a) & set(b))
    if common:
        return [(x, y) for seed in common for x, y in zip(a[seed], b[seed])]
    return [(x, y) for xs in a.values() for x in xs
            for ys in b.values() for y in ys]


def verdict(a, b, better, bound):
    """(verdict, relative change of B's median, B's win rate)."""
    a_all = [v for vs in a.values() for v in vs]
    b_all = [v for vs in b.values() for v in vs]
    a1, a_med, a3 = quartiles(a_all)
    b1, b_med, b3 = quartiles(b_all)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b_med - a_med) / a_med if a_med else 0.0
    matched = pairs(a, b)
    wins = sum(1 for x, y in matched if sign * (y - x) < 0)
    win_rate = wins / len(matched) if matched else 0.0
    a_spread = (a3 - a1) / a_med if a_med else 0.0
    b_spread = (b3 - b1) / b_med if b_med else 0.0
    all_better = all(sign * (y - x) < 0 for x in a_all for y in b_all)
    if max(a_spread, b_spread) > bound:
        return ("improved" if all_better else "unresolved"), worse, win_rate
    if worse > bound:
        return "regressed", worse, win_rate
    if -worse > a_spread and win_rate >= 0.9:
        return "improved", worse, win_rate
    return "no worse", worse, win_rate


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    side_a, side_b = load_set(sys.argv[1]), load_set(sys.argv[2])

    hosts = {tuple(host.get(k) for k in HOST_KEYS)
             for host, _, _ in side_a + side_b}
    if len(hosts) != 1:
        print("compare.py: result sets come from different hosts:",
              file=sys.stderr)
        for host in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in
                                   zip(HOST_KEYS, host)), file=sys.stderr)
        sys.exit(2)

    # values[side][(workload, metric)][seed] -> [value, ...]
    values = [defaultdict(lambda: defaultdict(list)) for _ in range(2)]
    # exact[(workload, seed, key)][side] -> set of observed values
    exact = defaultdict(lambda: (set(), set()))
    for side, runs in enumerate((side_a, side_b)):
        for _, seed, workloads in runs:
            for workload, result in workloads.items():
                exact[(workload, seed, "crc0")][side].add(result["crc0"])
                for metric, m in result["metrics"].items():
                    values[side][(workload, metric)][seed].append(m["value"])
                    if m["unit"] == "count":
                        exact[(workload, seed, metric)][side].add(m["value"])

    status = 0
    for (workload, seed, key), (in_a, in_b) in sorted(exact.items()):
        if in_a and in_b and len(in_a | in_b) != 1:
            print(f"MISMATCH {workload} seed {seed} {key}: "
                  f"A={sorted(in_a)} B={sorted(in_b)}")
            status = 1

    print(f"{'workload':<16}{'metric':<21}{'A median [q1, q3]':>30}"
          f"{'B median [q1, q3]':>30}{'worse':>9}{'B wins':>8}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for spec in bench["end_to_end"]:
            key = (workload, spec["name"])
            a, b = values[0].get(key), values[1].get(key)
            if not a or not b:
                continue
            result, change, win_rate = verdict(a, b, spec["better"],
                                               spec["bound"])
            cells = []
            for side in (a, b):
                q1, med, q3 = quartiles([v for vs in side.values()
                                         for v in vs])
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:<16}{spec['name']:<21}{cells[0]:>30}"
                  f"{cells[1]:>30}{100 * change:>+8.1f}%{win_rate:>8.0%}"
                  f"  {result}")
            if result == "regressed":
                status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
