#!/usr/bin/env python3
"""Folds a traced pardon_e2e run into a flat span table and layer metrics.

The traced run (``pardon_e2e --traced=DIR``) leaves DIR/trace.json (Chrome
trace-event JSON from obs::TraceRecorder) and DIR/metrics.prom (Prometheus
text from obs::MetricsRegistry). This script prints one row per span name:
count, total time, self time (the span's duration minus the part its child
spans on the same thread cover) and total as a share of ``fl.run``. It also
derives the trace-based layer metrics that run.py reports.

    python3 bench/e2e/fold_trace.py DIR [--rounds N] [--traced-run-s S]
                                        [--untraced-run-s S]

``--rounds`` (rounds in the traced run) enables util.pool_tasks_per_round;
the two run times enable obs.trace_overhead_frac.
"""

import argparse
import json
import os
from collections import defaultdict


def load_spans(trace_path):
    """Complete ('X') events as (name, tid, start_us, duration_us)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    return [(e["name"], e["tid"], e["ts"], e["dur"])
            for e in events if e.get("ph") == "X"]


def fold_spans(spans):
    """Per span name: count, total_us and self_us."""
    table = defaultdict(lambda: {"count": 0, "total_us": 0, "self_us": 0})
    by_thread = defaultdict(list)
    for name, tid, start, dur in spans:
        by_thread[tid].append((start, -dur, name))
    for events in by_thread.values():
        events.sort()
        # Open spans on this thread, outermost first: [end_us, name, child_us].
        # Sorting by (start, longest first) puts parents before children.
        stack = []
        for start, neg_dur, name in events:
            dur = -neg_dur
            while stack and stack[-1][0] <= start:
                _, done, child = stack.pop()
                table[done]["self_us"] -= child
            if stack:
                stack[-1][2] += dur
            row = table[name]
            row["count"] += 1
            row["total_us"] += dur
            row["self_us"] += dur
            stack.append([start + dur, name, 0])
        for _, done, child in stack:
            table[done]["self_us"] -= child
    return dict(table)


def load_counters(prom_path):
    """Sum of every sample per metric family (labels folded together)."""
    totals = defaultdict(float)
    with open(prom_path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = line.rsplit(" ", 1)
            totals[key.split("{", 1)[0]] += float(value)
    return dict(totals)


def layer_metrics(table, counters, rounds=None, traced_run_s=None,
                  untraced_run_s=None):
    """The trace-derived layer metrics as {name: (value, unit)}."""
    run_us = table.get("fl.run", {}).get("total_us", 0)

    def share(name, field="total_us"):
        if run_us <= 0:
            return 0.0
        return table.get(name, {}).get(field, 0) / run_us

    def mean_ms(name):
        row = table.get(name)
        return row["total_us"] / row["count"] / 1e3 if row else 0.0

    hits = counters.get("pardon_style_transfer_cache_hits_total", 0.0)
    misses = counters.get("pardon_style_transfer_cache_misses_total", 0.0)
    tasks = counters.get("pardon_util_thread_pool_tasks_total", 0.0)
    overhead = 0.0
    if traced_run_s and untraced_run_s:
        overhead = traced_run_s / untraced_run_s - 1.0
    return {
        "trace.setup_frac": (share("fl.setup"), "fraction"),
        "trace.local_train_frac": (share("fl.local_train"), "fraction"),
        "trace.evaluate_frac": (share("fl.evaluate"), "fraction"),
        "trace.aggregate_frac": (share("fl.aggregate"), "fraction"),
        "trace.unattributed_frac": (share("fl.round", "self_us"), "fraction"),
        "core.style_extraction_ms": (mean_ms("fisc.style_extraction"), "ms"),
        "clustering.interpolation_ms": (mean_ms("fisc.interpolation"), "ms"),
        "style.cache_build_ms": (mean_ms("fisc.cache_build"), "ms"),
        "style.cache_hit_frac": (
            hits / (hits + misses) if hits + misses > 0 else 0.0, "fraction"),
        "util.pool_tasks_per_round": (
            tasks / rounds if rounds else 0.0, "count"),
        "obs.trace_overhead_frac": (overhead, "fraction"),
    }


def fold_dir(trace_dir, rounds=None, traced_run_s=None, untraced_run_s=None):
    table = fold_spans(load_spans(os.path.join(trace_dir, "trace.json")))
    counters = load_counters(os.path.join(trace_dir, "metrics.prom"))
    return table, layer_metrics(table, counters, rounds, traced_run_s,
                                untraced_run_s)


def print_table(table):
    run_us = table.get("fl.run", {}).get("total_us", 0)
    print(f"{'span':<24}{'count':>8}{'total_ms':>12}{'self_ms':>12}"
          f"{'of_fl.run':>11}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_us"]):
        pct = (f"{100.0 * row['total_us'] / run_us:10.1f}%"
               if run_us else f"{'-':>11}")
        print(f"{name:<24}{row['count']:>8}{row['total_us'] / 1e3:>12.2f}"
              f"{row['self_us'] / 1e3:>12.2f}{pct}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", help="directory holding trace.json and "
                        "metrics.prom")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--traced-run-s", type=float)
    parser.add_argument("--untraced-run-s", type=float)
    args = parser.parse_args()
    table, metrics = fold_dir(args.dir, args.rounds, args.traced_run_s,
                              args.untraced_run_s)
    print_table(table)
    print()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


if __name__ == "__main__":
    main()
