#!/usr/bin/env python3
"""End-to-end benchmark runner for the PARDON reproduction.

Builds bench/e2e/pardon_e2e from source (cmake, Release), runs each selected
workload in its own process, and prints every metric as
``workload metric value unit``. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1 | --traced] [--smoke]
                             [--build DIR] [--out DIR]

Without ``--workload`` every workload runs. ``--trace 1`` adds a traced run
per workload (obs::ObsSession on) whose spans and counters fold_trace.py
folds into layer metrics. ``--out DIR`` writes one JSON results file with a
host block, for compare.py. ``--smoke`` runs every workload once with at most
5 rounds, traced and untraced, and checks that every metric BENCHMARK.json
names is emitted with its unit and a finite value.

Exits non-zero when the build fails, a correctness check fails or a metric
is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import fold_trace  # noqa: E402  (same directory)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def build(build_dir):
    """Configures (once) and builds pardon_e2e; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, generated))
               for generated in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pardon_e2e",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout is reserved for results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=900).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "pardon_e2e")


def run_binary(binary, workload, seed, seconds, smoke, traced_dir=None):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if smoke:
        cmd.append("--smoke")
    if traced_dir:
        cmd.append(f"--traced={traced_dir}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: pardon_e2e timed out after {RUN_TIMEOUT_S}s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: pardon_e2e exited {proc.returncode} without a result")


def run_workload(binary, name, args):
    """One workload's result: the untraced run, plus the traced one."""
    result = run_binary(binary, name, args.seed, args.seconds, args.smoke)
    if not args.trace:
        return result
    trace_dir = os.path.join(args.trace_root, f"{name}-seed{args.seed}")
    traced = run_binary(binary, name, args.seed, args.seconds, args.smoke,
                        trace_dir)
    info = traced["metrics"]
    _, layers = fold_trace.fold_dir(
        trace_dir,
        rounds=info.pop("traced.rounds")["value"],
        traced_run_s=info.pop("traced.run_s")["value"],
        untraced_run_s=result["metrics"]["run_s"]["value"])
    result["metrics"].update(info)
    for metric, (value, unit) in layers.items():
        result["metrics"][metric] = {"value": value, "unit": unit}
    for key in ("attempted", "failed"):
        result[key] += traced[key]
    result["correct"] = result["correct"] and traced["correct"]
    result["failures"] += traced["failures"]
    return result


def check_metrics(name, result, wanted):
    """Problems with `wanted` ({metric: unit}) in a workload's result."""
    problems = []
    for metric, unit in wanted.items():
        got = result["metrics"].get(metric)
        if got is None:
            problems.append(f"{name}: {metric} missing")
        elif got["unit"] != unit:
            problems.append(f"{name}: {metric} unit {got['unit']} != {unit}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(
                got["value"]):
            problems.append(f"{name}: {metric} value {got['value']} "
                            "not finite")
    return problems


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build", default=os.path.join(ROOT, ".bench_build",
                                                        "e2e"))
    parser.add_argument("--out", help="directory for the JSON results file")
    args = parser.parse_args()
    if args.smoke:
        args.trace = 1
    args.trace_root = os.path.join(args.out or os.path.join(
        ROOT, ".bench_build"), "traces")

    started = time.monotonic()
    binary = build(os.path.abspath(args.build))
    selected = [args.workload] if args.workload else names
    results = {name: run_workload(binary, name, args) for name in selected}

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = layers if args.trace else e2e
    problems = []
    for name, result in results.items():
        problems += check_metrics(name, result,
                                  {**e2e, **layers} if args.smoke else reported)
        for failure in result["failures"]:
            problems.append(f"{name}: {failure}")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} round_samples {result['round_samples']} count")
        print(f"{name} crc0 {result['crc0']}")

    hosts = {json.dumps(r["host"], sort_keys=True) for r in results.values()}
    if len(hosts) != 1:
        problems.append("host blocks differ between workloads")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        tag = args.workload or "all"
        path = os.path.join(args.out, f"e2e-{tag}-seed{args.seed}-"
                            f"trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump({"host": json.loads(hosts.pop()), "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke, "workloads": results}, f,
                      indent=1, sort_keys=True)
        print(f"# wrote {path}", file=sys.stderr)

    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    if args.smoke:
        print(f"# smoke: {len(selected)} workloads, "
              f"{time.monotonic() - started:.1f}s", file=sys.stderr)
    single = len(results) == 1
    summary = {
        "correct": not problems and all(r["correct"]
                                        for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if single else f"{name}.{metric}"): r["metrics"][metric]
            for name, r in results.items() for metric in reported
            if metric in r["metrics"]
        },
    }
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
