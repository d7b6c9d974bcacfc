#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 routerbench/spread.py --workload <name> [--runs 10] [--first-seed 1]
                                  [--seconds S] [--trace 0]

Runs routerbench/run.py once per seed (first-seed, first-seed+1, ...) from
the repository root and prints, per metric, the median, the quartiles and
the interquartile range as a share of the median, next to the metric's
bound from BENCHMARK.json (and --seconds defaults to its run_seconds).
Exits non-zero if any run fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bounds, seconds = {}, 10
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            bench = json.load(f)
        bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
        seconds = bench["run_seconds"]
    if args.seconds is None:
        args.seconds = seconds

    values, ok = {}, True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(ROOT, "routerbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok &= bool(res["correct"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        b = bounds.get(k)
        flag = " !" if b is not None and share > b / 3 else ""
        print(f"{k:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f} "
              f"{b if b is not None else '-':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
