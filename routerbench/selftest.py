#!/usr/bin/env python3
"""Self-tests of the router benchmark.

    python3 routerbench/selftest.py

Run from the repository root. Builds the benchmark (through run.py), then:
  * runs a short mode of every workload in BENCHMARK.json, and of
    sharded_multiq (runnable, though not among the benchmark's workloads),
    untraced and traced, and checks that the last line is the result
    object, that it is correct, and that it reports exactly the end-to-end
    (resp. per-layer) metrics BENCHMARK.json names, each with its unit and
    a finite value;
  * runs one workload with a deliberately wrong oracle entry and checks that
    the run fails: non-zero exit, correct=false, failed > 0 and
    ok_share < 1 (fail_share > 0).
Exits non-zero on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHORT = ["--seconds", "2", "--short"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "routerbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace),
           *SHORT, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p


def check(cond, msg):
    if not cond:
        print("FAIL:", msg)
        sys.exit(1)
    print("ok:", msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: spec["end_to_end"], 1: spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] + ["sharded_multiq"]
    for name in names:
        for trace, want in sets.items():
            code, res, p = run(name, trace)
            check(code == 0 and res is not None,
                  f"{name} trace={trace} exits 0 with a result"
                  + ("" if code == 0 else f"\n{p.stdout[-1500:]}\n{p.stderr[-1500:]}"))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace} result has exactly the four keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace} is correct")
            got = res["metrics"]
            check(set(got) == {m["name"] for m in want},
                  f"{name} trace={trace} emits every named metric and no other")
            for m in want:
                v = got[m["name"]]
                check(v["unit"] == m["unit"] and isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]),
                      f"{name} {m['name']} in {m['unit']}")

    code, res, _ = run(spec["workloads"][0]["name"], 0, ["--oracle-fault"])
    check(code != 0, "a wrong oracle entry makes the run exit non-zero")
    check(res is not None and not res["correct"] and res["failed"] > 0,
          "a wrong oracle entry is counted as failures")
    check(res["metrics"]["ok_share"]["value"] < 1,
          "a wrong oracle entry gives fail_share > 0 (ok_share < 1)")
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
