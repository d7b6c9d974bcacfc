#!/usr/bin/env python3
"""Compare two BENCH_*.json sweeps and flag headline regressions.

    scripts/bench_compare.py OLD.json NEW.json [--strict] [--threshold PCT]

Both files are scripts/bench_all.sh output: a JSON array whose first element
is a meta record and whose remaining elements each carry a "bench" name.
The comparison focuses on the headline datapath metrics — the numbers the
PR acceptance gates quote — and flags any that moved more than the
threshold (default 10%) in the bad direction. Everything else the two
sweeps share is printed for context but never flags.

Exit status is 0 unless --strict is given and at least one headline metric
regressed. scripts/ci.sh runs the non-strict form so a noisy CI box
surfaces the diff without failing the build; run --strict locally (or in a
perf-gate lane) when the numbers should be load-bearing.
"""

import argparse
import json
import sys

# (bench, field, direction): the headline metrics. direction "lower" means
# smaller is better (ns/packet), "higher" means bigger is better (speedups).
HEADLINE = [
    ("t3_overall", "plugin_3gates_ns", "lower"),
    ("t3_overall", "plugin_drr_ns", "lower"),
    ("t4_burst", "burst_32_ns", "lower"),
    ("t4_burst", "speedup_32_vs_1", "higher"),
    ("t8_sanitize", "on_ns", "lower"),
    ("t9_gatebatch", "permuted_order_ns", "lower"),
    ("t10_l7", "unbound_overhead_rel", "lower"),
    ("t10_l7", "offload_speedup", "higher"),
    ("t11_churn", "route_update_ns_p99", "lower"),
    ("t11_churn", "filter_churn_ops_per_s", "higher"),
    ("t11_churn", "upgrade_stall_ns", "lower"),
    ("t11_churn", "upgrade_speedup", "higher"),
    ("t12_eiffel", "eiffel_1m_ns", "lower"),
    ("t12_eiffel", "drr_1m_ns", "lower"),
    ("t12_eiffel", "hfsc_1m_ns", "lower"),
    ("t12_eiffel", "eiffel_flatness_1m_vs_10k", "lower"),
    ("t13_iobackend", "speedup_4w_zipf", "higher"),
    ("t13_iobackend", "speedup_4w_uniform", "higher"),
    ("t13_iobackend", "allocs_per_pkt", "lower"),
]


def load(path):
    with open(path) as f:
        rows = json.load(f)
    return {r["bench"]: r for r in rows if r.get("bench") not in (None, "meta")}


def fmt(v):
    return f"{v:.3g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(
        description="Diff two bench_all.sh sweeps; flag headline regressions.")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 if any headline metric regressed")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)
    regressions = []

    print(f"== headline metrics ({args.old} -> {args.new}, "
          f"threshold {args.threshold:g}%) ==")
    for bench, field, direction in HEADLINE:
        a = old.get(bench, {}).get(field)
        b = new.get(bench, {}).get(field)
        if a is None or b is None or not a:
            print(f"  {bench}.{field}: missing "
                  f"(old={fmt(a) if a is not None else '-'}, "
                  f"new={fmt(b) if b is not None else '-'}) -- skipped")
            continue
        delta = (b - a) / a * 100.0
        worse = delta > args.threshold if direction == "lower" \
            else delta < -args.threshold
        tag = "REGRESSION" if worse else "ok"
        print(f"  {bench}.{field}: {fmt(a)} -> {fmt(b)} "
              f"({delta:+.1f}%, {direction} is better) {tag}")
        if worse:
            regressions.append((bench, field, delta))

    shared = sorted(set(old) & set(new))
    print("\n== all shared numeric fields (context only) ==")
    for bench in shared:
        for field in sorted(set(old[bench]) & set(new[bench]) - {"bench"}):
            a, b = old[bench][field], new[bench][field]
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                continue
            delta = f" ({(b - a) / a * 100.0:+.1f}%)" if a else ""
            print(f"  {bench}.{field}: {fmt(a)} -> {fmt(b)}{delta}")

    for bench in sorted(set(new) - set(old)):
        print(f"\n== new bench (no baseline): {bench} ==")
        for field, v in sorted(new[bench].items()):
            if field != "bench":
                print(f"  {field}: {fmt(v)}")

    if regressions:
        print(f"\n{len(regressions)} headline regression(s):")
        for bench, field, delta in regressions:
            print(f"  {bench}.{field}: {delta:+.1f}%")
        if args.strict:
            return 1
    else:
        print("\nno headline regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
