#!/usr/bin/env bash
# Tier-1 verification plus the sanitizer passes, runnable locally or from CI:
#
#   scripts/ci.sh            # tier-1, diff, churn, routerbench, then the
#                            # ASan+UBSan and TSan stages
#   scripts/ci.sh --fast     # skip the sanitizer builds
#
# Exits non-zero on the first failure. Build trees live under build/ (the
# regular tree), build-asan/ and build-tsan/ (the sanitizer trees); all are
# gitignored.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== tier 1: build + tests (RelWithDebInfo) =="
# Warnings are errors here, so the tier-1 build stays warning-free.
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -LE bench-smoke

echo "== bench smoke: every bench runs 1 iteration and emits BENCH_JSON =="
# RP_BENCH_SMOKE=1 is baked into these tests' environment; this only proves
# the benches build, run, and emit their line. scripts/bench_all.sh produces
# the real numbers.
ctest --test-dir "$repo/build" --output-on-failure -L bench-smoke

echo "== bench diff: headline metrics vs previous PR's sweep =="
# Non-strict: prints the t3/t4/t8 headline deltas (and any >10% regression)
# between the last two recorded sweeps without failing a noisy CI box. Run
# scripts/bench_compare.py --strict locally when the numbers must hold.
if [[ -f "$repo/BENCH_pr9.json" && -f "$repo/BENCH_pr10.json" ]]; then
  python3 "$repo/scripts/bench_compare.py" \
    "$repo/BENCH_pr9.json" "$repo/BENCH_pr10.json"
else
  echo "   (skipped: need both BENCH_pr9.json and BENCH_pr10.json)"
fi

echo "== diff: single-threaded vs sharded datapath equivalence =="
# The sharded-datapath acceptance gate: the same seeded traces through the
# 1-worker and N-worker paths must produce identical per-flow and aggregate
# results (tests/test_shard_diff.cpp). Already ran in tier 1; re-run as a
# named stage so a diff regression is called out by the stage banner.
ctest --test-dir "$repo/build" --output-on-failure -L diff

echo "== churn: control-plane differential tests =="
# The live-control-plane acceptance gate (docs/control_plane.md): route
# batches, filter batches, and versioned upgrades applied against live
# traffic must never misroute, misclassify, or drop a legitimate packet.
# Already ran in tier 1; re-run as a named stage so a churn regression is
# called out by the stage banner. Both churn labels also run in the ASan
# lane below (they are not in its exclude list), and the sharded variant
# (churn-parallel-tsan) runs in the TSan lane via -L tsan.
ctest --test-dir "$repo/build" --output-on-failure -L '^churn$'

echo "== routerbench: benchmark self-test =="
# routerbench/ builds its own copy of src/ into .bench_build/, which tier 1
# never compiles, and names the stack API directly (RouterKernel::Options,
# ShardedDatapath::Options::shard, ShardContext::id). The self-test builds
# it, runs a short mode of every workload and checks the result shape.
python3 "$repo/routerbench/selftest.py"

if [[ "$fast" == "1" ]]; then
  echo "== skipping sanitizer passes (--fast) =="
  exit 0
fi

echo "== tier 2: ASan + UBSan test build =="
# _GLIBCXX_ASSERTIONS adds libstdc++'s container precondition checks
# (operator[] bounds, front()/back()/pop_*() on an empty container).
cmake -S "$repo" -B "$repo/build-asan" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS"
cmake --build "$repo/build-asan" -j "$jobs" --target rp_tests
# Only rp_tests is built in the sanitizer tree; exclude the bench smokes
# and the chaos/fuzz soaks (those get their own stages below).
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure -LE "bench-smoke|chaos|fuzz"

echo "== chaos: fault-injection soak under ASan/UBSan =="
# The resilience acceptance gate (docs/resilience.md): >= 100k packets with
# ~1% injected faults across every gate type — zero crashes, counters
# balance, breakers cycle. Runs in the sanitizer tree so a contained fault
# that corrupts memory still fails the build.
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure -L chaos

echo "== wire fuzz: adversarial packet soak under ASan/UBSan =="
# The wire-hardening acceptance gate (docs/wire_hardening.md): >= 100k
# structure-aware mutants per seed through the kernel and the reassembler —
# zero crashes, forwarded + dropped == injected, bounded reassembly state.
# Seeds are compiled in (tests/test_wire_fuzz.cpp); on failure the test
# prints a "REPLAY:" line with the seed to rerun.
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure -L '^fuzz$'

echo "== l7 fuzz: segment-evasion differential under ASan/UBSan =="
# The L7 inspection acceptance gate (docs/l7_inspection.md): evaded TCP
# conversations (reordering, tiny splits, duplicates, overlap rewrites)
# through the reassembler and the l7ids gate must produce exactly the hits
# a full-stream oracle predicts. The sharded variant (l7-fuzz-parallel-tsan)
# runs in the TSan lane below via -L tsan.
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure -L '^l7-fuzz$'

echo "== iobackend: packet-pool lifecycle under ASan/UBSan =="
# The pool acceptance gate (docs/io_backends.md §3): recycle preserves
# headroom and zeroing, cross-thread frees return chunks, exhaustion falls
# back to the heap without leaking, packets may outlive the pool. Leak
# detection is the point — a chunk that never comes home or a double-free
# through the MPSC return stack fails here. The multiq differentials
# (ShardDiff.Multiq*, WireFuzzShard.Multiq*, ParallelMemQueue.*) run in the
# TSan lane below via their parallel/diff/fuzz tsan labels.
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure -L pool

echo "== sched fuzz: scheduler differential properties under ASan/UBSan =="
# The million-flow scheduler acceptance gate (docs/scheduling.md): seeded
# adversarial flow mixes through all three engines (DRR, H-FSC, Eiffel) —
# Jain fairness parity Eiffel-vs-DRR, service-curve conformance vs the
# H-FSC runtime machinery, and no-loss/no-reorder per flow. Excluded from
# the general ASan lane above (its exclude regex matches "fuzz").
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure -L '^sched-fuzz$'

echo "== dag: classifier differentials under ASan/UBSan =="
# The in-place DAG patch (docs/control_plane.md §2) frees nodes and filter
# records as it goes, so a lifetime bug shows only under the sanitizer:
# patched-equals-fresh (DagPatchProperty), DAG vs linear scan
# (DagEquivalence, ClassifierProperty), the classifier fuzz and the filter
# churn differential. Most of these already ran in the lanes above (the
# fuzz label's FilterFuzz too); re-run them as a named stage so a patch
# regression is called out by the stage banner.
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure \
  -R 'DagPatchProperty|DagEquivalence|ClassifierProperty|FilterFuzz|ChurnDiff\.Filter'

echo "== core: gate-engine differentials under ASan/UBSan =="
# IpCore forwards every chunk through one gate engine, whose deferred output
# ops own raw packet pointers and whose no-cache path copies each packet's
# binding out of the AIU's shared scratch, so a lifetime slip shows only
# under the sanitizer: chunked vs one-at-a-time (GateBatch,
# BurstEquivalence, with the flow cache on and off), sharded vs single
# stack (ShardDiff.GateBatch*) and the adversarial stream
# (WireFuzz.GateBatch*). Most already ran in the lanes above; re-run them
# as a named stage so an engine regression is called out by the banner.
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$repo/build-asan" \
  --output-on-failure \
  -R 'GateBatch|BurstEquivalence|ShardDiff\.GateBatch|WireFuzz\.GateBatch'

echo "== tier 3: TSan build + parallel/chaos tests =="
# ThreadSanitizer over everything that runs worker threads: the sharded
# datapath suites (SPSC rings, epoch reclamation, differential replay,
# mid-traffic control) plus the chaos soaks. RelWithDebInfo: TSan needs
# optimised code to interleave realistically, debug info for reports.
cmake -S "$repo" -B "$repo/build-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build "$repo/build-tsan" -j "$jobs" --target rp_tests
TSAN_OPTIONS=halt_on_error=1 ctest --test-dir "$repo/build-tsan" \
  --output-on-failure -L tsan

echo "== ci: all green =="
