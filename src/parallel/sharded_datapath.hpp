// The N-worker datapath: RSS-style flow sharding over private router stacks.
//
// Ingress steers each packet by the *high* 32 bits of its flow hash (the
// fixed-point range map in shard_index below), because the per-shard
// FlowTable indexes buckets with the low bits (`hash & (buckets-1)`); using
// disjoint bit ranges keeps every shard's flow table fully utilised. A
// flow's packets always land on one worker, in submission order, so
// per-flow semantics (gate order, flow state, drop reasons, byte counts)
// are exactly those of the single-threaded path — the differential test
// holds the two to bit-equality.
//
// Two I/O modes (Options::io):
//   * steered (default) — the submitting thread computes the shard and
//     pushes onto the owning worker's SPSC ring: the central-ingress model.
//   * multiq — packets go through a MemQueueBackend: RETA steering, one
//     queue pair per worker, workers drain rx directly. Optionally, when a
//     queue's backlog crosses a threshold, the hot RETA bucket is migrated
//     to the least-loaded queue at a submission boundary, with an ordering
//     barrier (the victim drains everything submitted before the rebind
//     first) so per-flow FIFO survives the move.
//
// Control-plane interaction is lock-free on the packet path:
//   * mutations  — broadcast() posts a command to every worker's command
//     ring; workers apply it at the next burst boundary (the quiesce hook);
//   * aggregation — gather() runs a closure on each worker thread (exact,
//     race-free reads of worker-owned state) and joins on a latch;
//   * monitoring — status() copies the worker's latest epoch-protected
//     snapshot without stopping it (see parallel/epoch.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "parallel/shard.hpp"

namespace rp::parallel {

// Fixed-point range map: spreads the hash's high 32 bits evenly over n.
// Replaces `(flow_hash >> 56) % n`, which collapsed the key space to 256
// values and carried modulo bias for non-power-of-two n (the chi-square
// test in tests/test_iobackend.cpp holds this one to uniformity). The low
// 32 bits stay untouched — they index flow-table buckets.
inline std::uint32_t shard_index(std::uint64_t flow_hash,
                                 std::uint32_t n) noexcept {
  return static_cast<std::uint32_t>(((flow_hash >> 32) * n) >> 32);
}

class ShardedDatapath {
 public:
  struct IoOptions {
    enum class Mode {
      steered,  // central ingress steers onto per-worker SPSC rings
      multiq,   // RSS queue pair per worker (io::MemQueueBackend)
    };
    Mode mode{Mode::steered};
    // multiq only: when a queue's depth exceeds this fraction of
    // ring_capacity, migrate its hottest RETA bucket to the least-loaded
    // queue. 0 disables migration (the differential-equivalence setting:
    // migration preserves aggregates and per-flow FIFO but moves soft
    // state between shards).
    double migrate_threshold{0.0};
  };

  struct Options {
    std::uint32_t workers{1};
    std::size_t ring_capacity{1024};
    ShardOptions shard{};
    bool measure_busy{false};
    IoOptions io{};
  };

  // Runs on each shard before its worker thread starts: install routes,
  // interfaces, plugin instances, filters. Replicated configuration is the
  // sharing model — every shard gets the same control state.
  using Setup = std::function<void(ShardContext&)>;

  explicit ShardedDatapath(const Options& opt, const Setup& setup = nullptr);
  ~ShardedDatapath();

  ShardedDatapath(const ShardedDatapath&) = delete;
  ShardedDatapath& operator=(const ShardedDatapath&) = delete;

  std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  Worker& worker(std::uint32_t i) noexcept { return *workers_[i]; }

  // Which worker a packet with this flow hash is steered to (steered mode;
  // multiq steers through the backend's RETA, which starts out equivalent).
  std::uint32_t shard_of(std::uint64_t flow_hash) const noexcept {
    return shard_index(flow_hash,
                       static_cast<std::uint32_t>(workers_.size()));
  }

  // The multi-queue backend, null in steered mode.
  io::MemQueueBackend* backend() noexcept { return mq_.get(); }
  // RETA-bucket migrations performed so far (multiq + migration enabled).
  std::uint64_t migrations() const noexcept { return migrations_; }
  // Per-queue stats; in steered mode synthesized from the worker's ring.
  io::QueueStats queue_stats(std::uint32_t q) const;

  // Per-packet egress callback, set before traffic (forwarded to workers).
  void set_tx_handler(Worker::TxHandler h);

  // -- ingress (single submitting thread) --

  // Parses the six-tuple if needed, steers by flow hash, and enqueues on the
  // owning worker's ring (blocking while full — lossless). Unparseable
  // packets round-robin; they carry no flow state, so placement is free.
  void submit(pkt::PacketPtr p);
  std::uint64_t submitted() const noexcept;

  // -- control (single control thread; may be the submitting thread) --

  // Posts `c` to every worker, to run at its next burst boundary.
  void broadcast(Worker::Command c);
  // Runs `fn` on every worker thread at a burst boundary and blocks until
  // all have run — the exact-aggregation primitive.
  void gather(const std::function<void(ShardContext&)>& fn);
  // Blocks until every submitted packet and posted command has completed.
  void quiesce();

  // Flow-table sweep, safe mid-traffic (the quiesce-hook fix): runs at a
  // burst boundary on each worker, never mid-burst.
  void sweep_flows(netbase::SimTime cutoff);

  // Exact aggregate across all shards (uses gather(); waits for a burst
  // boundary on each worker).
  core::CoreCounters aggregate_counters();
  // Summed NIC counters across every shard's interface table (surfaces
  // driver-level rx_drops, which used to be counted but never reported).
  netdev::NicCounters aggregate_nic_counters();

  // Lock-free monitoring reads from the workers' published snapshots —
  // slightly stale (≤16 bursts), never blocks the packet path.
  ShardSnapshot status(std::uint32_t shard) const;
  std::vector<ShardSnapshot> status_all() const;

  void stop();  // drain + join all workers (idempotent; dtor calls it)

 private:
  void submit_multiq(pkt::PacketPtr p);
  void maybe_migrate(std::uint32_t bucket);
  void block_until_barrier();

  std::vector<std::unique_ptr<Worker>> workers_;
  // Control thread's reader slot in each worker's status domain.
  std::vector<std::size_t> reader_slots_;
  std::uint64_t rr_{0};  // round-robin cursor for unparseable packets

  // Multi-queue state (submit-thread owned).
  std::unique_ptr<io::MemQueueBackend> mq_;
  double migrate_threshold_{0.0};
  std::size_t migrate_depth_{0};  // threshold in packets (precomputed)
  std::uint64_t migrations_{0};
  struct {
    bool active{false};
    std::uint32_t bucket{0};
    std::uint32_t from{0};
    std::uint64_t barrier{0};  // victim's submitted() at RETA rebind
  } mig_;
};

}  // namespace rp::parallel
