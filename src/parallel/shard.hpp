// One shard of the parallel datapath: a worker thread that owns a complete,
// private EISR stack (core::Stack — the same class, wired the same way, that
// RouterKernel runs its event loop over). Nothing on the packet path is
// shared between shards, so the per-packet machinery runs exactly the
// single-threaded code (the differential test in tests/test_shard_diff.cpp
// holds it to that).
//
// Cross-thread traffic happens on exactly three fabrics, all lock-free on
// the packet path:
//   * the packet ring   (ingress -> worker, SPSC, per-flow FIFO),
//   * the command ring  (control -> worker, SPSC; commands run only at
//     burst boundaries — this is the quiesce hook that makes control-path
//     mutations like filter add/remove, IpCore::reset_counters and
//     flow-table eviction-export safe while traffic flows),
//   * the status snapshot (worker -> control, RCU-style Versioned pointer;
//     the control plane reads it without stopping the worker).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "core/stack.hpp"
#include "io/io_backend.hpp"
#include "parallel/epoch.hpp"
#include "parallel/spsc_ring.hpp"

namespace rp::parallel {

// A shard's private stack and its configuration.
using ShardContext = core::Stack;
using ShardOptions = core::Stack::Options;

// Lock-free status snapshot a worker publishes at burst boundaries; the
// control plane reads the latest without quiescing (pmgr `shard status`).
struct ShardSnapshot {
  std::uint32_t shard_id{0};
  std::uint64_t packets_processed{0};
  std::uint64_t bursts{0};
  core::CoreCounters counters{};
  std::size_t flows_active{0};
  std::uint64_t telemetry_samples{0};
  std::uint64_t faults_total{0};
};

// The worker: one thread draining its packet ring through the private stack.
class Worker {
 public:
  // Runs on the worker thread, at a burst boundary (never mid-burst).
  using Command = std::function<void(ShardContext&)>;
  // Invoked on the worker thread for every packet leaving via an output
  // port. Null = transmit-and-free (the packet is accounted in the core's
  // `forwarded` counter either way).
  using TxHandler = std::function<void(ShardContext&, pkt::IfIndex,
                                       pkt::PacketPtr)>;

  static constexpr std::size_t kBurst = aiu::Aiu::kMaxBurst;

  Worker(std::uint32_t shard_id, const ShardOptions& opt,
         std::size_t ring_capacity);
  ~Worker();

  // -- setup (before start) --
  ShardContext& ctx() noexcept { return ctx_; }
  void set_tx_handler(TxHandler h) { tx_ = std::move(h); }
  // Multi-queue mode: the worker drains rx directly from its own backend
  // queue instead of its SPSC ring — no central ingress thread in between.
  // The producer delivers into the backend, then calls note_submitted() +
  // doorbell() so quiesce accounting and parking keep working.
  void set_rx_source(io::IoBackend* be, std::uint32_t queue) noexcept {
    rx_be_ = be;
    rx_queue_ = queue;
  }
  // Record per-burst thread-CPU time so benches can report per-worker
  // service capacity (off by default: two clock_gettime calls per burst).
  void set_measure_busy(bool on) noexcept { measure_busy_ = on; }

  void start();
  void stop_and_join();  // drains the ring and pending commands first
  bool running() const noexcept { return thread_.joinable(); }

  // -- ingress side (single producer) --

  // False when the ring is full (caller may spin/yield and retry).
  bool try_submit(pkt::PacketPtr& p);
  void submit_blocking(pkt::PacketPtr p);
  std::uint64_t submitted() const noexcept { return submitted_; }
  // Producer-side accounting + wakeup for packets delivered around the ring
  // (i.e. straight into this worker's backend rx queue).
  void note_submitted() noexcept { ++submitted_; }
  void doorbell() noexcept { wake(); }

  // -- control side (single control thread; may be the ingress thread) --

  // Enqueues a command for the next burst boundary (blocking if the command
  // ring is momentarily full).
  void post(Command c);
  // Blocks until every packet submitted so far is processed and every
  // command posted so far has run.
  void quiesce();

  // Packets fully processed (released or queued), published by the worker.
  std::uint64_t processed() const noexcept {
    return processed_.load(std::memory_order_acquire);
  }
  // Thread-CPU nanoseconds spent inside burst processing (see
  // set_measure_busy); 0 when measurement is off.
  std::uint64_t busy_ns() const noexcept {
    return busy_ns_.load(std::memory_order_acquire);
  }

  // Claims a reader slot in this worker's status domain (each worker is the
  // sole epoch writer of its own domain — that invariant is what makes the
  // domain's limbo list safely writer-owned).
  std::size_t register_reader() { return status_domain_.register_reader(); }
  // Latest published snapshot copied out under an epoch guard; zeroed
  // snapshot before the worker first publishes. `reader_slot` comes from
  // register_reader().
  ShardSnapshot snapshot(std::size_t reader_slot) const;

 private:
  void run();
  bool drain_commands();
  void drain_tx();
  void publish_snapshot();
  void wake();

  // True when there is nothing to pop from the packet source right now.
  bool rx_idle() const {
    return rx_be_ ? !rx_be_->rx_pending(rx_queue_) : ring_.empty();
  }

  ShardContext ctx_;
  SpscRing<pkt::PacketPtr> ring_;
  SpscRing<Command> commands_{64};
  TxHandler tx_;
  io::IoBackend* rx_be_{nullptr};  // null = drain the SPSC ring (steered)
  std::uint32_t rx_queue_{0};

  // Declared before status_ (the Versioned's destructor retires into it).
  mutable EpochDomain status_domain_;
  Versioned<ShardSnapshot> status_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::uint64_t submitted_{0};  // producer-owned
  bool measure_busy_{false};
  std::uint64_t bursts_{0};           // worker-owned
  std::uint64_t since_publish_{0};    // worker-owned

  // Parking: the worker naps when both rings are empty; producers ring the
  // doorbell after pushing to a possibly-sleeping worker. The Dekker-style
  // seq_cst flag plus a bounded wait makes the handoff lost-wakeup-free.
  std::atomic<bool> sleeping_{false};
  std::mutex nap_mu_;
  std::condition_variable nap_cv_;
};

}  // namespace rp::parallel
