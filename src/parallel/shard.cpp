#include "parallel/shard.hpp"

#include <ctime>

namespace rp::parallel {

namespace {

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Snapshots are refreshed at least this often while traffic flows (also
// once whenever the worker goes idle, so a drained shard reads exact).
constexpr std::uint64_t kPublishEveryBursts = 16;

}  // namespace

Worker::Worker(std::uint32_t shard_id, const ShardOptions& opt,
               std::size_t ring_capacity)
    : ctx_(shard_id, opt), ring_(ring_capacity), status_(status_domain_) {}

Worker::~Worker() { stop_and_join(); }

void Worker::start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread(&Worker::run, this);
}

void Worker::stop_and_join() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_seq_cst);
  wake();
  thread_.join();
  // The thread exits only with both rings drained; publish a final exact
  // snapshot (we are the only "writer" left, so this is single-threaded).
  publish_snapshot();
}

bool Worker::try_submit(pkt::PacketPtr& p) {
  if (!ring_.try_push(p)) return false;
  ++submitted_;
  wake();
  return true;
}

void Worker::submit_blocking(pkt::PacketPtr p) {
  while (!try_submit(p)) {
    // Ring full: the worker is behind. Yield so it can run (essential on
    // single-CPU hosts), never drop — the differential harness depends on
    // lossless delivery.
    wake();
    std::this_thread::yield();
  }
}

void Worker::post(Command c) {
  while (!commands_.try_push(c)) {
    wake();
    std::this_thread::yield();
  }
  wake();
}

void Worker::quiesce() {
  const std::uint64_t target = submitted_;
  while (processed_.load(std::memory_order_acquire) < target) {
    wake();
    std::this_thread::yield();
  }
  // All packets are through; now fence the command ring (FIFO, so every
  // command posted before this one has run when the fence fires).
  std::atomic<bool> done{false};
  post([&done](ShardContext&) { done.store(true, std::memory_order_release); });
  while (!done.load(std::memory_order_acquire)) {
    wake();
    std::this_thread::yield();
  }
}

ShardSnapshot Worker::snapshot(std::size_t reader_slot) const {
  EpochGuard g(status_domain_, reader_slot);
  const ShardSnapshot* s = status_.load();
  return s ? *s : ShardSnapshot{.shard_id = ctx_.id()};
}

void Worker::publish_snapshot() {
  auto s = std::make_unique<ShardSnapshot>();
  s->shard_id = ctx_.id();
  s->packets_processed = processed_.load(std::memory_order_relaxed);
  s->bursts = bursts_;
  s->counters = ctx_.core().counters();
  s->flows_active = ctx_.aiu().flow_table().active();
  s->telemetry_samples = ctx_.telemetry().samples();
  s->faults_total = ctx_.resilience().faults_total();
  status_.publish(std::move(s));
  since_publish_ = 0;
}

bool Worker::drain_commands() {
  bool any = false;
  Command c;
  while (commands_.try_pop(c)) {
    c(ctx_);
    c = nullptr;
    any = true;
  }
  // Commands mutate shard state (resets, sweeps, filter changes); mark the
  // snapshot dirty so the next idle pass republishes even with no new bursts.
  if (any && since_publish_ == 0) since_publish_ = 1;
  return any;
}

void Worker::drain_tx() {
  core::IpCore& core = ctx_.core();
  const std::size_t nifs = ctx_.interfaces().size();
  for (std::size_t i = 0; i < nifs; ++i) {
    const auto iface = static_cast<pkt::IfIndex>(i);
    if (!core.tx_backlog(iface)) continue;
    while (pkt::PacketPtr p = core.next_for_tx(iface, ctx_.clock().now())) {
      if (tx_) tx_(ctx_, iface, std::move(p));
    }
  }
}

void Worker::wake() {
  if (sleeping_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lk(nap_mu_);
    nap_cv_.notify_one();
  }
}

void Worker::run() {
  std::vector<pkt::PacketPtr> burst(kBurst);
  unsigned idle_spins = 0;
  for (;;) {
    const std::size_t n =
        rx_be_ ? rx_be_->rx_burst(rx_queue_, {burst.data(), kBurst})
               : ring_.pop_burst({burst.data(), kBurst});
    if (n > 0) {
      idle_spins = 0;
      // Virtual time advances with the shard's own arrivals (monotone per
      // flow, since a flow's packets reach exactly this worker in order).
      netbase::SimTime t = ctx_.clock().now();
      for (std::size_t i = 0; i < n; ++i)
        if (burst[i]->arrival > t) t = burst[i]->arrival;
      ctx_.clock().advance_to(t);

      const std::uint64_t t0 = measure_busy_ ? thread_cpu_ns() : 0;
      ctx_.core().process_burst({burst.data(), n});
      drain_tx();
      if (measure_busy_)
        busy_ns_.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);

      ++bursts_;
      processed_.fetch_add(n, std::memory_order_release);
      if (++since_publish_ >= kPublishEveryBursts) publish_snapshot();
      // Burst boundary: the quiesce hook. Control-path mutations (filter
      // changes, counter resets, flow sweeps/evictions) run only here,
      // never mid-burst.
      drain_commands();
      continue;
    }
    if (drain_commands()) {
      idle_spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;

    if (idle_spins == 0 && since_publish_ > 0) publish_snapshot();
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Park until the doorbell rings (Dekker handshake with try_submit/post;
    // the bounded wait is a belt-and-braces backstop, not a correctness
    // requirement).
    sleeping_.store(true, std::memory_order_seq_cst);
    if (!rx_idle() || !commands_.empty() ||
        stop_.load(std::memory_order_seq_cst)) {
      sleeping_.store(false, std::memory_order_relaxed);
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(nap_mu_);
      nap_cv_.wait_for(lk, std::chrono::milliseconds(2));
    }
    sleeping_.store(false, std::memory_order_relaxed);
    idle_spins = 0;
  }
}

}  // namespace rp::parallel
