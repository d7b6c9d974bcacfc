#include "parallel/sharded_datapath.hpp"

#include <latch>
#include <thread>

#include "pkt/builder.hpp"

namespace rp::parallel {

ShardedDatapath::ShardedDatapath(const Options& opt, const Setup& setup) {
  const std::uint32_t n = opt.workers ? opt.workers : 1;
  if (opt.io.mode == IoOptions::Mode::multiq) {
    mq_ = std::make_unique<io::MemQueueBackend>(io::MemQueueOptions{
        .queues = n, .ring_capacity = opt.ring_capacity});
    migrate_threshold_ = opt.io.migrate_threshold;
    migrate_depth_ = static_cast<std::size_t>(
        migrate_threshold_ * static_cast<double>(opt.ring_capacity));
  }
  workers_.reserve(n);
  reader_slots_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>(i, opt.shard, opt.ring_capacity);
    w->set_measure_busy(opt.measure_busy);
    if (mq_) w->set_rx_source(mq_.get(), i);
    reader_slots_.push_back(w->register_reader());
    if (setup) setup(w->ctx());
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) w->start();
}

ShardedDatapath::~ShardedDatapath() { stop(); }

void ShardedDatapath::set_tx_handler(Worker::TxHandler h) {
  for (auto& w : workers_) w->set_tx_handler(h);
}

void ShardedDatapath::submit(pkt::PacketPtr p) {
  if (mq_) {
    submit_multiq(std::move(p));
    return;
  }
  std::uint32_t target;
  if (pkt::extract_flow_key(*p)) {
    target = shard_of(p->flow_hash());
  } else {
    target = static_cast<std::uint32_t>(rr_++ % workers_.size());
  }
  workers_[target]->submit_blocking(std::move(p));
}

void ShardedDatapath::submit_multiq(pkt::PacketPtr p) {
  std::uint32_t q;
  if (pkt::extract_flow_key(*p)) {
    const std::uint32_t bucket =
        io::MemQueueBackend::bucket_of(p->flow_hash());
    if (mig_.active) {
      // Opportunistically retire a finished migration; a packet of the
      // migrating bucket itself must wait for the barrier (per-flow FIFO:
      // the victim drains everything submitted before the rebind before
      // the new queue sees this flow).
      if (workers_[mig_.from]->processed() >= mig_.barrier ||
          bucket == mig_.bucket) {
        block_until_barrier();
      }
    }
    if (!mig_.active && migrate_depth_ > 0 && workers_.size() > 1)
      maybe_migrate(bucket);
    if (mig_.active && bucket == mig_.bucket) block_until_barrier();
    q = mq_->reta(bucket);
  } else {
    q = static_cast<std::uint32_t>(rr_++ % workers_.size());
  }
  Worker& w = *workers_[q];
  w.note_submitted();
  while (!mq_->try_deliver(q, p, p->arrival)) {
    // Queue full: the worker is behind. Lossless fabric — yield so the
    // worker can run (essential on single-CPU hosts), never drop.
    w.doorbell();
    std::this_thread::yield();
  }
  w.doorbell();
}

void ShardedDatapath::maybe_migrate(std::uint32_t bucket) {
  const std::uint32_t from = mq_->reta(bucket);
  const std::size_t depth = mq_->rx_depth(from);
  if (depth <= migrate_depth_) return;
  // Steal target: the least-loaded queue; only worth it if it is doing
  // meaningfully better than the victim (avoids thrash when every queue
  // is saturated).
  std::uint32_t to = from;
  std::size_t best = depth;
  for (std::uint32_t i = 0; i < workers_.size(); ++i) {
    const std::size_t d = mq_->rx_depth(i);
    if (d < best) {
      best = d;
      to = i;
    }
  }
  if (to == from || best * 2 > depth) return;
  mq_->set_reta(bucket, to);
  mig_ = {.active = true,
          .bucket = bucket,
          .from = from,
          .barrier = workers_[from]->submitted()};
  ++migrations_;
}

void ShardedDatapath::block_until_barrier() {
  Worker& victim = *workers_[mig_.from];
  while (victim.processed() < mig_.barrier) {
    victim.doorbell();
    std::this_thread::yield();
  }
  mig_.active = false;
}

std::uint64_t ShardedDatapath::submitted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->submitted();
  return n;
}

void ShardedDatapath::broadcast(Worker::Command c) {
  for (auto& w : workers_) w->post(c);
}

void ShardedDatapath::gather(const std::function<void(ShardContext&)>& fn) {
  std::latch done(static_cast<std::ptrdiff_t>(workers_.size()));
  for (auto& w : workers_)
    w->post([&fn, &done](ShardContext& ctx) {
      fn(ctx);
      done.count_down();
    });
  done.wait();
}

void ShardedDatapath::quiesce() {
  for (auto& w : workers_) w->quiesce();
}

void ShardedDatapath::sweep_flows(netbase::SimTime cutoff) {
  gather([cutoff](ShardContext& ctx) {
    ctx.aiu().flow_table().expire_idle(cutoff);
  });
}

core::CoreCounters ShardedDatapath::aggregate_counters() {
  std::vector<core::CoreCounters> per(workers_.size());
  gather([&per](ShardContext& ctx) {
    per[ctx.id()] = ctx.core().counters();
  });
  core::CoreCounters sum{};
  for (const auto& c : per) sum += c;
  return sum;
}

netdev::NicCounters ShardedDatapath::aggregate_nic_counters() {
  std::vector<netdev::NicCounters> per(workers_.size());
  gather([&per](ShardContext& ctx) {
    per[ctx.id()] = ctx.interfaces().totals();
  });
  netdev::NicCounters sum{};
  for (const auto& c : per) sum += c;
  return sum;
}

io::QueueStats ShardedDatapath::queue_stats(std::uint32_t q) const {
  if (mq_) return mq_->queue_stats(q);
  io::QueueStats s;
  const Worker& w = *workers_[q];
  s.rx_enqueued = w.submitted();
  s.rx_drained = w.processed();
  return s;
}

ShardSnapshot ShardedDatapath::status(std::uint32_t shard) const {
  return workers_[shard]->snapshot(reader_slots_[shard]);
}

std::vector<ShardSnapshot> ShardedDatapath::status_all() const {
  std::vector<ShardSnapshot> out;
  out.reserve(workers_.size());
  for (std::uint32_t i = 0; i < workers_.size(); ++i)
    out.push_back(workers_[i]->snapshot(reader_slots_[i]));
  return out;
}

void ShardedDatapath::stop() {
  for (auto& w : workers_) w->stop_and_join();
}

}  // namespace rp::parallel
