// sharded_multiq: ShardedDatapath in multiq mode with two workers, fed by
// this (producer) thread from a producer-owned PacketPool, with each shard
// configured like cached_small. ControlPlane drives a RouterKernel that is
// only the control-plane template and mirrors every mutation onto the
// shards. Workers free forwarded packets back into the producer's pool from
// their own threads.
#include <algorithm>
#include <map>
#include <string>

#include "parallel/sharded_datapath.hpp"
#include "pkt/builder.hpp"
#include "pkt/packet_pool.hpp"
#include "stack.hpp"
#include "telemetry/cycles.hpp"

namespace rb {

namespace {

constexpr std::size_t kChunk = 32768;  // packets built per refill
constexpr std::size_t kRing = 1024;
constexpr std::size_t kCtrlEvery = 32;  // control ticks between submissions

class ShardedRun {
 public:
  ShardedRun(const Args& a, const WorkloadSpec& w)
      : a_(a),
        w_(w),
        in_(make_inputs(w, a.seed)),
        traffic_(w, in_, a.seed),
        // Every ring full plus a chunk in flight still leaves free chunks.
        pool_({.chunks = kChunk + w.workers * kRing + 4096, .buf_bytes = 256}),
        use_(pool_),
        spans_(a.trace) {
    build_oracle(oracle_, w_, in_, a.oracle_fault);
  }

  ~ShardedRun() {
    if (dp_) dp_->stop();  // joins the workers before the sinks go
  }

  Result run();
  // Closed-loop windows only, traced: the parallel/ and io/ metrics of the
  // sharded path, for a workload whose own path is single-threaded.
  void probe(double secs, Result& out);

 private:
  void setup();
  void parallel_io_metrics(std::map<std::string, double>& L);
  void refill() {
    const std::int64_t t0 = now_ns();
    traffic_.fill(chunk_, kChunk);
    build_ns_ += double(now_ns() - t0);
    built_ += kChunk;
  }
  // Call only while quiesced: reads every worker's sink.
  void verify() {
    for (auto& s : sinks_) misroutes_ += check_samples(s, oracle_, checked_);
  }
  // Flow-table stats summed over the shards, read on each worker's thread.
  aiu::FlowTable::Stats flow_stats() {
    std::vector<aiu::FlowTable::Stats> st(dp_->workers());
    dp_->gather([&](parallel::ShardContext& ctx) {
      st[ctx.id()] = ctx.aiu().flow_table().stats();
    });
    aiu::FlowTable::Stats sum;
    for (const auto& x : st) {
      sum.hits += x.hits;
      sum.misses += x.misses;
      sum.recycled += x.recycled;
    }
    return sum;
  }
  std::vector<std::uint64_t> processed() const {
    std::vector<std::uint64_t> v;
    for (std::uint32_t i = 0; i < dp_->workers(); ++i)
      v.push_back(dp_->worker(i).processed());
    return v;
  }
  std::uint64_t busy_ns() const {
    std::uint64_t b = 0;
    for (std::uint32_t i = 0; i < dp_->workers(); ++i)
      b += dp_->worker(i).busy_ns();
    return b;
  }
  // Submits the chunk and waits for the workers; returns forwarding ns.
  std::int64_t forward(bool with_ctrl, bool traced);
  void pps_window(double secs, bool traced);
  void paced_window(double secs);
  void ctrl_window(double secs);
  void final_checks();
  void replays();

  const Args& a_;
  const WorkloadSpec& w_;
  Inputs in_;
  Traffic traffic_;
  LpmOracle oracle_;
  pkt::PacketPool pool_;
  pkt::PacketPool::Use use_;
  SpanLog spans_;
  std::unique_ptr<route::RoutingTable> twin_;
  // Declared before dp_: the workers' tx handler writes the sinks.
  std::vector<TxSink> sinks_;
  std::unique_ptr<core::RouterKernel> kernel_;  // control-plane template
  std::unique_ptr<parallel::ShardedDatapath> dp_;
  std::unique_ptr<ctrl::ControlPlane> cp_;
  std::unique_ptr<ControlDriver> ctrl_;
  StackIds ids_;
  std::vector<pkt::PacketPtr> chunk_;
  std::int64_t epoch_{now_ns()};

  RunTotals t_;
  LayerAcc acc_;
  std::vector<std::uint64_t> proc_delta_;  // per worker, closed-loop windows
  Result r_;
  std::uint64_t misroutes_{0}, checked_{0};
  double build_ns_{0};
  std::uint64_t built_{0};
  double submit_ns_{0}, quiesce_ns_{0}, traced_wall_ns_{0};
  std::uint64_t traced_pkts_{0}, traced_chunks_{0}, traced_busy_ns_{0};
  std::uint64_t fwd_allocs_{0}, fwd_pkts_{0};
};

void ShardedRun::setup() {
  for (std::size_t rep = 0; rep < w_.setup_reps; ++rep) {
    ctrl_.reset();
    cp_.reset();
    dp_.reset();
    kernel_.reset();
    sinks_.assign(w_.workers, TxSink{});
    const std::int64_t t0 = now_ns();
    const auto ko = kernel_options(w_);
    kernel_ = std::make_unique<core::RouterKernel>(ko);
    ids_ = configure(*kernel_, w_, in_);
    parallel::ShardedDatapath::Options o;
    o.workers = w_.workers;
    o.ring_capacity = kRing;
    o.shard = {ko.aiu, ko.core, ko.route_engine, ko.telemetry, ko.resilience};
    o.measure_busy = a_.trace;
    o.io.mode = parallel::ShardedDatapath::IoOptions::Mode::multiq;
    dp_ = std::make_unique<parallel::ShardedDatapath>(
        o, [&](parallel::ShardContext& c) { configure(c, w_, in_); });
    dp_->set_tx_handler(
        [this](parallel::ShardContext& c, pkt::IfIndex oif, pkt::PacketPtr p) {
          sinks_[c.id()].on_tx(oif, *p);
        });
    if (a_.pin_cpus.size() > w_.workers)
      dp_->gather([&](parallel::ShardContext& ctx) {
        pin_this_thread(a_.pin_cpus[ctx.id() + 1]);
      });
    for (const Flow& f : in_.flows) dp_->submit(build_packet(f));
    dp_->quiesce();
    t_.setup_s.push_back(double(now_ns() - t0) / 1e9);
  }
  cp_ = std::make_unique<ctrl::ControlPlane>(*kernel_);
  cp_->attach_sharded(dp_.get());
  if (a_.trace) twin_ = make_twin(w_, in_);
  ctrl_ = std::make_unique<ControlDriver>(*cp_, w_, in_, ids_, oracle_, spans_,
                                          twin_.get(), true);
  ctrl_->settle();
  verify();
}

std::int64_t ShardedRun::forward(bool with_ctrl, bool traced) {
  std::int64_t ctrl_ns = 0;
  const std::uint64_t busy0 = traced ? busy_ns() : 0;
  const std::uint32_t sp_chunk = traced ? spans_.open("chunk", 0, 0) : 0;
  const std::uint32_t sp_sub = traced ? spans_.open("parallel.submit", sp_chunk, 0) : 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < chunk_.size(); ++i) {
    dp_->submit(std::move(chunk_[i]));
    if (with_ctrl && i % kCtrlEvery == kCtrlEvery - 1)
      // Route churn never touches the traffic's prefix here, so egress
      // samples stay checkable without quiescing around route ops.
      ctrl_ns += ctrl_->tick(dp_->submitted(), [] {});
  }
  const std::int64_t t1 = now_ns();
  spans_.close(sp_sub);
  const std::uint32_t sp_q = traced ? spans_.open("parallel.quiesce", sp_chunk, 0) : 0;
  dp_->quiesce();
  const std::int64_t t2 = now_ns();
  spans_.close(sp_q);
  spans_.close(sp_chunk);
  if (traced) {
    submit_ns_ += double(t1 - t0 - ctrl_ns);
    quiesce_ns_ += double(t2 - t1);
    traced_wall_ns_ += double(t2 - t0 - ctrl_ns);
    traced_pkts_ += chunk_.size();
    ++traced_chunks_;
    traced_busy_ns_ += busy_ns() - busy0;
  }
  return t2 - t0 - ctrl_ns;
}

void ShardedRun::pps_window(double secs, bool traced) {
  const core::CoreCounters c0 = dp_->aggregate_counters();
  const auto f0 = flow_stats();
  const auto p0 = pool_.stats();
  const auto proc0 = processed();
  dp_->gather([](parallel::ShardContext& ctx) { ctx.telemetry().reset(); });
  // Operator-new calls over the window; packet builds come from the pool.
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(secs * 1e9);
  double fwd_ns = 0;
  std::uint64_t pkts = 0;
  while (now_ns() < end) {
    refill();
    const double ns = double(forward(false, traced));
    fwd_ns += ns;
    pkts += chunk_.size();
    // One chunk (submit + quiesce) is one closed-loop sub-window.
    if (!traced) t_.fwd_ns_per_pkt.push_back(ns / double(chunk_.size()));
    verify();
  }
  fwd_allocs_ += g_allocs.load(std::memory_order_relaxed) - allocs0;
  fwd_pkts_ += pkts;
  (traced ? t_.pps_traced : t_.pps).push_back(double(pkts) / (fwd_ns / 1e9));
  const auto proc1 = processed();
  proc_delta_.resize(proc1.size());
  for (std::size_t i = 0; i < proc1.size(); ++i) proc_delta_[i] += proc1[i] - proc0[i];
  acc_.add(c0, dp_->aggregate_counters(), f0, flow_stats(), p0, pool_.stats());
  std::vector<GateHists> per(dp_->workers());
  dp_->gather([&](parallel::ShardContext& ctx) { per[ctx.id()].merge(ctx.telemetry()); });
  for (const auto& g : per) acc_.gates.merge(g);
}

void ShardedRun::paced_window(double secs) {
  const double period = 1e9 / w_.paced_pps;
  const auto total = static_cast<std::uint64_t>(w_.paced_pps * secs);
  // Reserved up front: a vector doubling mid-window stalls for milliseconds
  // and would show up as router latency. Each sink may see every packet.
  std::vector<std::int64_t> late;
  late.reserve(total);
  // Workers are quiesced: the next submission publishes these writes.
  for (auto& sk : sinks_) {
    sk.lat.clear();
    sk.lat.reserve(total + parallel::Worker::kBurst);
    sk.paced = true;
    sk.epoch = epoch_;
  }
  chunk_.clear();
  std::size_t j = 0;
  double t_base = double(now_ns());
  for (std::uint64_t i = 0; i < total;) {
    if (j == chunk_.size()) {
      // The schedule pauses while the generator builds.
      const std::int64_t b0 = now_ns();
      refill();
      j = 0;
      t_base += double(now_ns() - b0);
    }
    const std::int64_t now = now_ns();
    if (double(now) < t_base) continue;
    const auto due_n = static_cast<std::uint64_t>((double(now) - t_base) / period) + 1;
    for (; i < due_n && i < total && j < chunk_.size(); ++i, ++j) {
      const auto due = static_cast<std::int64_t>(t_base + double(i) * period);
      chunk_[j]->arrival = due - epoch_;
      late.push_back(now - due);
      if (now - due > kLateNs) ++t_.late_count;
      dp_->submit(std::move(chunk_[j]));
    }
  }
  dp_->quiesce();
  for (auto& sk : sinks_) {
    sk.paced = false;
    t_.lat.add(sk.lat, 1e-3);
    sk.lat.clear();
  }
  t_.late.add(late, 1e-3);
  verify();
}

void ShardedRun::ctrl_window(double secs) {
  // Upgrades first, while the cached flows are those of the last settle;
  // then route ops and filter batches (as for a single stack).
  const std::int64_t start = now_ns();
  const auto split = start + static_cast<std::int64_t>(kUpgradeShare * secs * 1e9);
  const auto end = start + static_cast<std::int64_t>(secs * 1e9);
  ctrl_->rebase(dp_->submitted(), ControlDriver::kUpgrade | ControlDriver::kRoute);
  bool upgrading = true;
  for (std::int64_t now = start; now < end; now = now_ns()) {
    if (upgrading && now >= split) {
      ctrl_->rebase(dp_->submitted(), ControlDriver::kRoute | ControlDriver::kFilter);
      upgrading = false;
    }
    refill();
    forward(true, false);
    verify();
  }
  // Re-warm the flows filter batches invalidated and settle the stats
  // lists (untimed), as in setup.
  for (const Flow& f : in_.flows) dp_->submit(build_packet(f));
  dp_->quiesce();
  verify();
  ctrl_->settle();
}

void ShardedRun::final_checks() {
  dp_->quiesce();
  verify();
  const core::CoreCounters c = dp_->aggregate_counters();
  t_.injected = dp_->submitted();
  t_.received = c.received;
  t_.forwarded = c.forwarded;
  for (const auto& s : sinks_) t_.delivered += s.delivered;
  t_.nic_drops = dp_->aggregate_nic_counters().rx_drops;
  for (std::uint32_t q = 0; q < dp_->workers(); ++q)
    t_.nic_drops += dp_->queue_stats(q).rx_drops;
  t_.misroutes = misroutes_;
  t_.samples_checked = checked_;
  // Every shard's table and the template's must agree with the oracle.
  constexpr std::size_t kProbes = 4096;
  std::vector<std::uint64_t> bad(dp_->workers(), 0), counted(dp_->workers(), 0);
  dp_->gather([&](parallel::ShardContext& ctx) {
    bad[ctx.id()] = verify_table(ctx.routes(), oracle_, in_, a_.seed, kProbes);
    for (auto id : {ids_.stats_a, ids_.stats_b})
      counted[ctx.id()] += static_cast<stats::StatsInstance*>(
                               ctx.pcu().find("stats")->instance(id))
                               ->total_packets();
  });
  t_.table_probes = kProbes * (dp_->workers() + 1);
  t_.table_bad = verify_table(kernel_->routes(), oracle_, in_, a_.seed, kProbes);
  std::uint64_t total_counted = 0;
  for (std::uint32_t i = 0; i < dp_->workers(); ++i) {
    t_.table_bad += bad[i];
    total_counted += counted[i];
  }
  t_.stats_conserved =
      total_counted == c.received - c.dropped(core::DropReason::malformed);
  t_.ctrl = ctrl_.get();
}

void ShardedRun::parallel_io_metrics(std::map<std::string, double>& L) {
  L["parallel.submit_ns"] = traced_pkts_ ? submit_ns_ / double(traced_pkts_) : 0;
  L["parallel.quiesce_us"] =
      traced_chunks_ ? quiesce_ns_ / double(traced_chunks_) / 1e3 : 0;
  L["parallel.busy_share"] =
      traced_wall_ns_ > 0
          ? double(traced_busy_ns_) / (traced_wall_ns_ * dp_->workers())
          : 0;
  L["parallel.busy_ns_per_pkt"] =
      traced_pkts_ ? double(traced_busy_ns_) / double(traced_pkts_) : 0;
  std::uint64_t mx = 0, sum = 0;
  for (auto d : proc_delta_) {
    mx = std::max(mx, d);
    sum += d;
  }
  L["parallel.imbalance"] =
      sum ? double(mx) / (double(sum) / double(proc_delta_.size())) : 0;
  io::QueueStats qs;
  for (std::uint32_t q = 0; q < dp_->workers(); ++q) {
    const auto s = dp_->queue_stats(q);
    qs.rx_enqueued += s.rx_enqueued;
    qs.rx_waits += s.rx_waits;
    qs.occupancy_sum += s.occupancy_sum;
    qs.occupancy_samples += s.occupancy_samples;
  }
  L["io.rx_waits_per_pkt"] =
      qs.rx_enqueued ? double(qs.rx_waits) / double(qs.rx_enqueued) : 0;
  L["io.avg_depth"] = qs.occupancy_samples
                          ? double(qs.occupancy_sum) / double(qs.occupancy_samples)
                          : 0;
}

void ShardedRun::probe(double secs, Result& out) {
  setup();
  constexpr std::size_t kWindows = 4;
  for (std::size_t i = 0; i < kWindows; ++i) pps_window(secs / kWindows, true);
  parallel_io_metrics(out.layer);
}

void ShardedRun::replays() {
  auto& L = r_.layer;
  L["pkt.allocs_per_pkt"] = fwd_pkts_ ? double(fwd_allocs_) / double(fwd_pkts_) : 0;
  L["tgen.build_ns"] = built_ ? build_ns_ / double(built_) : 0;
  parallel_io_metrics(L);

  // Module replays: stack-independent ones and the template's tables here;
  // the ones that need a shard's live state on worker 0's own thread.
  Replay rp(traffic_);
  L["pkt.validate_ns"] = rp.validate_ns();
  L["aiu.classify_ns"] = rp.classify_ns(kernel_->aiu());
  L["route.lookup_ns"] = rp.route_lookup_ns(kernel_->routes());
  // Core replay packets: flows steered to worker 0, so its warm cache hits.
  std::vector<pkt::PacketPtr> mine;
  while (mine.size() < 4096) {
    pkt::PacketPtr p = build_packet(traffic_.next());
    pkt::extract_flow_key(*p);
    if (dp_->backend()->steer(p->flow_hash()) == 0) mine.push_back(std::move(p));
  }
  double flow_hit = 0, proc = 0, tx = 0;
  std::size_t active = 0;
  dp_->gather([&](parallel::ShardContext& ctx) {
    if (ctx.id() != 0) return;
    active = ctx.aiu().flow_table().active();
    flow_hit = rp.flow_hit_ns(ctx.aiu().flow_table(), ctx.clock().now());
    core::IpCore& core = ctx.core();
    for (std::size_t i = 0; i < mine.size(); i += 32) {
      const std::size_t m = std::min<std::size_t>(32, mine.size() - i);
      const std::int64_t ta = now_ns();
      core.process_burst({&mine[i], m});
      const std::int64_t tb = now_ns();
      for (pkt::IfIndex oif = 0; oif < kPorts; ++oif)
        while (core.tx_backlog(oif) && core.next_for_tx(oif, ctx.clock().now())) {
        }
      proc += double(tb - ta);
      tx += double(now_ns() - tb);
    }
  });
  L["aiu.flow_hit_ns"] = flow_hit;
  L["stats.flow_removed_ns"] = rp.flow_removed_ns(active);
  L["core.process_ns"] = proc / double(mine.size());
  L["core.tx_ns"] = tx / double(mine.size());
  const auto [enq, deq] = rp.drr_ns();
  L["sched.enqueue_ns"] = enq;
  L["sched.dequeue_ns"] = deq;
}

Result ShardedRun::run() {
  t_.lat.n = t_.late.n = w_.lat_window;
  t_.lat.skip = t_.late.skip = static_cast<std::size_t>(w_.paced_pps * kPacedWarmupS);
  t_.window_q = w_.window_q;
  setup();
  const RoundPlan plan = round_plan(w_, a_.seconds);
  const std::int64_t ns0 = now_ns();
  const std::uint64_t cyc0 = telemetry::cycles();
  for (std::size_t round = 0; round < plan.rounds; ++round) {
    pps_window(plan.pps_s, a_.trace && round % 2 == 1);
    paced_window(plan.paced_s);
    ctrl_window(plan.ctrl_s);
  }
  const double ns_cyc = ns_per_cycle(ns0, cyc0);
  final_checks();
  report_common(t_, r_);
  acc_.report(r_);
  if (a_.trace) {
    replays();
    attribute_core(r_, w_.drr, ns_cyc);
  }
  finish_spans(a_, spans_, r_);
  return std::move(r_);
}

}  // namespace

Result run_sharded(const Args& a, const WorkloadSpec& w) {
  return std::make_unique<ShardedRun>(a, w)->run();
}

void sharded_probe(const Args& a, double secs, Result& r) {
  Args pa = a;
  pa.trace = true;  // per-worker busy time
  pa.workload = "sharded_multiq";
  WorkloadSpec w = workload_spec(pa.workload, true);
  std::make_unique<ShardedRun>(pa, w)->probe(secs, r);
}

}  // namespace rb
