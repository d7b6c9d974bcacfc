// Single-threaded workloads (cached_small, churn_newflows): one
// RouterKernel stack driven through core().process_burst in bursts of 32,
// each followed by a next_for_tx drain of every port. The event loop is not
// used: the benchmark is the NIC, so packets reach the core without a
// simulated link in between.
#include <algorithm>

#include "stack.hpp"
#include "telemetry/cycles.hpp"

namespace rb {

namespace {

constexpr std::size_t kChunk = 4096;  // packets built per refill
constexpr std::size_t kBurst = 32;

class SingleRun {
 public:
  SingleRun(const Args& a, const WorkloadSpec& w)
      : a_(a),
        w_(w),
        in_(make_inputs(w, a.seed)),
        traffic_(w, in_, a.seed),
        pool_({.chunks = 2 * kChunk, .buf_bytes = 256}),
        use_(pool_),
        spans_(a.trace) {
    build_oracle(oracle_, w_, in_, a.oracle_fault);
  }

  Result run();

 private:
  void setup();
  void drain() {
    core::IpCore& core = k_->core();
    const netbase::SimTime now = k_->clock().now();
    for (pkt::IfIndex i = 0; i < kPorts; ++i) {
      if (!core.tx_backlog(i)) continue;
      while (pkt::PacketPtr p = core.next_for_tx(i, now)) sink_.on_tx(i, *p);
    }
  }
  void refill() {
    const std::int64_t t0 = now_ns();
    traffic_.fill(chunk_, kChunk);
    build_ns_ += double(now_ns() - t0);
    built_ += kChunk;
  }
  void verify() { misroutes_ += check_samples(sink_, oracle_, checked_); }
  // Closed loop over one chunk; returns forwarding ns (control ops
  // excluded). With `sub`, appends the ns per packet of every completed
  // closed-loop sub-window (w_.pps_window_pkts packets).
  std::int64_t forward(bool with_ctrl, bool traced,
                       std::vector<double>* sub = nullptr);
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
  std::unique_ptr<core::RouterKernel> k_;
  std::unique_ptr<ctrl::ControlPlane> cp_;
  std::unique_ptr<ControlDriver> ctrl_;
  StackIds ids_;
  std::vector<pkt::PacketPtr> chunk_;
  TxSink sink_;
  std::int64_t epoch_{now_ns()};

  RunTotals t_;
  LayerAcc acc_;
  Result r_;
  std::uint64_t injected_{0}, misroutes_{0}, checked_{0}, bursts_{0};
  std::int64_t sub_ns_{0};  // the open closed-loop sub-window
  std::uint64_t sub_pkts_{0};
  double build_ns_{0};
  std::uint64_t built_{0};
  // Traced-window accounting (trace mode).
  double proc_ns_{0}, tx_ns_{0}, busy_wall_ns_{0};
  std::uint64_t traced_pkts_{0}, traced_bursts_{0};
  std::uint64_t fwd_allocs_{0}, fwd_pkts_{0};
};

void SingleRun::setup() {
  for (std::size_t rep = 0; rep < w_.setup_reps; ++rep) {
    // Tear the previous stack down first (untimed) so two never coexist.
    ctrl_.reset();
    cp_.reset();
    k_.reset();
    injected_ = 0;
    sink_.delivered = 0;
    sink_.samples.clear();
    const std::int64_t t0 = now_ns();
    k_ = std::make_unique<core::RouterKernel>(kernel_options(w_));
    ids_ = configure(*k_, w_, in_);
    // Flow-cache warm-up: every fixed flow once, or warm_packets of the
    // hashed universe.
    std::size_t left = w_.flows ? in_.flows.size() : w_.warm_packets;
    std::size_t next_flow = 0;
    while (left > 0) {
      const std::size_t n = std::min(kChunk, left);
      if (w_.flows) {
        chunk_.clear();
        for (std::size_t i = 0; i < n; ++i)
          chunk_.push_back(build_packet(in_.flows[next_flow++]));
      } else {
        traffic_.fill(chunk_, n);
      }
      for (std::size_t i = 0; i < n; i += kBurst) {
        const std::size_t m = std::min(kBurst, n - i);
        k_->core().process_burst({&chunk_[i], m});
        injected_ += m;
        drain();
      }
      left -= n;
    }
    t_.setup_s.push_back(double(now_ns() - t0) / 1e9);
  }
  cp_ = std::make_unique<ctrl::ControlPlane>(*k_);
  ctrl_ = std::make_unique<ControlDriver>(*cp_, w_, in_, ids_, oracle_, spans_,
                                          a_.trace ? &k_->routes() : nullptr,
                                          false);
  ctrl_->settle();
  verify();
}

std::int64_t SingleRun::forward(bool with_ctrl, bool traced,
                               std::vector<double>* sub) {
  core::IpCore& core = k_->core();
  std::int64_t fwd = 0;
  std::int64_t t0 = now_ns();
  k_->clock().advance_to(t0 - epoch_);
  for (std::size_t i = 0; i < chunk_.size(); i += kBurst) {
    const std::size_t m = std::min(kBurst, chunk_.size() - i);
    if (traced) {
      const bool sp = spans_.sampled(bursts_);
      const std::uint32_t b = sp ? spans_.open("burst", 0, bursts_) : 0;
      const std::int64_t ta = now_ns();
      const std::uint32_t sp_proc =
          sp ? spans_.open("core.process_burst", b, bursts_) : 0;
      core.process_burst({&chunk_[i], m});
      spans_.close(sp_proc);
      const std::int64_t tb = now_ns();
      const std::uint32_t sp_tx = sp ? spans_.open("core.drain_tx", b, bursts_) : 0;
      drain();
      spans_.close(sp_tx);
      const std::int64_t tc = now_ns();
      spans_.close(b);
      proc_ns_ += double(tb - ta);
      tx_ns_ += double(tc - tb);
      traced_pkts_ += m;
      ++traced_bursts_;
    } else {
      core.process_burst({&chunk_[i], m});
      drain();
    }
    injected_ += m;
    ++bursts_;
    const std::int64_t t1 = now_ns();
    fwd += t1 - t0;
    if (sub) {
      sub_ns_ += t1 - t0;
      sub_pkts_ += m;
      if (sub_pkts_ >= w_.pps_window_pkts) {
        sub->push_back(double(sub_ns_) / double(sub_pkts_));
        sub_ns_ = 0;
        sub_pkts_ = 0;
      }
    }
    t0 = t1;
    // Control ops (and the egress check before a route op) are not
    // forwarding time.
    if (with_ctrl && ctrl_->tick(injected_, [&] { verify(); })) t0 = now_ns();
  }
  if (traced) busy_wall_ns_ += double(fwd);
  return fwd;
}

void SingleRun::pps_window(double secs, bool traced) {
  const bool with_ctrl = w_.churn_during_pps;
  if (with_ctrl) ctrl_->rebase(injected_, ControlDriver::kAll);
  const core::CoreCounters c0 = k_->core().counters();
  const auto f0 = k_->aiu().flow_table().stats();
  const auto p0 = pool_.stats();
  k_->telemetry().reset();
  // Operator-new calls over the window; packet builds come from the pool.
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(secs * 1e9);
  double fwd_ns = 0;
  std::uint64_t pkts = 0;
  sub_ns_ = 0;
  sub_pkts_ = 0;
  while (now_ns() < end) {
    refill();
    fwd_ns += double(forward(with_ctrl, traced, traced ? nullptr : &t_.fwd_ns_per_pkt));
    pkts += chunk_.size();
    verify();
  }
  fwd_allocs_ += g_allocs.load(std::memory_order_relaxed) - allocs0;
  fwd_pkts_ += pkts;
  (traced ? t_.pps_traced : t_.pps).push_back(double(pkts) / (fwd_ns / 1e9));
  acc_.add(c0, k_->core().counters(), f0, k_->aiu().flow_table().stats(), p0,
           pool_.stats());
  acc_.gates.merge(k_->telemetry());
}

void SingleRun::paced_window(double secs) {
  core::IpCore& core = k_->core();
  const double period = 1e9 / w_.paced_pps;
  const auto total = static_cast<std::uint64_t>(w_.paced_pps * secs);
  // Reserved up front: a vector doubling mid-window stalls the loop for
  // milliseconds and would show up as router latency.
  std::vector<std::int64_t> late;
  late.reserve(total);
  sink_.lat.clear();
  sink_.lat.reserve(total + kBurst);
  sink_.paced = true;
  sink_.epoch = epoch_;
  chunk_.clear();
  std::size_t j = 0;
  double t_base = double(now_ns());
  for (std::uint64_t i = 0; i < total;) {
    if (j == chunk_.size()) {
      // The schedule pauses while the generator builds, so build time never
      // shows up as router latency.
      const std::int64_t b0 = now_ns();
      refill();
      j = 0;
      t_base += double(now_ns() - b0);
    }
    const std::int64_t now = now_ns();
    if (double(now) < t_base) continue;
    const auto due_n = static_cast<std::uint64_t>((double(now) - t_base) / period) + 1;
    if (due_n <= i) continue;
    const std::size_t m = static_cast<std::size_t>(
        std::min<std::uint64_t>({due_n - i, kBurst, chunk_.size() - j, total - i}));
    for (std::size_t q = 0; q < m; ++q) {
      const auto due = static_cast<std::int64_t>(t_base + double(i + q) * period);
      chunk_[j + q]->arrival = due - epoch_;
      late.push_back(now - due);
      if (now - due > kLateNs) ++t_.late_count;
    }
    k_->clock().advance_to(chunk_[j + m - 1]->arrival);
    core.process_burst({&chunk_[j], m});
    drain();
    injected_ += m;
    i += m;
    j += m;
  }
  sink_.paced = false;
  verify();
  t_.lat.add(sink_.lat, 1e-3);
  t_.late.add(late, 1e-3);
  sink_.lat.clear();
}

void SingleRun::ctrl_window(double secs) {
  // Upgrades first, while the cached flows are those of the last settle;
  // then route ops and filter batches.
  const std::int64_t start = now_ns();
  const auto split = start + static_cast<std::int64_t>(kUpgradeShare * secs * 1e9);
  const auto end = start + static_cast<std::int64_t>(secs * 1e9);
  ctrl_->rebase(injected_, ControlDriver::kUpgrade | ControlDriver::kRoute);
  bool upgrading = true;
  for (std::int64_t now = start; now < end; now = now_ns()) {
    if (upgrading && now >= split) {
      ctrl_->rebase(injected_, ControlDriver::kRoute | ControlDriver::kFilter);
      upgrading = false;
    }
    refill();
    forward(true, false);
    verify();
  }
  // Filter batches invalidate cached flows; re-warm them and settle the
  // stats lists (untimed) so every round starts from the same state.
  chunk_.clear();
  for (const Flow& f : in_.flows) chunk_.push_back(build_packet(f));
  forward(false, false);
  ctrl_->settle();
}

void SingleRun::final_checks() {
  verify();
  const core::CoreCounters& c = k_->core().counters();
  t_.injected = injected_;
  t_.received = c.received;
  t_.forwarded = c.forwarded;
  t_.delivered = sink_.delivered;
  t_.misroutes = misroutes_;
  t_.samples_checked = checked_;
  t_.table_probes = 4096;
  t_.table_bad = verify_table(k_->routes(), oracle_, in_, a_.seed, t_.table_probes);
  // Stats totals survive every upgrade: the two instances together have
  // counted every packet that passed validation.
  std::uint64_t counted = 0;
  for (auto id : {ids_.stats_a, ids_.stats_b})
    counted += static_cast<stats::StatsInstance*>(
                   k_->pcu().find("stats")->instance(id))
                   ->total_packets();
  t_.stats_conserved =
      counted == c.received - c.dropped(core::DropReason::malformed);
  t_.ctrl = ctrl_.get();
}

void SingleRun::replays() {
  auto& L = r_.layer;
  L["pkt.allocs_per_pkt"] = fwd_pkts_ ? double(fwd_allocs_) / double(fwd_pkts_) : 0;
  L["tgen.build_ns"] = built_ ? build_ns_ / double(built_) : 0;
  L["core.process_ns"] = traced_pkts_ ? proc_ns_ / double(traced_pkts_) : 0;
  L["core.tx_ns"] = traced_pkts_ ? tx_ns_ / double(traced_pkts_) : 0;
  // One thread plays producer and worker: "submit" is the loop glue around
  // the two calls, "quiesce" one drain, and the single worker is fully
  // balanced.
  const double busy = proc_ns_ + tx_ns_;
  L["parallel.submit_ns"] =
      traced_pkts_ ? (busy_wall_ns_ - busy) / double(traced_pkts_) : 0;
  L["parallel.quiesce_us"] =
      traced_bursts_ ? tx_ns_ / double(traced_bursts_) / 1e3 : 0;
  L["parallel.busy_share"] = busy_wall_ns_ > 0 ? busy / busy_wall_ns_ : 0;
  L["parallel.busy_ns_per_pkt"] = traced_pkts_ ? busy / double(traced_pkts_) : 0;
  L["parallel.imbalance"] = 1.0;
  L["io.rx_waits_per_pkt"] = 0;
  L["io.avg_depth"] = double(kBurst);

  Replay rp(traffic_);
  L["pkt.validate_ns"] = rp.validate_ns();
  L["aiu.flow_hit_ns"] = rp.flow_hit_ns(k_->aiu().flow_table(), k_->clock().now());
  L["aiu.classify_ns"] = rp.classify_ns(k_->aiu());
  L["route.lookup_ns"] = rp.route_lookup_ns(k_->routes());
  L["stats.flow_removed_ns"] = rp.flow_removed_ns(k_->aiu().flow_table().active());
  const auto [enq, deq] = rp.drr_ns();
  L["sched.enqueue_ns"] = enq;
  L["sched.dequeue_ns"] = deq;
  if (w_.probe_sharded) sharded_probe(a_, a_.short_mode ? 0.4 : 2.0, r_);
}

Result SingleRun::run() {
  t_.lat.n = t_.late.n = w_.lat_window;
  t_.lat.skip = t_.late.skip = static_cast<std::size_t>(w_.paced_pps * kPacedWarmupS);
  t_.window_q = w_.window_q;
  setup();
  const RoundPlan plan = round_plan(w_, a_.seconds);
  const std::int64_t ns0 = now_ns();
  const std::uint64_t cyc0 = telemetry::cycles();
  for (std::size_t round = 0; round < plan.rounds; ++round) {
    // Trace mode alternates rounds with spans on and off, so the tracing
    // overhead is measured on the same stack under the same drift.
    pps_window(plan.pps_s, a_.trace && round % 2 == 1);
    paced_window(plan.paced_s);
    if (plan.ctrl_s > 0) ctrl_window(plan.ctrl_s);
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

Result run_single(const Args& a, const WorkloadSpec& w) {
  return std::make_unique<SingleRun>(a, w)->run();
}

}  // namespace rb
