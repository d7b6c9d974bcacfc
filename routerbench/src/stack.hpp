// Workload definitions and the pieces both workload runners share: how one router
// stack is configured (used for RouterKernel, for every shard, and for the
// sharded control-plane template), the traffic source, the control-op
// schedule and the per-thread tx sink.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ctrl/control_plane.hpp"
#include "netbase/rng.hpp"
#include "pkt/packet_pool.hpp"
#include "plugin/plugin.hpp"
#include "sched/drr.hpp"
#include "stats/stats_plugin.hpp"
#include "tgen/churn.hpp"
#include "tgen/workload.hpp"

namespace rb {

struct CtrlSchedule {
  // Packet-count intervals between control operations (0 = never).
  std::uint64_t route_every{0};
  std::uint64_t filter_every{0};
  std::uint64_t upgrade_every{0};
};

struct WorkloadSpec {
  std::string name;
  std::string route_engine;
  bool drr{false};             // DRR plugin on the traffic's output port
  std::size_t flows{0};        // fixed flow set (Zipf popularity) ...
  double zipf{1.0};
  std::size_t universe{0};     // ... or a hashed flow universe (uniform)
  unsigned train_min{1}, train_max{1};
  std::size_t base_prefixes{0};
  unsigned prefix_min_len{16}, prefix_max_len{24};
  std::size_t route_ops{8192};
  std::size_t base_filters{0};  // random filters on the stats gate
  std::size_t filter_ops{32768};
  std::size_t max_flows{1 << 20};
  std::size_t warm_packets{0};  // 0 = one packet per fixed flow
  double paced_pps{0};
  // The sub-window estimators (SubWindowStats below): packets per
  // closed-loop sub-window, paced samples per latency sub-window, and the
  // quantile across sub-windows a run reports.
  std::size_t pps_window_pkts{4096};
  std::size_t lat_window{5000};
  double window_q{0.5};
  CtrlSchedule ctrl;
  bool churn_during_pps{false};  // control ops interleave the pps phase
  std::size_t setup_reps{3};
  std::uint32_t workers{0};      // 0 = single-threaded RouterKernel
  // Traced runs also probe the sharded path for the parallel/ and io/
  // metrics (sharded_multiq is not among the benchmark's workloads).
  bool probe_sharded{false};
};

WorkloadSpec workload_spec(const std::string& name, bool short_mode);

// A run is one round per second, each a closed-loop window, a paced window
// and, unless control ops ride in the closed loop (then the closed loop
// gets 60% and the paced window 40%), a control window.
// Spreading every metric over the whole run means slow drift on a shared
// host lands on all of them alike instead of on whichever phase it hit.
// Share of a control window spent on upgrades (the rest: filter batches).
constexpr double kUpgradeShare = 0.3;
struct RoundPlan {
  std::size_t rounds;
  double pps_s, paced_s, ctrl_s;
};
RoundPlan round_plan(const WorkloadSpec& w, double seconds);

// Seeded inputs shared by every set-up repetition of one run.
struct Inputs {
  tgen::RouteChurn routes;
  tgen::FilterChurn filters;
  std::vector<Flow> flows;  // fixed flow set, empty for a hashed universe
};
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed);

// The traffic's own route, installed outside the churn schedule so churn
// never withdraws it: 20.0.0.0/8 -> if1 for the fixed flow sets, a default
// route -> if0 for the hashed universe.
netbase::IpPrefix traffic_route(const WorkloadSpec& w);
pkt::IfIndex traffic_port(const WorkloadSpec& w);

constexpr pkt::IfIndex kPorts = 4;
constexpr std::size_t kFilterBatch = 64;  // filter ops per control batch
constexpr std::size_t kPaddingFilters = 15;  // + one catch-all = 16 per gate

// The 16 filters every input gate gets: 15 that no traffic matches, then a
// catch-all for the traffic's 10.0.0.0/8 UDP sources.
std::vector<aiu::Filter> fixed_gate_filters();

struct StackIds {
  plugin::InstanceId stats_a{plugin::kNoInstance};
  plugin::InstanceId stats_b{plugin::kNoInstance};
};

// An empty plugin, as in the paper's Table-3 measurement: classification
// and an indirect call, no work.
class EmptyPlugin final : public plugin::Plugin {
 public:
  EmptyPlugin(std::string name, plugin::PluginType t)
      : Plugin(std::move(name), t) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override;
};

// Configures one stack (RouterKernel or ShardContext expose the same
// accessors): four ports, the Table-3 gate chain ipopt -> ipsec -> stats
// with 16 filters per gate, two stats instances (the upgrade ping-pongs
// between them), optional DRR on the traffic port, the base filter set on
// the stats gate and the base route table. Ends with every lazy structure
// built, so the first packet pays no construction.
template <class Stack>
StackIds configure(Stack& s, const WorkloadSpec& w, const Inputs& in) {
  using plugin::PluginType;
  for (pkt::IfIndex i = 0; i < kPorts; ++i)
    s.interfaces().add("if" + std::to_string(i));

  auto& pcu = s.pcu();
  pcu.register_plugin(std::make_unique<EmptyPlugin>("opt0", PluginType::ipopt));
  pcu.register_plugin(std::make_unique<EmptyPlugin>("sec0", PluginType::ipsec));
  pcu.register_plugin(std::make_unique<stats::StatsPlugin>());
  pcu.register_plugin(std::make_unique<sched::DrrPlugin>());
  auto make = [&](const char* plugin, const plugin::Config& cfg) {
    plugin::InstanceId id = plugin::kNoInstance;
    pcu.find(plugin)->create_instance(cfg, id);
    return id;
  };
  StackIds ids;
  const plugin::InstanceId opt = make("opt0", {});
  const plugin::InstanceId sec = make("sec0", {});
  ids.stats_a = make("stats", {});
  ids.stats_b = make("stats", {});

  const std::vector<aiu::Filter> fixed = fixed_gate_filters();
  auto gate_filters = [&](PluginType gate, plugin::PluginInstance* inst) {
    for (const aiu::Filter& f : fixed) s.aiu().create_filter(gate, f, inst);
  };
  gate_filters(PluginType::ipopt, pcu.find("opt0")->instance(opt));
  gate_filters(PluginType::ipsec, pcu.find("sec0")->instance(sec));
  plugin::PluginInstance* st = pcu.find("stats")->instance(ids.stats_a);
  gate_filters(PluginType::stats, st);
  if (w.drr) {
    plugin::Config dcfg;
    dcfg.set("quantum", "1500");
    dcfg.set("limit", "128");
    auto* drr = pcu.find("drr")->instance(make("drr", dcfg));
    gate_filters(PluginType::sched, drr);
    s.core().set_port_scheduler(traffic_port(w),
                                static_cast<core::OutputScheduler*>(drr));
  }
  std::vector<aiu::Aiu::FilterOp> base;
  base.reserve(in.filters.base.size());
  for (const auto& f : in.filters.base)
    base.push_back({aiu::Aiu::FilterOp::Kind::add, PluginType::stats, f, st});
  s.aiu().apply_filter_batch(base);
  for (PluginType g : {PluginType::ipopt, PluginType::ipsec, PluginType::stats,
                       PluginType::sched})
    if (auto* t = s.aiu().filter_table(g)) t->prepare();

  s.routes().add(traffic_route(w), {traffic_port(w), {}});
  for (std::size_t i = 0; i < in.routes.base.size(); ++i)
    s.routes().add(in.routes.base[i], in.routes.base_hops[i]);
  s.routes().prepare();
  return ids;
}

core::RouterKernel::Options kernel_options(const WorkloadSpec& w);

// Endless packet stream: a fixed flow set with Zipf popularity, or a hashed
// universe of flows (uniform) whose destinations fall inside the base
// prefixes, both in per-flow trains of train_min..train_max packets.
class Traffic {
 public:
  Traffic(const WorkloadSpec& w, const Inputs& in, std::uint64_t seed);
  Flow next();
  // Builds `n` packets (pooled when a PacketPool::Use scope is active).
  void fill(std::vector<pkt::PacketPtr>& out, std::size_t n);

 private:
  Flow universe_flow(std::uint64_t id) const;

  const WorkloadSpec& w_;
  const Inputs& in_;
  std::uint64_t seed_;
  netbase::Rng rng_;
  std::unique_ptr<tgen::ZipfSampler> zipf_;
  Flow cur_{};
  unsigned left_{0};
};

// Per consumer-thread tx sink: counts delivered packets, keeps one in
// kSampleEvery (dst, egress port) pairs for the oracle check and, while
// paced, every packet's latency (due time to now, ns) in tx order. Only its
// owning thread writes it; the main thread reads it after a quiesce.
struct TxSink {
  static constexpr std::uint32_t kSampleEvery = 16;

  std::uint64_t delivered{0};
  std::uint32_t tick{0};
  bool paced{false};
  std::int64_t epoch{0};
  std::vector<std::pair<std::uint32_t, pkt::IfIndex>> samples;
  std::vector<std::int64_t> lat;

  void on_tx(pkt::IfIndex oif, const pkt::Packet& p) {
    ++delivered;
    if (++tick % kSampleEvery == 0)
      samples.push_back({static_cast<std::uint32_t>(p.key.dst.v.lo), oif});
    if (paced) lat.push_back(now_ns() - epoch - p.arrival);
  }
};

// Runs the control-op schedule through ControlPlane (which mirrors onto
// every shard when one is attached) and keeps the oracle in step with every
// route batch it applies.
class ControlDriver {
 public:
  // `apply_table`, when set (trace mode), isolates the routing table's own
  // cost: for a single stack it is the live table and every other route op
  // goes to it directly instead of through ControlPlane; for the sharded
  // path it is a twin that receives every op after ControlPlane does.
  ControlDriver(ctrl::ControlPlane& cp, const WorkloadSpec& w,
                const Inputs& in, StackIds ids, LpmOracle& oracle,
                SpanLog& spans, route::RoutingTable* apply_table, bool twin);

  // Which ops a window runs.
  enum Ops : unsigned { kRoute = 1, kFilter = 2, kUpgrade = 4, kAll = 7 };

  // Starts a window running `ops`, each first due one interval after `pkts`.
  void rebase(std::uint64_t pkts, unsigned ops) {
    ops_ = ops;
    next_route_ = pkts + w_.ctrl.route_every;
    next_filter_ = pkts + w_.ctrl.filter_every;
    next_upgrade_ = pkts + w_.ctrl.upgrade_every;
  }

  // Runs every op of the window that is due once `pkts` packets have been
  // submitted (a route op is one add/change/withdraw burst). `before_route` runs first when a route op is due (it checks
  // the egress samples against the oracle before the table changes).
  // Returns the ns spent, so forwarding windows can exclude it.
  template <class F>
  std::int64_t tick(std::uint64_t pkts, F&& before_route) {
    const bool route = (ops_ & kRoute) && w_.ctrl.route_every && pkts >= next_route_;
    const bool filter = (ops_ & kFilter) && w_.ctrl.filter_every && pkts >= next_filter_;
    const bool up = (ops_ & kUpgrade) && w_.ctrl.upgrade_every && pkts >= next_upgrade_;
    if (!route && !filter && !up) return 0;
    const std::int64_t t0 = now_ns();
    // The upgrade goes first: after a filter batch it would find the flows
    // that batch invalidated gone, and rebind nothing.
    if (up) {
      next_upgrade_ = pkts + w_.ctrl.upgrade_every;
      upgrade();
    }
    if (route) {
      next_route_ = pkts + w_.ctrl.route_every;
      before_route();
      route_op();
    }
    if (filter) {
      next_filter_ = pkts + w_.ctrl.filter_every;
      filter_batch();
    }
    return now_ns() - t0;
  }

  // An untimed upgrade ping-pong. The stats plugin finds each migrated
  // flow by a linear search of the old instance's list, so a ping-pong
  // leaves both lists in flow-table order and the next timed upgrade pays
  // only for flows created since.
  void settle();

  std::vector<std::int64_t> route_ns;  // ControlPlane::apply_route_batch span
  std::vector<double> route_apply_ns;  // RoutingTable::apply_batch alone
  std::vector<double> upgrade_ms;
  std::vector<double> flows_rebound;
  std::vector<double> filter_batch_ns;
  std::uint64_t filter_ops{0};
  std::uint64_t flows_invalidated{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  void route_op();
  void filter_batch();
  void upgrade();

  ctrl::ControlPlane& cp_;
  const WorkloadSpec& w_;
  const Inputs& in_;
  LpmOracle& oracle_;
  SpanLog& spans_;
  route::RoutingTable* apply_table_;
  bool twin_;
  std::size_t route_i_{0};
  std::size_t filter_i_{0};
  plugin::InstanceId cur_;
  plugin::InstanceId other_;
  unsigned ops_{kAll};
  std::uint64_t next_route_{0}, next_filter_{0}, next_upgrade_{0};
};

// Checks sampled egress ports against the oracle; returns mismatches and
// clears the samples.
std::uint64_t check_samples(TxSink& sink, const LpmOracle& oracle,
                            std::uint64_t& checked);

// Compares `table` against the oracle on `probes` destinations (random
// addresses and addresses inside base prefixes); returns mismatches.
std::uint64_t verify_table(const route::RoutingTable& table,
                           const LpmOracle& oracle, const Inputs& in,
                           std::uint64_t seed, std::size_t probes);

std::unique_ptr<route::RoutingTable> make_twin(const WorkloadSpec& w,
                                               const Inputs& in);

// Oracle over the traffic route plus the base table; with `fault` the
// routes carrying the traffic disagree with the router (self-test of the
// misroute check).
void build_oracle(LpmOracle& o, const WorkloadSpec& w, const Inputs& in,
                  bool fault);

double peak_rss_mb();

// Sub-window estimators. On a shared 4-CPU KVM host the CPU's speed
// switches between a fast and a slow phase (about 1.5x apart) every few
// seconds, and the share of a run spent in either differs from run to run,
// so a plain median over a run follows that share. Each timed quantity is
// split into sub-windows short enough to sit inside one phase (a few ms of
// packets, or a few control ops); each sub-window gives its statistic
// (mean, p50 or p99), and a run reports the WorkloadSpec::window_q quantile
// of those. Where the workload's costs stay put (cached_small) a low one
// (2%) reads the fast phase whenever that covers a few percent of the run;
// where the workload's own state moves its costs between sub-windows far
// more than the host does (churn_newflows: flow-list lengths,
// invalidations), the median.
struct SubWindowStats {
  std::size_t n{5000};  // samples per sub-window
  std::size_t skip{0};  // warm-up samples dropped from each sequence's start
  std::vector<double> p50, p99;
  std::uint64_t samples{0};
  // Adds the sub-windows of one sequence of samples (in time order); a
  // partial last sub-window is dropped.
  void add(const std::vector<std::int64_t>& v, double scale);
};
// The `across` quantile over sub-windows of `n` consecutive samples of
// each one's `q` quantile.
double windowed(const std::vector<double>& v, std::size_t n, double q,
                double across);

// The first kPacedWarmupS of every paced window are not sampled: the switch
// from the closed loop stalls the first packets of a window for up to ms
// (churn_newflows) while the router catches up on timers.
constexpr double kPacedWarmupS = 0.02;

// A packet counts as late when the generator handed it over more than
// kLateNs after its due time.
constexpr std::int64_t kLateNs = 10'000;

// Gate and pipeline cycle histograms, merged over every stack that
// forwarded.
struct GateHists {
  telemetry::LatencyHistogram ipopt, ipsec, stats, sched, pipeline;
  void merge(const telemetry::Telemetry& tel);
  void merge(const GateHists& o);
};

// Per-layer counters summed over the closed-loop windows (deltas of
// snapshots taken around each window).
struct LayerAcc {
  core::CoreCounters core{};
  aiu::FlowTable::Stats flows{};
  std::uint64_t pool_allocs{0}, pool_hits{0};
  GateHists gates;
  void add(const core::CoreCounters& a, const core::CoreCounters& b,
           const aiu::FlowTable::Stats& fa, const aiu::FlowTable::Stats& fb,
           const pkt::PoolStats& pa, const pkt::PoolStats& pb);
  void report(Result& r) const;
};

// Everything both workload runners measure the same way, turned into metrics by
// report_common.
struct RunTotals {
  double window_q{0.5};  // WorkloadSpec::window_q
  std::vector<double> pps;         // per closed-loop window, tracing off
  // Forwarding ns per packet of each closed-loop sub-window, tracing off.
  std::vector<double> fwd_ns_per_pkt;
  std::vector<double> pps_traced;  // trace mode: windows with spans on
  std::vector<double> setup_s;
  SubWindowStats lat;    // due time -> tx handler, us
  SubWindowStats late;   // due time -> handed to the router, us
  std::uint64_t late_count{0};
  const ControlDriver* ctrl{nullptr};
  std::uint64_t injected{0};
  std::uint64_t received{0};
  std::uint64_t forwarded{0};
  std::uint64_t delivered{0};
  std::uint64_t nic_drops{0};
  std::uint64_t misroutes{0};
  std::uint64_t samples_checked{0};
  std::uint64_t table_probes{0};
  std::uint64_t table_bad{0};
  bool stats_conserved{true};
};
void report_common(const RunTotals& t, Result& r);

// Replays of single module calls on the workload's own packets, timed from
// the benchmark (ns per call). Each runs on the thread that owns the
// structure it reads.
struct Replay {
  std::vector<pkt::PacketPtr> pkts;  // fresh packets, keys not yet parsed
  explicit Replay(Traffic& t, std::size_t n = 4096) { t.fill(pkts, n); }
  double validate_ns();  // sanitize_packet + extract_flow_key (parses keys)
  double flow_hit_ns(aiu::FlowTable& ft, netbase::SimTime now) const;
  double classify_ns(aiu::Aiu& a) const;  // per (key, input gate) lookup
  double route_lookup_ns(const route::RoutingTable& t) const;
  // DRR twin: enqueue/dequeue in bursts of 32 with one soft slot per flow.
  std::pair<double, double> drr_ns();
  // StatsInstance::flow_removed on a twin holding `flows` flow counters.
  double flow_removed_ns(std::size_t flows) const;
};

// The TSC rate (ns per cycle) since (ns0, c0), to turn gate cycles into ns.
double ns_per_cycle(std::int64_t ns0, std::uint64_t c0);

// core.unattributed_ns: core.process_ns minus the replayed children
// (validate, flow lookup, classification weighted by the miss share, the
// stats plugin's flow removal weighted by LRU recycles, route lookup, the
// gates' telemetry means and, with DRR, its enqueue). Fills the ledger.
void attribute_core(Result& r, bool drr, double ns_per_cyc);

// Writes the span log (trace mode) and keeps its self-time table for the
// ledger.
void finish_spans(const Args& a, const SpanLog& spans, Result& r);

Result run_single(const Args& a, const WorkloadSpec& w);
Result run_sharded(const Args& a, const WorkloadSpec& w);
// Runs sharded_multiq's closed loop for `secs` (traced) and overwrites the
// parallel.* and io.* metrics in `r` with the sharded path's.
void sharded_probe(const Args& a, double secs, Result& r);

}  // namespace rb
