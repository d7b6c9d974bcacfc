#include "stack.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "pkt/builder.hpp"
#include "pkt/sanitize.hpp"
#include "telemetry/cycles.hpp"

namespace rb {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t v4(const netbase::IpPrefix& p) {
  return static_cast<std::uint32_t>(p.addr.v.lo);
}

// Keeps replayed lookups from being optimized away.
volatile std::uintptr_t g_sink;

}  // namespace

// Control-op intervals are in packets, so a run of fixed length performs a
// number of ops proportional to the workload's packet rate: each interval
// below gives tens of thousands of route ops (three per update burst),
// hundreds of filter batches and about a hundred upgrade ping-pongs or more
// in a 30-second run on a 4-CPU host, enough sub-windows for the
// sub-window estimators (stack.hpp).
WorkloadSpec workload_spec(const std::string& name, bool short_mode) {
  WorkloadSpec w;
  w.name = name;
  if (name == "cached_small" || name == "sharded_multiq") {
    w.route_engine = "bsl";
    w.drr = true;
    w.flows = 4096;
    w.zipf = name == "cached_small" ? 1.0 : 1.1;
    w.train_min = w.train_max = 4;
    // Enough base routes that every length of the 16..24 band is present
    // whatever the seed: bsl rebuilds one table per length, so a seed with
    // fewer lengths made every route update cheaper.
    w.base_prefixes = 64;
    w.base_filters = 512;
    w.filter_ops = 65536;
    w.route_ops = 98304;
    if (name == "cached_small") {
      w.probe_sharded = true;
      w.paced_pps = 1.0e6;
      // Route ops close together, so a 1000-op sub-window spans tens of ms
      // of one control window, not seconds of several.
      w.ctrl = {128, 16384, 8192};
      w.window_q = 0.02;
    } else {
      w.workers = 2;
      w.paced_pps = 1.0e6;
      w.ctrl = {768, 65536, 32768};
    }
  } else if (name == "churn_newflows") {
    w.route_engine = "cpe";
    w.universe = std::size_t{1} << 20;
    w.train_min = 1;
    w.train_max = 2;
    w.base_prefixes = short_mode ? 20'000 : 1'000'000;
    w.prefix_min_len = 8;
    w.prefix_max_len = 28;
    w.route_ops = 98304;
    w.base_filters = short_mode ? 256 : 2048;
    w.filter_ops = 65536;
    w.max_flows = 4096;
    w.warm_packets = 65536;
    // 15% of the closed-loop rate: at 50% (15 kpps) queueing behind the
    // router's ms-long stalls set the p99 and moved it 0.3-1.4x between
    // runs.
    w.paced_pps = 5e3;
    // A packet costs tens of us here: 512-packet sub-windows are ~15 ms,
    // 1000-sample latency sub-windows 200 ms.
    w.pps_window_pkts = 512;
    w.lat_window = 1000;
    w.ctrl = {64, 1024, 8192};
    w.churn_during_pps = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  // Small stacks set up in milliseconds, so they take more repetitions for a
  // steady median; the 1M-prefix table takes seconds per repetition.
  w.setup_reps = short_mode ? 1 : w.base_prefixes > 100'000 ? 3 : 15;
  return w;
}

RoundPlan round_plan(const WorkloadSpec& w, double seconds) {
  const auto rounds = static_cast<std::size_t>(std::max(2.0, std::round(seconds)));
  const double r = seconds / double(rounds);
  if (w.churn_during_pps) return {rounds, 0.6 * r, 0.4 * r, 0};
  return {rounds, 0.5 * r, 0.25 * r, 0.25 * r};
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  tgen::RouteChurnSpec rs;
  rs.base_prefixes = w.base_prefixes;
  rs.ops = 0;
  rs.min_len = w.prefix_min_len;
  rs.max_len = w.prefix_max_len;
  rs.ifaces = kPorts;
  rs.seed = mix(seed ^ 0x7217);
  in.routes = tgen::route_churn(rs);

  // A flow bound to the DRR instance at the sched gate leaves through the
  // port that instance serves, whatever the route says, so for the fixed
  // flow sets no route may overlap the traffic's prefix.
  const netbase::IpPrefix tr = traffic_route(w);
  auto overlaps = [&](const netbase::IpPrefix& p) {
    return w.flows && (p.covers(tr) || tr.covers(p));
  };
  for (std::size_t i = in.routes.base.size(); i-- > 0;)
    if (overlaps(in.routes.base[i])) {
      in.routes.base.erase(in.routes.base.begin() + std::ptrdiff_t(i));
      in.routes.base_hops.erase(in.routes.base_hops.begin() + std::ptrdiff_t(i));
    }

  // The update stream: add a fresh prefix, move it to another next hop,
  // withdraw it. The table returns to its base after every third op, so the
  // cost of an update does not drift with how many a run gets through.
  in.routes.batches.clear();
  std::unordered_set<std::uint64_t> taken;
  auto key = [](const netbase::IpPrefix& p) {
    return (std::uint64_t{v4(p)} << 8) | p.len;
  };
  for (const auto& p : in.routes.base) taken.insert(key(p));
  netbase::Rng route_rng(mix(seed ^ 0x7218));
  auto hop = [&] {
    return route::NextHop{static_cast<pkt::IfIndex>(route_rng.below(kPorts)), {}};
  };
  // Updates touch /20../24 prefixes, the bulk of real update streams; a
  // short prefix costs the expanding engines (cpe) orders of magnitude more
  // than a long one, and a mix of both made the median update cost jump
  // from seed to seed.
  const unsigned op_min = std::max(w.prefix_min_len, 20u);
  const unsigned op_max = std::min(w.prefix_max_len, 24u);
  while (in.routes.batches.size() < w.route_ops) {
    const auto len = static_cast<unsigned>(route_rng.range(op_min, op_max));
    const netbase::IpPrefix p(netbase::IpAddr(netbase::Ipv4Addr(
                                  static_cast<std::uint32_t>(route_rng.next()))),
                              len);
    if (overlaps(p) || !taken.insert(key(p)).second) continue;
    using K = route::RouteOp::Kind;
    in.routes.batches.push_back({{K::add, p, hop()}});
    in.routes.batches.push_back({{K::add, p, hop()}});
    in.routes.batches.push_back({{K::withdraw, p, {}}});
  }

  // The filter stream keeps the table's size stationary, as the route
  // stream does: batch k adds kFilterBatch/2 fresh random filters and
  // removes the ones batch k-1 added. (tgen::filter_churn's random-victim
  // removes let the live count random-walk by hundreds over a run, and the
  // batch cost followed it from seed to seed.) Every filter is distinct,
  // and none repeats one every stack holds: removing a copy of the stats
  // gate's plain "10.0.0.0/8 * udp" catch-all took the catch-all with it.
  std::unordered_set<std::string> seen;
  for (const aiu::Filter& f : fixed_gate_filters()) seen.insert(f.to_string());
  auto fresh_only = [&](std::vector<aiu::Filter> v) {
    std::erase_if(v, [&](const aiu::Filter& f) { return !seen.insert(f.to_string()).second; });
    return v;
  };
  tgen::FilterSetSpec fs;
  fs.count = w.base_filters;
  fs.seed = mix(seed ^ 0xf11);
  in.filters.base = fresh_only(tgen::random_filters(fs));
  constexpr std::size_t kHalf = kFilterBatch / 2;
  fs.count = w.filter_ops / 2 + kHalf;
  fs.seed = mix(seed ^ 0xf12);
  const std::vector<aiu::Filter> fresh = fresh_only(tgen::random_filters(fs));
  for (std::size_t i = 0; i + kHalf <= fresh.size(); i += kHalf) {
    std::vector<tgen::FilterChurnOp> batch;
    for (std::size_t j = i; j < i + kHalf; ++j) batch.push_back({false, fresh[j]});
    if (i >= kHalf)
      for (std::size_t j = i - kHalf; j < i; ++j) batch.push_back({true, fresh[j]});
    in.filters.batches.push_back(std::move(batch));
  }

  netbase::Rng rng(mix(seed ^ 0xf10));
  for (std::size_t i = 0; i < w.flows; ++i) {
    Flow f;
    f.src = 0x0A000000u | static_cast<std::uint32_t>(rng.below(1u << 24));
    f.dst = 0x14000000u | static_cast<std::uint32_t>(rng.below(1u << 24));
    f.sport = static_cast<std::uint16_t>(rng.range(1024, 65535));
    f.dport = static_cast<std::uint16_t>(rng.range(1, 1023));
    in.flows.push_back(f);
  }
  return in;
}

std::vector<aiu::Filter> fixed_gate_filters() {
  std::vector<aiu::Filter> out;
  for (std::size_t i = 0; i < kPaddingFilters; ++i) {
    aiu::Filter f;
    f.src = *netbase::IpPrefix::parse("99.77." + std::to_string(i) + ".0/24");
    f.proto = aiu::ProtoSpec::exact(6);
    out.push_back(f);
  }
  // Every workload's sources are in 10.0.0.0/8.
  out.push_back(*aiu::Filter::parse("10.0.0.0/8 * udp * * *"));
  return out;
}

netbase::IpPrefix traffic_route(const WorkloadSpec& w) {
  return *netbase::IpPrefix::parse(w.flows ? "20.0.0.0/8" : "0.0.0.0/0");
}

pkt::IfIndex traffic_port(const WorkloadSpec& w) { return w.flows ? 1 : 0; }

std::unique_ptr<plugin::PluginInstance> EmptyPlugin::make_instance(
    const plugin::Config&) {
  struct Empty final : plugin::PluginInstance {
    plugin::Verdict handle_packet(pkt::Packet&, void**) override {
      return plugin::Verdict::cont;
    }
  };
  return std::make_unique<Empty>();
}

core::RouterKernel::Options kernel_options(const WorkloadSpec& w) {
  core::RouterKernel::Options o;
  o.route_engine = w.route_engine;
  o.aiu.max_flows = w.max_flows;
  o.core.input_gates = {plugin::PluginType::ipopt, plugin::PluginType::ipsec,
                        plugin::PluginType::stats};
  return o;
}

Traffic::Traffic(const WorkloadSpec& w, const Inputs& in, std::uint64_t seed)
    : w_(w), in_(in), seed_(mix(seed ^ 0x7aff1c)), rng_(seed_) {
  if (w.flows) zipf_ = std::make_unique<tgen::ZipfSampler>(w.flows, w.zipf, seed_);
}

Flow Traffic::universe_flow(std::uint64_t id) const {
  const std::uint64_t h = mix(seed_ ^ (id * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t h2 = mix(h);
  Flow f;
  f.src = 0x0A000000u | static_cast<std::uint32_t>(h & 0xffffff);
  // Destinations spread over the table: a random host inside a random base
  // prefix (or anywhere, when the table is empty).
  if (!in_.routes.base.empty()) {
    const auto& p = in_.routes.base[(h >> 24) % in_.routes.base.size()];
    const std::uint32_t mask =
        p.len == 0 ? 0 : ~std::uint32_t{0} << (32 - p.len);
    f.dst = (v4(p) & mask) | (static_cast<std::uint32_t>(h2) & ~mask);
  } else {
    f.dst = static_cast<std::uint32_t>(h2);
  }
  f.sport = static_cast<std::uint16_t>(1024 + (h2 >> 32) % 60000);
  f.dport = static_cast<std::uint16_t>(1 + (h2 >> 48) % 1023);
  return f;
}

Flow Traffic::next() {
  if (left_ == 0) {
    cur_ = zipf_ ? in_.flows[zipf_->next()]
                 : universe_flow(rng_.below(w_.universe));
    left_ = w_.train_min +
            static_cast<unsigned>(rng_.below(w_.train_max - w_.train_min + 1));
  }
  --left_;
  return cur_;
}

void Traffic::fill(std::vector<pkt::PacketPtr>& out, std::size_t n) {
  out.clear();
  for (std::size_t i = 0; i < n; ++i) out.push_back(build_packet(next()));
}

ControlDriver::ControlDriver(ctrl::ControlPlane& cp, const WorkloadSpec& w,
                             const Inputs& in, StackIds ids, LpmOracle& oracle,
                             SpanLog& spans, route::RoutingTable* apply_table,
                             bool twin)
    : cp_(cp),
      w_(w),
      in_(in),
      oracle_(oracle),
      spans_(spans),
      apply_table_(apply_table),
      twin_(twin),
      cur_(ids.stats_a),
      other_(ids.stats_b) {}

void ControlDriver::route_op() {
  // One update burst: the add, next-hop change and withdraw of one prefix,
  // back to back, each its own single-op batch. The change and withdraw
  // find the prefix's table path warm, as in a real update burst; spread
  // apart, every op paid cold misses into a DRAM-sized table and the
  // median moved with the host's memory latency. The table is back at its
  // base after every burst, so the stream starts over when a run gets
  // through all of it.
  for (int k = 0; k < 3 && !in_.routes.batches.empty(); ++k) {
    if (route_i_ == in_.routes.batches.size()) route_i_ = 0;
    const auto& batch = in_.routes.batches[route_i_++];
    attempted += batch.size();
    auto timed_apply = [&](route::RoutingTable& t) {
      ScopedSpan s(spans_, "route.apply_batch");
      const std::int64_t t0 = now_ns();
      failed += t.apply_batch(batch).failed;
      route_apply_ns.push_back(double(now_ns() - t0));
    };
    if (apply_table_ && !twin_ && route_i_ % 2 == 0) {
      timed_apply(*apply_table_);
    } else {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan s(spans_, "ctrl.apply_route_batch");
        failed += cp_.apply_route_batch(batch).failed;
      }
      route_ns.push_back(now_ns() - t0);
      if (apply_table_ && twin_) {
        // A sibling of the ControlPlane span, not a child: it runs after it.
        const std::uint64_t f = failed;
        timed_apply(*apply_table_);
        failed = f;  // the twin's outcome is not the router's
      }
    }
    oracle_.apply(batch);
  }
}

void ControlDriver::filter_batch() {
  if (filter_i_ >= in_.filters.batches.size()) return;
  const auto& batch = in_.filters.batches[filter_i_++];
  std::vector<ctrl::FilterSpecOp> ops;
  ops.reserve(batch.size());
  for (const auto& op : batch)
    ops.push_back({op.remove ? aiu::Aiu::FilterOp::Kind::remove
                             : aiu::Aiu::FilterOp::Kind::add,
                   "stats", cur_, op.filter});
  const auto before = cp_.stats();
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan s(spans_, "ctrl.apply_filter_batch");
    cp_.apply_filter_batch(ops);
  }
  const std::int64_t dt = now_ns() - t0;
  filter_batch_ns.push_back(double(dt));
  filter_ops += ops.size();
  attempted += ops.size();
  failed += cp_.stats().filter_failures - before.filter_failures;
  flows_invalidated += cp_.stats().flows_invalidated - before.flows_invalidated;
}

void ControlDriver::upgrade() {
  // One sample is a ping-pong, a -> b then b -> a, reported per upgrade:
  // the stats plugin's migration cost depends on how the two instances'
  // flow lists are ordered, and a round trip sees both orders.
  const auto before = cp_.stats();
  const std::int64_t t0 = now_ns();
  for (int leg = 0; leg < 2; ++leg) {
    ScopedSpan s(spans_, "ctrl.upgrade");
    if (!netbase::ok(cp_.upgrade("stats", cur_, other_, false))) ++failed;
    std::swap(cur_, other_);
  }
  upgrade_ms.push_back(double(now_ns() - t0) / 2e6);
  flows_rebound.push_back(
      double(cp_.stats().upgrade_flows_rebound - before.upgrade_flows_rebound) / 2);
  attempted += 2;
}

void ControlDriver::settle() {
  for (int leg = 0; leg < 2; ++leg) {
    cp_.upgrade("stats", cur_, other_, false);
    std::swap(cur_, other_);
  }
}

std::uint64_t check_samples(TxSink& sink, const LpmOracle& oracle,
                            std::uint64_t& checked) {
  std::uint64_t bad = 0;
  for (const auto& [dst, oif] : sink.samples) {
    const auto want = oracle.lookup(dst);
    if (!want || *want != oif) ++bad;
  }
  checked += sink.samples.size();
  sink.samples.clear();
  return bad;
}

std::uint64_t verify_table(const route::RoutingTable& table,
                           const LpmOracle& oracle, const Inputs& in,
                           std::uint64_t seed, std::size_t probes) {
  netbase::Rng rng(mix(seed ^ 0x7ab1e));
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < probes; ++i) {
    auto dst = static_cast<std::uint32_t>(rng.next());
    if (i % 2 && !in.routes.base.empty()) {
      const auto& p = in.routes.base[rng.below(in.routes.base.size())];
      const std::uint32_t mask =
          p.len == 0 ? 0 : ~std::uint32_t{0} << (32 - p.len);
      dst = (v4(p) & mask) | (dst & ~mask);
    }
    const auto want = oracle.lookup(dst);
    const route::NextHop* got =
        table.lookup(netbase::IpAddr(netbase::Ipv4Addr(dst)));
    if ((got != nullptr) != want.has_value() ||
        (got && got->out_iface != *want))
      ++bad;
  }
  return bad;
}

std::unique_ptr<route::RoutingTable> make_twin(const WorkloadSpec& w,
                                               const Inputs& in) {
  auto t = std::make_unique<route::RoutingTable>(w.route_engine);
  t->add(traffic_route(w), {traffic_port(w), {}});
  for (std::size_t i = 0; i < in.routes.base.size(); ++i)
    t->add(in.routes.base[i], in.routes.base_hops[i]);
  t->prepare();
  return t;
}

void build_oracle(LpmOracle& o, const WorkloadSpec& w, const Inputs& in,
                  bool fault) {
  auto port = [&](pkt::IfIndex p, bool wrong) {
    return wrong ? static_cast<pkt::IfIndex>((p + 1) % kPorts) : p;
  };
  // The fault moves the route(s) carrying the traffic: the traffic route
  // for a fixed flow set, the base table for a hashed universe (whose
  // destinations all fall inside base prefixes).
  o.set(traffic_route(w), port(traffic_port(w), fault));
  for (std::size_t i = 0; i < in.routes.base.size(); ++i)
    o.set(in.routes.base[i],
          port(in.routes.base_hops[i].out_iface, fault && !w.flows));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void SubWindowStats::add(const std::vector<std::int64_t>& v, double scale) {
  samples += v.size() > skip ? v.size() - skip : 0;
  for (std::size_t i = skip; i + n <= v.size(); i += n) {
    std::vector<double> w(v.begin() + std::ptrdiff_t(i),
                          v.begin() + std::ptrdiff_t(i + n));
    for (auto& x : w) x *= scale;
    p50.push_back(quantile(w, 0.50));
    p99.push_back(quantile(w, 0.99));
  }
}

double windowed(const std::vector<double>& v, std::size_t n, double q,
                double across) {
  std::vector<double> sub;
  for (std::size_t i = 0; i + n <= v.size(); i += n)
    sub.push_back(quantile(std::vector<double>(v.begin() + std::ptrdiff_t(i),
                                               v.begin() + std::ptrdiff_t(i + n)),
                           q));
  return quantile(std::move(sub), across);
}

// Control ops per sub-window: route ops come tens of thousands per run
// (1000 keeps ten beyond each p99), filter batches hundreds; upgrade
// ping-pongs, tens to hundreds, are taken one by one.
constexpr std::size_t kRouteWindow = 1000;
constexpr std::size_t kFilterWindow = 8;

void report_common(const RunTotals& t, Result& r) {
  const ControlDriver& c = *t.ctrl;
  const double wq = t.window_q;
  // Every timing metric is a sub-window estimate (stack.hpp). Closed-loop
  // sub-windows are already means (ns per packet over a sub-window).
  const double ns_per_pkt = windowed(t.fwd_ns_per_pkt, 1, 0.5, wq);
  r.e2e["pps"] = ns_per_pkt > 0 ? 1e9 / ns_per_pkt : 0;
  r.e2e["lat_p50_us"] = quantile(t.lat.p50, wq);
  const std::vector<double> route_ns(c.route_ns.begin(), c.route_ns.end());
  r.e2e["route_update_p50_us"] = windowed(route_ns, kRouteWindow, 0.5, wq) / 1e3;
  // The tails are printed, not metrics: runs the host kept in its slow
  // phase move a p99 far more than a median, and across ten-seed sets
  // their IQR reached 0.2-0.4 of the median (METRICS.md).
  r.notes.push_back(
      "tails: lat_p99_us=" + std::to_string(quantile(t.lat.p99, wq)) +
      " route_update_p99_us=" +
      std::to_string(windowed(route_ns, kRouteWindow, 0.99, wq) / 1e3));
  // Per batch: batches that invalidate many cached flows cost far more than
  // the rest; a sub-window's median is a typical batch.
  const double batch_ns = windowed(c.filter_batch_ns, kFilterWindow, 0.5, wq);
  r.e2e["filter_ops_per_s"] = batch_ns > 0 ? double(kFilterBatch) / (batch_ns / 1e9) : 0;
  r.e2e["upgrade_stall_ms"] = quantile(c.upgrade_ms, wq);
  r.e2e["setup_s"] = median(t.setup_s);
  r.e2e["peak_rss_mb"] = peak_rss_mb();

  // Failures: packets that did not reach the tx handler, received/forwarded
  // counters that disagree with what was injected and delivered, sampled
  // packets on the wrong port, table probes that disagree with the oracle,
  // failed control ops and a broken stats-total conservation.
  auto gap = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
  std::uint64_t failed = gap(t.injected, t.delivered) +
                         gap(t.injected, t.received + t.nic_drops) +
                         gap(t.forwarded, t.delivered) + t.misroutes +
                         t.table_bad + c.failed + (t.stats_conserved ? 0 : 1);
  r.attempted = t.injected + t.table_probes + c.attempted;
  r.failed = failed;
  r.misroutes = t.misroutes + t.table_bad;
  r.e2e["ok_share"] = 1.0 - double(failed) / double(std::max<std::uint64_t>(1, r.attempted));

  r.layer["aiu.filter_batch_ns"] = batch_ns / double(kFilterBatch);
  r.layer["aiu.flows_invalidated_per_op"] =
      c.filter_ops ? double(c.flows_invalidated) / double(c.filter_ops) : 0;
  r.layer["aiu.flows_rebound_per_upgrade"] = median(c.flows_rebound);
  r.layer["route.apply_ns"] = median(c.route_apply_ns);
  r.layer["ctrl.overhead_ns"] = median(route_ns) - r.layer["route.apply_ns"];
  r.layer["tgen.late_share"] =
      t.late.samples ? double(t.late_count) / double(t.late.samples) : 0;
  r.layer["tgen.late_p99_us"] = quantile(t.late.p99, wq);
  r.layer["tgen.lat_samples"] = double(t.lat.samples);
  const double untraced = median(t.pps), traced = median(t.pps_traced);
  r.layer["trace.overhead_share"] = untraced > 0 ? 1.0 - traced / untraced : 0;

  r.notes.push_back(
      "checks: injected=" + std::to_string(t.injected) +
      " received=" + std::to_string(t.received) +
      " forwarded=" + std::to_string(t.forwarded) +
      " delivered=" + std::to_string(t.delivered) +
      " nic_drops=" + std::to_string(t.nic_drops) +
      " egress_checked=" + std::to_string(t.samples_checked) +
      " misroutes=" + std::to_string(t.misroutes) +
      " table_probes=" + std::to_string(t.table_probes) +
      " table_bad=" + std::to_string(t.table_bad) +
      " ctrl_ops=" + std::to_string(c.attempted) +
      " ctrl_failed=" + std::to_string(c.failed) +
      " stats_conserved=" + (t.stats_conserved ? "yes" : "no") +
      " route_ops=" + std::to_string(c.route_ns.size()) +
      " filter_ops=" + std::to_string(c.filter_ops) +
      " upgrade_pingpongs=" + std::to_string(c.upgrade_ms.size()) +
      " lat_samples=" + std::to_string(t.lat.samples) +
      " lat_subwindows=" + std::to_string(t.lat.p99.size()) +
      " pps_windows=" + std::to_string(t.pps.size()) +
      " pps_subwindows=" + std::to_string(t.fwd_ns_per_pkt.size()));
  std::string windows = "pps by window:";
  for (double v : t.pps) windows += " " + std::to_string(static_cast<long long>(v));
  r.notes.push_back(windows);
}

namespace {

// Each replay runs kReplayReps times over the same packets and reports the
// median pass, so one descheduled pass does not set the number.
constexpr int kReplayReps = 5;

template <class Pass>
double median_pass(std::size_t calls, Pass&& pass) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    const std::int64_t t0 = now_ns();
    pass();
    ns.push_back(double(now_ns() - t0) / double(calls));
  }
  return median(ns);
}

}  // namespace

double Replay::validate_ns() {
  std::vector<double> ns;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    for (auto& p : pkts) p->key_valid = false;  // parse again, untimed reset
    const std::int64_t t0 = now_ns();
    for (auto& p : pkts) {
      pkt::sanitize_packet(*p);
      pkt::extract_flow_key(*p);
    }
    ns.push_back(double(now_ns() - t0) / double(pkts.size()));
  }
  return median(ns);
}

double Replay::flow_hit_ns(aiu::FlowTable& ft, netbase::SimTime now) const {
  std::int64_t sink = 0;
  const double ns = median_pass(pkts.size(), [&] {
    for (const auto& p : pkts) sink += ft.lookup(p->key, now);
  });
  g_sink = static_cast<std::uintptr_t>(sink);
  return ns;
}

double Replay::classify_ns(aiu::Aiu& a) const {
  using plugin::PluginType;
  const PluginType gates[] = {PluginType::ipopt, PluginType::ipsec,
                              PluginType::stats};
  std::uintptr_t sink = 0;
  const double ns = median_pass(pkts.size() * 3, [&] {
    for (const auto& p : pkts)
      for (PluginType g : gates)
        sink += reinterpret_cast<std::uintptr_t>(a.filter_table(g)->lookup(p->key));
  });
  g_sink = sink;
  return ns;
}

double Replay::route_lookup_ns(const route::RoutingTable& t) const {
  std::uintptr_t sink = 0;
  const double ns = median_pass(pkts.size(), [&] {
    for (const auto& p : pkts)
      sink += reinterpret_cast<std::uintptr_t>(t.lookup(p->key.dst));
  });
  g_sink = sink;
  return ns;
}

std::pair<double, double> Replay::drr_ns() {
  struct KeyHash {
    std::size_t operator()(const pkt::FlowKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash());
    }
  };
  std::unordered_map<pkt::FlowKey, std::size_t, KeyHash> slot_of;
  std::vector<std::size_t> slot(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i)
    slot[i] = slot_of.emplace(pkts[i]->key, slot_of.size()).first->second;
  // Declared before the scheduler: it clears the slots it holds on exit.
  std::vector<void*> soft(slot_of.size(), nullptr);
  sched::DrrInstance drr({1500, 128, 1});
  std::vector<double> enq_v, deq_v;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    double enq = 0, deq = 0;
    for (std::size_t i = 0; i < pkts.size(); i += 32) {
      const std::size_t m = std::min<std::size_t>(32, pkts.size() - i);
      const std::int64_t t0 = now_ns();
      for (std::size_t q = 0; q < m; ++q)
        drr.enqueue(std::move(pkts[i + q]), &soft[slot[i + q]], 0);
      const std::int64_t t1 = now_ns();
      for (std::size_t q = 0; q < m; ++q) pkts[i + q] = drr.dequeue(0);
      enq += double(t1 - t0);
      deq += double(now_ns() - t1);
    }
    enq_v.push_back(enq / double(pkts.size()));
    deq_v.push_back(deq / double(pkts.size()));
  }
  return {median(enq_v), median(deq_v)};
}

double Replay::flow_removed_ns(std::size_t flows) const {
  // A twin instance holding the live instance's `flows` per-flow counters
  // plus the ones the passes remove (each pass a different random sample).
  constexpr std::size_t kRemovals = 256;
  const std::size_t n = flows + kRemovals * kReplayReps;
  std::vector<void*> soft(n, nullptr);
  stats::StatsInstance twin(stats::StatsInstance::Mode::packets);
  for (auto& slot : soft) twin.handle_packet(*pkts.front(), &slot);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  netbase::Rng rng(n);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::size_t next = 0;
  return median_pass(kRemovals, [&] {
    for (std::size_t k = 0; k < kRemovals; ++k) {
      const std::size_t i = order[next++];
      twin.flow_removed(soft[i]);
      soft[i] = nullptr;
    }
  });
}

void GateHists::merge(const telemetry::Telemetry& tel) {
  using plugin::PluginType;
  ipopt.merge(tel.gate_hist(PluginType::ipopt));
  ipsec.merge(tel.gate_hist(PluginType::ipsec));
  stats.merge(tel.gate_hist(PluginType::stats));
  sched.merge(tel.gate_hist(PluginType::sched));
  pipeline.merge(tel.pipeline_hist());
}

void GateHists::merge(const GateHists& o) {
  ipopt.merge(o.ipopt);
  ipsec.merge(o.ipsec);
  stats.merge(o.stats);
  sched.merge(o.sched);
  pipeline.merge(o.pipeline);
}

void LayerAcc::add(const core::CoreCounters& a, const core::CoreCounters& b,
                   const aiu::FlowTable::Stats& fa,
                   const aiu::FlowTable::Stats& fb, const pkt::PoolStats& pa,
                   const pkt::PoolStats& pb) {
  core.received += b.received - a.received;
  core.gate_calls += b.gate_calls - a.gate_calls;
  core.gate_groups += b.gate_groups - a.gate_groups;
  core.gate_group_pkts += b.gate_group_pkts - a.gate_group_pkts;
  core.bursts += b.bursts - a.bursts;
  core.fused_bursts += b.fused_bursts - a.fused_bursts;
  for (std::size_t i = 0; i < std::size(core.drops); ++i)
    core.drops[i] += b.drops[i] - a.drops[i];
  flows.hits += fb.hits - fa.hits;
  flows.misses += fb.misses - fa.misses;
  flows.recycled += fb.recycled - fa.recycled;
  pool_allocs += pb.allocs - pa.allocs;
  pool_hits += pb.pool_hits - pa.pool_hits;
}

void LayerAcc::report(Result& r) const {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  auto& L = r.layer;
  const double rx = double(core.received);
  L["core.gate_calls_per_pkt"] = ratio(double(core.gate_calls), rx);
  L["core.group_pkts_per_call"] =
      ratio(double(core.gate_group_pkts), double(core.gate_groups));
  L["core.fused_share"] = ratio(double(core.fused_bursts), double(core.bursts));
  L["core.drops"] = double(core.total_drops());
  L["aiu.miss_share"] =
      ratio(double(flows.misses), double(flows.hits + flows.misses));
  L["aiu.recycles_per_pkt"] = ratio(double(flows.recycled), rx);
  L["pkt.pool_hit_share"] = ratio(double(pool_hits), double(pool_allocs));
  L["gate.ipopt_cycles"] = gates.ipopt.mean();
  L["gate.ipsec_cycles"] = gates.ipsec.mean();
  L["gate.stats_cycles"] = gates.stats.mean();
  L["gate.sched_cycles"] = gates.sched.mean();
  L["core.pipeline_cycles"] = gates.pipeline.mean();
  std::string drops;
  for (std::size_t i = 1; i < std::size(core.drops); ++i)
    if (core.drops[i])
      drops += " " + std::string(core::to_string(static_cast<core::DropReason>(i))) +
               "=" + std::to_string(core.drops[i]);
  if (!drops.empty()) r.notes.push_back("drops:" + drops);
}

void finish_spans(const Args& a, const SpanLog& spans, Result& r) {
  if (!spans.on()) return;
  r.span_self = spans.self_times();
  std::error_code ec;
  std::filesystem::create_directories(a.spans_dir, ec);
  const std::string path = a.spans_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".jsonl";
  if (spans.write(path))
    r.notes.push_back("spans: " + path);
  else
    r.notes.push_back("spans: could not write " + path);
}

double ns_per_cycle(std::int64_t ns0, std::uint64_t c0) {
  const double dc = double(telemetry::cycles() - c0);
  return dc > 0 ? double(now_ns() - ns0) / dc : 0;
}

void attribute_core(Result& r, bool drr, double ns_per_cyc) {
  auto& L = r.layer;
  const double miss = L["aiu.miss_share"];
  const double gates = (L["gate.ipopt_cycles"] + L["gate.ipsec_cycles"] +
                        L["gate.stats_cycles"]) *
                       ns_per_cyc;
  r.ledger = {
      {"pkt.validate", L["pkt.validate_ns"]},
      {"aiu.flow_lookup", L["aiu.flow_hit_ns"]},
      {"aiu.classify x 3 gates x miss share", 3 * miss * L["aiu.classify_ns"]},
      {"stats.flow_removed x recycles per pkt",
       L["aiu.recycles_per_pkt"] * L["stats.flow_removed_ns"]},
      {"route.lookup", L["route.lookup_ns"]},
      {"gates (telemetry means)", gates},
      {"sched.enqueue (DRR twin)", drr ? L["sched.enqueue_ns"] : 0},
  };
  double children = 0;
  for (const auto& [row, ns] : r.ledger) children += ns;
  L["core.unattributed_ns"] = L["core.process_ns"] - children;
  r.ledger.push_back({"core.unattributed", L["core.unattributed_ns"]});
}


}  // namespace rb
