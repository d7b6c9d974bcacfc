// Differential churn proof for the live control plane (docs/control_plane.md):
// while traffic keeps flowing, batched route updates, batched filter churn
// and versioned plugin upgrades must never misroute, misclassify or drop a
// legitimate packet — on a single stack (ChurnDiff) and across sharded
// datapaths with real worker threads (ChurnShard, TSan lane). The
// property sweeps (RouteChurnProperty) check the incremental routing table
// against a from-scratch rebuild oracle across many seeds; every sweep is
// seeded, so a failing seed replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bmp/cpe.hpp"
#include "bmp/waldvogel.hpp"
#include "core/router.hpp"
#include "ctrl/control_plane.hpp"
#include "mgmt/pmgr.hpp"
#include "mgmt/register_all.hpp"
#include "mgmt/rplib.hpp"
#include "netbase/memaccess.hpp"
#include "parallel/sharded_datapath.hpp"
#include "pkt/builder.hpp"
#include "stats/stats_plugin.hpp"
#include "tgen/churn.hpp"
#include "tgen/workload.hpp"

namespace rp {
namespace {

using netbase::IpAddr;
using netbase::IpPrefix;
using netbase::Rng;
using netbase::Status;
using netbase::U128;
using plugin::PluginType;

// ---------------------------------------------------------------------------
// Brute-force longest-prefix-match oracle over the test's own live set.

struct RouteOracle {
  // (masked key, plen) -> out iface.
  std::map<std::pair<U128, std::uint8_t>, pkt::IfIndex> live;

  void add(const IpPrefix& p, pkt::IfIndex iface) {
    live[{p.addr.key() & U128::prefix_mask(p.len), p.len}] = iface;
  }
  void apply(const route::RouteOp& op) {
    const auto k = std::make_pair(
        op.prefix.addr.key() & U128::prefix_mask(op.prefix.len),
        op.prefix.len);
    if (op.kind == route::RouteOp::Kind::add)
      live[k] = op.hop.out_iface;
    else
      live.erase(k);
  }
  std::optional<pkt::IfIndex> lookup(const IpAddr& dst) const {
    const U128 key = dst.key();
    std::optional<pkt::IfIndex> best;
    int best_len = -1;
    for (const auto& [k, iface] : live) {
      if (static_cast<int>(k.second) > best_len &&
          (key & U128::prefix_mask(k.second)) == k.first) {
        best = iface;
        best_len = k.second;
      }
    }
    return best;
  }
};

// A v4 address inside `p` with random host bits.
std::uint32_t addr_in(const IpPrefix& p, Rng& rng) {
  const std::uint32_t base = p.addr.v4().v;
  const std::uint32_t host_bits = 32u - p.len;
  const std::uint32_t mask =
      host_bits >= 32 ? 0xffffffffu : ((1u << host_bits) - 1);
  return base | (static_cast<std::uint32_t>(rng.next()) & mask);
}

// ---------------------------------------------------------------------------
// Property sweep: incremental table == from-scratch rebuild, all engines.

class RouteChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteChurnProperty, IncrementalTableMatchesFreshRebuild) {
  const std::uint64_t seed = GetParam();
  for (const char* engine : {"cpe", "bsl", "patricia"}) {
    SCOPED_TRACE(std::string("engine=") + engine +
                 " seed=" + std::to_string(seed));
    tgen::RouteChurnSpec spec;
    spec.base_prefixes = 300;
    spec.ops = 600;
    spec.batch_size = 64;
    spec.min_len = 12;
    spec.max_len = 28;
    spec.seed = seed;
    const tgen::RouteChurn churn = tgen::route_churn(spec);

    route::RoutingTable inc(engine);
    RouteOracle oracle;
    for (std::size_t i = 0; i < churn.base.size(); ++i) {
      ASSERT_EQ(inc.add(churn.base[i], churn.base_hops[i]), Status::ok);
      oracle.add(churn.base[i], churn.base_hops[i].out_iface);
    }

    Rng rng(seed ^ 0x9d5f);
    for (std::size_t b = 0; b < churn.batches.size(); ++b) {
      const auto& batch = churn.batches[b];
      const route::RouteBatchResult res = inc.apply_batch(batch);
      EXPECT_EQ(res.failed, 0u) << "batch " << b;
      for (const auto& op : batch) oracle.apply(op);
      ASSERT_EQ(inc.size(), oracle.live.size()) << "batch " << b;

      // Rebuild an independent table from the oracle's live set and compare
      // both against each other and against brute force.
      route::RoutingTable fresh(engine);
      for (const auto& [k, iface] : oracle.live) {
        IpAddr a;
        a.v = k.first >> 96;  // v4 keys are left-aligned
        ASSERT_EQ(fresh.add(IpPrefix(a, k.second), {iface, {}}), Status::ok);
      }

      std::vector<std::uint32_t> probes;
      for (int i = 0; i < 64; ++i)
        probes.push_back(static_cast<std::uint32_t>(rng.next()));
      for (const auto& [k, iface] : oracle.live) {
        if (!rng.chance(0.25)) continue;  // sample live prefixes
        IpAddr a;
        a.v = k.first >> 96;
        probes.push_back(addr_in(IpPrefix(a, k.second), rng));
      }
      for (std::uint32_t raw : probes) {
        const IpAddr dst{netbase::Ipv4Addr(raw)};
        const route::NextHop* hi = inc.lookup(dst);
        const route::NextHop* hf = fresh.lookup(dst);
        const auto expect = oracle.lookup(dst);
        ASSERT_EQ(hi != nullptr, expect.has_value())
            << "batch " << b << " dst " << dst.to_string();
        ASSERT_EQ(hf != nullptr, expect.has_value())
            << "batch " << b << " dst " << dst.to_string();
        if (expect) {
          EXPECT_EQ(hi->out_iface, *expect) << dst.to_string();
          EXPECT_EQ(hf->out_iface, *expect) << dst.to_string();
        }
      }
    }
  }
}

// The CPE trie's remove must be genuinely incremental: exact results under
// insert/remove/readd cycling with covering/covered prefixes, and zero
// from-scratch rebuilds.
TEST_P(RouteChurnProperty, CpeRemoveIsIncrementalAndExact) {
  const std::uint64_t seed = GetParam();
  bmp::CpeTrie trie(32);
  std::map<std::pair<U128, std::uint8_t>, bmp::LpmValue> raw;

  Rng rng(seed * 0x51ed'2705 + 3);
  // A small universe with many covering relations (short plens are common)
  // so removes constantly expose shallower ancestors. Includes the default
  // route, which exercises the level-0 special case.
  std::vector<std::pair<U128, std::uint8_t>> universe{{U128{}, 0}};
  while (universe.size() < 160) {
    const auto len = static_cast<std::uint8_t>(1 + rng.below(32));
    const IpAddr a{netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next()))};
    universe.emplace_back(a.key() & U128::prefix_mask(len), len);
  }

  auto brute = [&raw](U128 key) -> std::optional<bmp::LpmMatch> {
    std::optional<bmp::LpmMatch> best;
    for (const auto& [k, v] : raw) {
      if ((key & U128::prefix_mask(k.second)) != k.first) continue;
      if (!best || k.second >= best->plen) best = bmp::LpmMatch{v, k.second};
    }
    return best;
  };

  bmp::LpmValue next_value = 1;
  for (int op = 0; op < 1200; ++op) {
    const auto& [key, plen] = universe[rng.below(universe.size())];
    if (auto it = raw.find({key, plen}); it != raw.end()) {
      ASSERT_EQ(trie.remove(key, plen), Status::ok);
      raw.erase(it);
    } else {
      const bmp::LpmValue v = next_value++;
      ASSERT_EQ(trie.insert(key, plen, v), Status::ok);
      raw[{key, plen}] = v;
    }
    ASSERT_EQ(trie.size(), raw.size());
    for (int probe = 0; probe < 16; ++probe) {
      const auto& u = universe[rng.below(universe.size())];
      U128 key_p = u.first | (IpAddr{netbase::Ipv4Addr(
                                  static_cast<std::uint32_t>(rng.next()))}
                                  .key() &
                              ~U128::prefix_mask(u.second));
      bmp::LpmMatch got{};
      const bool hit = trie.lookup(key_p, got);
      const auto want = brute(key_p);
      ASSERT_EQ(hit, want.has_value()) << "op " << op << " seed " << seed;
      if (want) {
        ASSERT_EQ(got.plen, want->plen) << "op " << op << " seed " << seed;
        ASSERT_EQ(got.value, want->value) << "op " << op << " seed " << seed;
      }
    }
  }
  // The whole sweep must have stayed on the incremental path.
  EXPECT_EQ(trie.rebuild_count(), 0u);
}

// The bsl engine applies updates at present lengths in place: under
// add / withdraw / re-add-with-new-value cycling with many covering
// prefixes, every lookup stays exact and probes the same entries as a
// freshly built engine (so the marker set is the fresh build's), and the
// only from-scratch build is the first one.
TEST_P(RouteChurnProperty, BslUpdatesAtPresentLengthsAreIncrementalAndExact) {
  static_assert(sizeof(bmp::WaldvogelBsl) <= 128);
  const std::uint64_t seed = GetParam();
  for (const unsigned width : {32u, 128u}) {
    SCOPED_TRACE("width=" + std::to_string(width) +
                 " seed=" + std::to_string(seed));
    Rng rng(seed * 0x2545'f491 + width);
    auto random_key = [&rng, width] {
      return width == 32 ? U128{rng.next() & 0xffff'ffff'0000'0000ULL, 0}
                         : U128{rng.next(), rng.next()};
    };
    std::vector<std::uint8_t> lens;
    while (lens.size() < 10) {
      const auto len = static_cast<std::uint8_t>(1 + rng.below(width));
      if (std::find(lens.begin(), lens.end(), len) == lens.end())
        lens.push_back(len);
    }
    // Keys share a common root down to a random present length, so prefixes
    // nest: each one covers or is covered by many others.
    const U128 root = random_key();
    auto nested = [&](std::uint8_t len) {
      const U128 keep = U128::prefix_mask(lens[rng.below(lens.size())]);
      const U128 k = (root & keep) | (random_key() & ~keep);
      return std::make_pair(k & U128::prefix_mask(len), len);
    };

    // One anchor per length keeps the length set fixed; with the default
    // route they are never withdrawn.
    std::set<std::pair<U128, std::uint8_t>> anchors{{U128{}, 0}};
    for (const std::uint8_t len : lens) anchors.insert(nested(len));
    bmp::WaldvogelBsl bsl(width);
    std::map<std::pair<U128, std::uint8_t>, bmp::LpmValue> raw;
    bmp::LpmValue next_value = 1;
    for (const auto& [key, plen] : anchors) {
      raw[{key, plen}] = next_value;
      ASSERT_EQ(bsl.insert(key, plen, next_value++), Status::ok);
    }
    bsl.prepare();
    std::vector<std::pair<U128, std::uint8_t>> universe;
    while (universe.size() < 120) {
      const auto p = nested(lens[rng.below(lens.size())]);
      if (!anchors.count(p)) universe.push_back(p);
    }

    auto brute = [&raw](U128 key) -> std::optional<bmp::LpmMatch> {
      std::optional<bmp::LpmMatch> best;
      for (const auto& [k, v] : raw) {
        if ((key & U128::prefix_mask(k.second)) != k.first) continue;
        if (!best || k.second >= best->plen) best = bmp::LpmMatch{v, k.second};
      }
      return best;
    };

    for (int op = 0; op < 800; ++op) {
      const auto& [key, plen] = universe[rng.below(universe.size())];
      const auto it = raw.find({key, plen});
      if (it != raw.end() && rng.chance(0.7)) {
        ASSERT_EQ(bsl.remove(key, plen), Status::ok);
        raw.erase(it);
      } else {
        const bmp::LpmValue v = next_value++;
        ASSERT_EQ(bsl.insert(key, plen, v), Status::ok);
        raw[{key, plen}] = v;
      }
      bsl.prepare();
      ASSERT_EQ(bsl.size(), raw.size());

      bmp::WaldvogelBsl fresh(width);
      for (const auto& [k, v] : raw) fresh.insert(k.first, k.second, v);
      fresh.prepare();
      for (int probe = 0; probe < 16; ++probe) {
        const auto& u = universe[rng.below(universe.size())];
        const U128 key_p =
            probe % 4 == 0
                ? random_key()
                : u.first | (random_key() & ~U128::prefix_mask(u.second));
        bmp::LpmMatch got{};
        netbase::MemAccess::reset();
        const bool hit = bsl.lookup(key_p, got);
        const std::uint64_t accesses = netbase::MemAccess::total();
        bmp::LpmMatch unused{};
        netbase::MemAccess::reset();
        fresh.lookup(key_p, unused);
        ASSERT_EQ(accesses, netbase::MemAccess::total())
            << "op " << op << " probe " << probe;
        const auto want = brute(key_p);
        ASSERT_EQ(hit, want.has_value()) << "op " << op;
        if (want) {
          ASSERT_EQ(got.plen, want->plen) << "op " << op;
          ASSERT_EQ(got.value, want->value) << "op " << op;
        }
      }
    }
    EXPECT_EQ(bsl.rebuild_count(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Single-stack differential churn under live traffic (ctest label: churn).

class CountingInstance final : public plugin::PluginInstance {
 public:
  explicit CountingInstance(plugin::Verdict v) : verdict_(v) {}
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    ++calls;
    return verdict_;
  }
  std::uint64_t calls{0};

 private:
  plugin::Verdict verdict_;
};

class CountingPlugin final : public plugin::Plugin {
 public:
  CountingPlugin(std::string name, PluginType type, plugin::Verdict v)
      : Plugin(std::move(name), type), verdict_(v) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<CountingInstance>(verdict_);
  }

 private:
  plugin::Verdict verdict_;
};

pkt::PacketPtr packet_to(std::uint32_t dst_raw, std::uint16_t sport) {
  pkt::UdpSpec s;
  s.src = IpAddr(netbase::Ipv4Addr(10, 0, 0, 1));
  s.dst = IpAddr(netbase::Ipv4Addr(dst_raw));
  s.sport = sport;
  s.dport = 7777;
  s.payload_len = 64;
  return pkt::build_udp(s);
}

pkt::PacketPtr packet_for_key(const pkt::FlowKey& k) {
  tgen::FlowEndpoints ep;
  ep.src = k.src;
  ep.dst = k.dst;
  ep.proto = k.proto;
  ep.sport = k.sport;
  ep.dport = k.dport;
  ep.in_iface = k.in_iface;
  return tgen::packet_for(ep, 64);
}

// Route batches applied between bursts: every probe's egress interface must
// match the brute-force oracle for the then-current live set, and traffic
// under never-churned prefixes must never be dropped.
TEST(ChurnDiff, RouteBatchesNeverMisrouteLiveTraffic) {
  core::RouterKernel::Options opt;
  opt.route_engine = "cpe";
  core::RouterKernel kernel(opt);
  for (const char* n : {"if0", "if1", "if2", "if3"}) kernel.add_interface(n);
  ctrl::ControlPlane cp(kernel);

  // Pinned prefixes: 32 /16s under 200.0.0.0/8, never part of any batch, so
  // probes under them always have a route (a churn prefix may shadow one
  // with a longer match — the oracle predicts the winner either way).
  RouteOracle oracle;
  std::vector<IpPrefix> pinned;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const IpPrefix p(IpAddr(netbase::Ipv4Addr(200, std::uint8_t(i), 0, 0)),
                     16);
    const auto iface = static_cast<pkt::IfIndex>(1 + i % 3);
    ASSERT_EQ(kernel.routes().add(p, {iface, {}}), Status::ok);
    oracle.add(p, iface);
    pinned.push_back(p);
  }

  tgen::RouteChurnSpec spec;
  spec.base_prefixes = 400;
  spec.ops = 800;
  spec.batch_size = 64;
  spec.min_len = 17;  // longer than the pinned /16s: no alias can withdraw one
  spec.max_len = 28;
  spec.ifaces = 3;  // hops if0..if2 — all exist
  spec.seed = 77;
  const tgen::RouteChurn churn = tgen::route_churn(spec);
  {
    std::vector<route::RouteOp> base;
    for (std::size_t i = 0; i < churn.base.size(); ++i)
      base.push_back({route::RouteOp::Kind::add, churn.base[i],
                      {static_cast<pkt::IfIndex>(1 + churn.base_hops[i]
                                                         .out_iface %
                                                     3),
                       {}}});
    for (const auto& op : base) oracle.apply(op);
    ASSERT_EQ(cp.apply_route_batch(base).failed, 0u);
  }

  Rng rng(4242);
  std::uint64_t pinned_probes = 0;
  std::uint64_t expected_no_route = 0;
  auto probe_round = [&](const std::vector<route::RouteOp>* batch) {
    if (batch) {
      const auto res = cp.apply_route_batch(*batch);
      EXPECT_EQ(res.failed, 0u);
      for (const auto& op : *batch) oracle.apply(op);
    }
    // Probe pinned destinations plus random addresses; remember each
    // packet's expected egress by destination address.
    std::map<std::uint32_t, std::optional<pkt::IfIndex>> expect;
    std::vector<pkt::PacketPtr> burst;
    for (int i = 0; i < 12; ++i) {
      const std::uint32_t dst = addr_in(pinned[rng.below(pinned.size())], rng);
      if (!expect.contains(dst)) {
        expect[dst] = oracle.lookup(IpAddr{netbase::Ipv4Addr(dst)});
        ASSERT_TRUE(expect[dst].has_value());  // pinned => always routable
        ++pinned_probes;
        burst.push_back(packet_to(dst, 1000));
      }
    }
    for (int i = 0; i < 12; ++i) {
      const auto dst = static_cast<std::uint32_t>(rng.next());
      if (expect.contains(dst)) continue;
      expect[dst] = oracle.lookup(IpAddr{netbase::Ipv4Addr(dst)});
      if (!expect[dst]) ++expected_no_route;
      burst.push_back(packet_to(dst, 1000));
    }
    const std::size_t n = burst.size();
    kernel.core().process_burst(burst);
    std::size_t egressed = 0;
    for (pkt::IfIndex ifx = 0; ifx < 4; ++ifx) {
      while (auto p = kernel.core().next_for_tx(ifx, kernel.clock().now())) {
        ASSERT_TRUE(p->key_valid || pkt::extract_flow_key(*p));
        const std::uint32_t dst = p->key.dst.v4().v;
        auto it = expect.find(dst);
        ASSERT_NE(it, expect.end());
        ASSERT_TRUE(it->second.has_value()) << "forwarded with no route";
        EXPECT_EQ(ifx, *it->second)
            << "misroute for " << p->key.dst.to_string();
        ++egressed;
      }
    }
    const std::size_t expected_fwd =
        n - static_cast<std::size_t>(
                std::count_if(expect.begin(), expect.end(),
                              [](const auto& e) { return !e.second; }));
    EXPECT_EQ(egressed, expected_fwd);
  };

  probe_round(nullptr);  // pre-churn baseline
  for (const auto& batch : churn.batches) probe_round(&batch);

  const auto& cc = kernel.core().counters();
  // Every probe either egressed on the oracle's interface or was an
  // expected no-route drop; nothing else may drop.
  EXPECT_EQ(cc.dropped(core::DropReason::no_route), expected_no_route);
  EXPECT_EQ(cc.total_drops(), expected_no_route);
  EXPECT_GT(pinned_probes, 0u);
  // Steady-state churn recycles hop slots instead of growing the table.
  EXPECT_LT(kernel.routes().hop_slots(),
            oracle.live.size() + spec.ops + 8);
}

// Filter batches applied between bursts: re-probing a fixed key population
// after every batch, the drop/forward split must match the live filter set
// exactly (stale flow-cache bindings would get this wrong), with no full
// cache flush.
TEST(ChurnDiff, FilterBatchesNeverMisclassifyCachedFlows) {
  core::RouterKernel::Options opt;
  opt.core.input_gates = {PluginType::firewall};
  core::RouterKernel kernel(opt);
  // Four interfaces: churn filters and probe keys name ingress ifaces 0..3.
  for (const char* n : {"if0", "if1", "if2", "if3"}) kernel.add_interface(n);
  ASSERT_EQ(kernel.routes().add(IpPrefix{}, {1, {}}), Status::ok);

  kernel.pcu().register_plugin(std::make_unique<CountingPlugin>(
      "fw", PluginType::firewall, plugin::Verdict::drop));
  plugin::InstanceId fw_id = plugin::kNoInstance;
  ASSERT_EQ(kernel.pcu().find("fw")->create_instance({}, fw_id), Status::ok);

  ctrl::ControlPlane cp(kernel);

  tgen::FilterChurnSpec spec;
  spec.base.count = 40;
  spec.base.p_wild_src = 0.0;
  spec.base.p_wild_dst = 0.0;
  spec.base.p_wild_proto = 0.0;  // keys stay udp/tcp => buildable packets
  spec.base.seed = 21;
  spec.ops = 240;
  spec.batch_size = 16;
  spec.seed = 5;
  const tgen::FilterChurn churn = tgen::filter_churn(spec);

  // The full filter universe this run can ever install.
  std::vector<aiu::Filter> universe = churn.base;
  for (const auto& batch : churn.batches)
    for (const auto& op : batch)
      if (!op.remove) universe.push_back(op.filter);

  Rng rng(99);
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < 24; ++i)  // covered: match some universe filter
    keys.push_back(
        tgen::matching_key(universe[rng.below(universe.size())], rng));
  std::size_t legit = 0;
  while (legit < 24) {  // legit: match no universe filter, ever
    tgen::FlowEndpoints ep = tgen::random_flow(rng);
    const pkt::FlowKey k = ep.key();
    bool clean = true;
    for (const auto& f : universe)
      if (f.matches(k)) {
        clean = false;
        break;
      }
    if (!clean) continue;
    keys.push_back(k);
    ++legit;
  }

  std::vector<aiu::Filter> live = churn.base;
  {
    std::vector<ctrl::FilterSpecOp> base_ops;
    for (const auto& f : churn.base)
      base_ops.push_back(
          {aiu::Aiu::FilterOp::Kind::add, "fw", fw_id, f});
    ASSERT_EQ(cp.apply_filter_batch(base_ops), Status::ok);
  }

  auto matched_by_live = [&live](const pkt::FlowKey& k) {
    for (const auto& f : live)
      if (f.matches(k)) return true;
    return false;
  };

  std::uint64_t last_drops = 0, last_fwd = 0;
  auto probe_round = [&] {
    std::vector<pkt::PacketPtr> burst;
    std::size_t expect_drop = 0;
    for (const auto& k : keys) {
      burst.push_back(packet_for_key(k));
      if (matched_by_live(k)) ++expect_drop;
    }
    kernel.core().process_burst(burst);
    while (kernel.core().next_for_tx(1, kernel.clock().now())) {
    }
    const auto& cc = kernel.core().counters();
    const std::uint64_t drops = cc.dropped(core::DropReason::policy);
    EXPECT_EQ(drops - last_drops, expect_drop);
    EXPECT_EQ(cc.forwarded - last_fwd, keys.size() - expect_drop);
    last_drops = drops;
    last_fwd = cc.forwarded;
  };

  probe_round();
  for (const auto& batch : churn.batches) {
    std::vector<ctrl::FilterSpecOp> ops;
    for (const auto& op : batch) {
      ops.push_back({op.remove ? aiu::Aiu::FilterOp::Kind::remove
                               : aiu::Aiu::FilterOp::Kind::add,
                     "fw", fw_id, op.filter});
      if (op.remove)
        std::erase_if(live, [&](const aiu::Filter& f) {
          return f == op.filter;
        });
      else
        live.push_back(op.filter);
    }
    std::string detail;
    ASSERT_EQ(cp.apply_filter_batch(ops, &detail), Status::ok) << detail;
    probe_round();
  }

  // Selective invalidation, not a sledgehammer: flows were invalidated,
  // but the cache was never flushed wholesale.
  EXPECT_GT(cp.stats().flows_invalidated, 0u);
  EXPECT_EQ(kernel.aiu().stats().cache_flushes, 0u);
  EXPECT_EQ(kernel.aiu().filter_table(PluginType::firewall)->size(),
            live.size());
}

// Versioned upgrade through the management surface: stats v1 -> v2
// mid-stream hands off per-flow counters and aggregate totals; no packet
// and no flow entry is lost, and the old instance retires cleanly.
TEST(ChurnDiff, UpgradeMigratesStatsStateWithZeroLoss) {
  core::RouterKernel::Options opt;
  opt.core.input_gates = {PluginType::stats};
  core::RouterKernel kernel(opt);
  mgmt::RouterPluginLib lib(kernel);
  mgmt::PluginManager pmgr(lib);
  mgmt::register_builtin_modules();
  kernel.add_interface("if0");
  kernel.add_interface("if1");

  ASSERT_TRUE(pmgr.run_script(R"(
route add 20.0.0.0/8 if1
modload stats
create stats
create stats
bind stats 1 <*, *, udp, *, *, *>
)").ok());

  auto send = [&](int rounds) {
    for (int r = 0; r < rounds; ++r)
      for (std::uint8_t f = 0; f < 8; ++f) {
        pkt::UdpSpec s;
        s.src = IpAddr(netbase::Ipv4Addr(10, 0, 0, f));
        s.dst = IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
        s.sport = 1000;
        s.dport = 80;
        s.payload_len = 100;
        kernel.core().process(pkt::build_udp(s));
      }
  };
  send(5);  // 40 packets over 8 flows, counted by v1

  auto* v1 = dynamic_cast<stats::StatsInstance*>(
      kernel.pcu().find_instance("stats", 1));
  auto* v2 = dynamic_cast<stats::StatsInstance*>(
      kernel.pcu().find_instance("stats", 2));
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v1->total_packets(), 40u);
  EXPECT_EQ(v1->tracked_flows(), 8u);
  const std::size_t flows_before = kernel.aiu().flow_table().active();

  auto r = pmgr.exec("ctrl upgrade stats 1 2 retire");
  ASSERT_TRUE(r.ok()) << r.text;
  EXPECT_NE(r.text.find("flows_rebound=8"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("state_migrated=8"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("state_dropped=0"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("retired"), std::string::npos) << r.text;

  // v1 is gone; v2 owns the full history; no flow entry was purged.
  EXPECT_EQ(kernel.pcu().find_instance("stats", 1), nullptr);
  EXPECT_EQ(v2->total_packets(), 40u);
  EXPECT_EQ(v2->tracked_flows(), 8u);
  EXPECT_EQ(kernel.aiu().flow_table().active(), flows_before);

  send(5);  // 40 more packets, now counted by v2 on the same flow entries
  EXPECT_EQ(v2->total_packets(), 80u);
  EXPECT_EQ(v2->tracked_flows(), 8u);
  EXPECT_EQ(kernel.core().counters().forwarded, 80u);
  EXPECT_EQ(kernel.core().counters().total_drops(), 0u);

  auto s = pmgr.exec("ctrl status");
  ASSERT_TRUE(s.ok());
  EXPECT_NE(s.text.find("upgrades=1"), std::string::npos) << s.text;
  EXPECT_NE(s.text.find("state_migrated=8"), std::string::npos) << s.text;
}

// An instance that keeps soft state but does NOT implement migrate_flow:
// the handoff must release the old state exactly once, keep the flow
// entries bound to the new instance, and lose no packets.
class SoftCounterInstance final : public plugin::PluginInstance {
 public:
  plugin::Verdict handle_packet(pkt::Packet&, void** flow_soft) override {
    if (flow_soft) {
      if (!*flow_soft) *flow_soft = new std::uint64_t{0};
      ++*static_cast<std::uint64_t*>(*flow_soft);
    }
    ++calls;
    return plugin::Verdict::cont;
  }
  void flow_removed(void* flow_soft) override {
    delete static_cast<std::uint64_t*>(flow_soft);
    ++releases;
  }
  std::uint64_t calls{0};
  std::uint64_t releases{0};
};

class SoftCounterPlugin final : public plugin::Plugin {
 public:
  SoftCounterPlugin() : Plugin("softctr", PluginType::firewall) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<SoftCounterInstance>();
  }
};

TEST(ChurnDiff, UpgradeWithoutMigrateHookDropsSoftStateSafely) {
  core::RouterKernel::Options opt;
  opt.core.input_gates = {PluginType::firewall};
  core::RouterKernel kernel(opt);
  kernel.add_interface("if0");
  kernel.add_interface("if1");
  ASSERT_EQ(kernel.routes().add(IpPrefix{}, {1, {}}), Status::ok);

  kernel.pcu().register_plugin(std::make_unique<SoftCounterPlugin>());
  plugin::Plugin* pl = kernel.pcu().find("softctr");
  plugin::InstanceId id1 = plugin::kNoInstance, id2 = plugin::kNoInstance;
  ASSERT_EQ(pl->create_instance({}, id1), Status::ok);
  ASSERT_EQ(pl->create_instance({}, id2), Status::ok);
  auto* v1 = static_cast<SoftCounterInstance*>(pl->instance(id1));
  auto* v2 = static_cast<SoftCounterInstance*>(pl->instance(id2));
  ASSERT_EQ(kernel.aiu().create_filter(PluginType::firewall,
                                       *aiu::Filter::parse("<*,*,udp,*,*,*>"),
                                       v1),
            Status::ok);

  auto send = [&](int n) {
    for (int i = 0; i < n; ++i)
      for (std::uint8_t f = 0; f < 6; ++f) {
        pkt::UdpSpec s;
        s.src = IpAddr(netbase::Ipv4Addr(10, 1, 0, f));
        s.dst = IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
        s.sport = 2000;
        s.dport = 53;
        s.payload_len = 64;
        kernel.core().process(pkt::build_udp(s));
      }
  };
  send(4);  // 24 packets over 6 flows, soft state on v1

  const auto res = kernel.aiu().handoff_instance(v1, v2);
  EXPECT_EQ(res.filters_rebound, 1u);
  EXPECT_EQ(res.flows_rebound, 6u);
  EXPECT_EQ(res.state_migrated, 0u);  // default migrate_flow declines
  EXPECT_EQ(res.state_dropped, 6u);
  EXPECT_EQ(v1->releases, 6u);  // released exactly once, by v1

  send(4);  // same flows keep flowing, now building fresh state on v2
  EXPECT_EQ(v1->calls + v2->calls, 48u);
  EXPECT_EQ(v2->calls, 24u);
  EXPECT_EQ(kernel.core().counters().forwarded, 48u);
  EXPECT_EQ(kernel.core().counters().total_drops(), 0u);
}

// ---------------------------------------------------------------------------
// Sharded churn under live worker-thread traffic (label churn-parallel-tsan).

struct ShardTaps {
  stats::StatsInstance* v2{nullptr};
  CountingInstance* tap{nullptr};
};

constexpr std::uint32_t kStablePrefixes = 48;

// Identical control state on the kernel template and every shard: three
// interfaces, 48 stable /16 routes, a stats gate (v1 live, v2 standby) and
// a counting firewall tap whose filters the control plane churns.
template <class Stack>
ShardTaps setup_churn_stack(Stack& s) {
  s.interfaces().add("if0");
  s.interfaces().add("if1");
  s.interfaces().add("if2");
  for (std::uint32_t i = 0; i < kStablePrefixes; ++i) {
    const IpPrefix p(IpAddr(netbase::Ipv4Addr(50, std::uint8_t(i), 0, 0)),
                     16);
    s.routes().add(p, {static_cast<pkt::IfIndex>(1 + i % 2), {}});
  }
  ShardTaps t;
  s.pcu().register_plugin(std::make_unique<stats::StatsPlugin>());
  plugin::Plugin* st = s.pcu().find("stats");
  plugin::InstanceId id1 = plugin::kNoInstance, id2 = plugin::kNoInstance;
  st->create_instance({}, id1);
  st->create_instance({}, id2);
  t.v2 = static_cast<stats::StatsInstance*>(st->instance(id2));
  s.aiu().create_filter(PluginType::stats,
                        *aiu::Filter::parse("<*, *, *, *, *, *>"),
                        st->instance(id1));
  s.pcu().register_plugin(std::make_unique<CountingPlugin>(
      "fwtap", PluginType::firewall, plugin::Verdict::cont));
  plugin::InstanceId tid = plugin::kNoInstance;
  s.pcu().find("fwtap")->create_instance({}, tid);
  t.tap = static_cast<CountingInstance*>(s.pcu().find("fwtap")->instance(tid));
  return t;
}

parallel::ShardOptions churn_shard_options() {
  parallel::ShardOptions opt;
  opt.core.input_gates = {PluginType::stats, PluginType::firewall};
  opt.route_engine = "cpe";
  return opt;
}

void run_shard_churn(std::uint32_t workers, std::uint64_t seed) {
  SCOPED_TRACE("workers=" + std::to_string(workers) +
               " seed=" + std::to_string(seed));

  core::RouterKernel::Options kopt;
  kopt.core.input_gates = {PluginType::stats, PluginType::firewall};
  kopt.route_engine = "cpe";
  core::RouterKernel kernel(kopt);
  setup_churn_stack(kernel);

  std::vector<ShardTaps> taps(workers);
  parallel::ShardedDatapath::Options opt;
  opt.workers = workers;
  opt.ring_capacity = 256;
  opt.shard = churn_shard_options();
  parallel::ShardedDatapath dp(opt, [&taps](parallel::ShardContext& ctx) {
    taps[ctx.id()] = setup_churn_stack(ctx);
  });

  // Consume egress immediately so long runs never hit the port FIFO bound
  // (a queue_full drop would masquerade as churn-induced loss).
  dp.set_tx_handler(
      [](parallel::ShardContext&, pkt::IfIndex, pkt::PacketPtr) {});

  ctrl::ControlPlane cp(kernel);
  cp.attach_sharded(&dp);

  // Route churn outside the stable band never withdraws a stable /16, so
  // every submitted packet keeps a route for the whole run.
  tgen::RouteChurnSpec rspec;
  rspec.base_prefixes = 256;
  rspec.ops = 512;
  rspec.batch_size = 64;
  rspec.min_len = 17;  // can't alias (and so never withdraw) a stable /16
  rspec.max_len = 28;
  rspec.ifaces = 3;
  rspec.seed = seed;
  const tgen::RouteChurn rchurn = tgen::route_churn(rspec);
  {
    std::vector<route::RouteOp> base;
    for (std::size_t i = 0; i < rchurn.base.size(); ++i)
      base.push_back({route::RouteOp::Kind::add, rchurn.base[i],
                      rchurn.base_hops[i]});
    ASSERT_EQ(cp.apply_route_batch(base).failed, 0u);
  }
  tgen::FilterChurnSpec fspec;
  fspec.base.count = 32;
  fspec.base.seed = seed + 1;
  fspec.ops = 160;
  fspec.batch_size = 16;
  fspec.seed = seed + 2;
  const tgen::FilterChurn fchurn = tgen::filter_churn(fspec);
  // Pin every churned filter to a unique dport in 9000+ while traffic uses
  // dport 7777: the DAG still churns under load, but no filter ever matches
  // a live flow, so no stats-bearing flow entry is invalidated mid-run and
  // the migrated packet totals must be exactly conserved. The memo keys on
  // the original filter, so each remove maps to the same transformed filter
  // as its add, and distinct filters stay distinct.
  std::map<std::string, std::uint16_t> churn_port;
  auto disjoint = [&churn_port](const aiu::Filter& f) {
    auto [it, inserted] = churn_port.emplace(
        f.to_string(), static_cast<std::uint16_t>(9000 + churn_port.size()));
    (void)inserted;
    aiu::Filter g = f;
    g.dport = aiu::PortSpec::exact(it->second);
    return g;
  };
  {
    std::vector<ctrl::FilterSpecOp> ops;
    for (const auto& f : fchurn.base)
      ops.push_back({aiu::Aiu::FilterOp::Kind::add, "fwtap", 1, disjoint(f)});
    ASSERT_EQ(cp.apply_filter_batch(ops), Status::ok);
  }

  // Traffic to stable destinations, submitted in tranches interleaved with
  // control-plane batches running concurrently with the workers.
  Rng rng(seed ^ 0xfeed);
  const std::size_t kPackets = 2000;
  const std::size_t rounds =
      std::max(rchurn.batches.size(), fchurn.batches.size()) + 1;
  const std::size_t per_round = kPackets / rounds + 1;
  std::size_t submitted = 0;
  bool upgraded = false;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < per_round && submitted < kPackets; ++i) {
      const auto x = static_cast<std::uint8_t>(rng.below(kStablePrefixes));
      const std::uint32_t dst =
          (50u << 24) | (std::uint32_t{x} << 16) |
          (static_cast<std::uint32_t>(rng.next()) & 0xffffu);
      dp.submit(packet_to(dst, static_cast<std::uint16_t>(
                                   1000 + rng.below(32))));
      ++submitted;
    }
    if (round < rchurn.batches.size()) {
      ASSERT_EQ(cp.apply_route_batch(rchurn.batches[round]).failed, 0u);
    }
    if (round < fchurn.batches.size()) {
      std::vector<ctrl::FilterSpecOp> ops;
      for (const auto& op : fchurn.batches[round])
        ops.push_back({op.remove ? aiu::Aiu::FilterOp::Kind::remove
                                 : aiu::Aiu::FilterOp::Kind::add,
                       "fwtap", 1, disjoint(op.filter)});
      std::string detail;
      ASSERT_EQ(cp.apply_filter_batch(ops, &detail), Status::ok) << detail;
    }
    if (!upgraded && round >= rounds / 2) {
      std::string detail;
      ASSERT_EQ(cp.upgrade("stats", 1, 2, /*retire=*/true, &detail),
                Status::ok)
          << detail;
      upgraded = true;
    }
  }
  ASSERT_TRUE(upgraded);

  dp.quiesce();
  const core::CoreCounters cc = dp.aggregate_counters();
  // Zero loss: every submitted packet was received and forwarded; churn
  // never dropped a legitimate packet.
  EXPECT_EQ(cc.received, submitted);
  EXPECT_EQ(cc.forwarded, submitted);
  EXPECT_EQ(cc.total_drops(), 0u);

  dp.stop();
  // The retire reached every stack; v2 holds the complete packet history
  // (migrated totals + post-upgrade counting), summed across shards.
  EXPECT_EQ(kernel.pcu().find_instance("stats", 1), nullptr);
  std::uint64_t stats_total = 0;
  for (std::uint32_t i = 0; i < workers; ++i) {
    parallel::ShardContext& ctx = dp.worker(i).ctx();
    EXPECT_EQ(ctx.pcu().find_instance("stats", 1), nullptr)
        << "shard " << i << " still has the retired instance";
    stats_total += taps[i].v2->total_packets();
  }
  EXPECT_EQ(stats_total, submitted);

  // Mirrored control state: every shard's routing table answers exactly
  // like the kernel template's.
  for (int i = 0; i < 200; ++i) {
    const IpAddr dst{netbase::Ipv4Addr(static_cast<std::uint32_t>(
        rng.chance(0.5) ? (50u << 24) | (rng.next() & 0xffffffu)
                        : rng.next()))};
    const route::NextHop* want = kernel.routes().lookup(dst);
    for (std::uint32_t w = 0; w < workers; ++w) {
      const route::NextHop* got = dp.worker(w).ctx().routes().lookup(dst);
      ASSERT_EQ(want != nullptr, got != nullptr)
          << "shard " << w << " dst " << dst.to_string();
      if (want) {
        EXPECT_EQ(want->out_iface, got->out_iface)
            << "shard " << w << " dst " << dst.to_string();
      }
    }
  }
  // And every shard's filter table converged to the same live set.
  const std::size_t want_filters =
      kernel.aiu().filter_table(PluginType::firewall)->size();
  for (std::uint32_t w = 0; w < workers; ++w)
    EXPECT_EQ(
        dp.worker(w).ctx().aiu().filter_table(PluginType::firewall)->size(),
        want_filters);

  EXPECT_EQ(cp.stats().upgrades, 1u);
  EXPECT_EQ(cp.stats().route_failures, 0u);
  EXPECT_EQ(cp.stats().filter_failures, 0u);
}

TEST(ChurnShard, TwoWorkersZeroLossUnderFullChurn) {
  for (std::uint64_t seed : {3ull, 1234ull}) run_shard_churn(2, seed);
}

TEST(ChurnShard, FourWorkersZeroLossUnderFullChurn) {
  for (std::uint64_t seed : {3ull, 90210ull}) run_shard_churn(4, seed);
}

}  // namespace
}  // namespace rp
