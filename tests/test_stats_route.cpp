// Tests for the statistics plugin (the network-monitoring use case) and the
// routing table / L4-switching route plugin.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "aiu/aiu.hpp"
#include "aiu/flow_table.hpp"
#include "bmp/cpe.hpp"
#include "pkt/builder.hpp"
#include "route/route_plugin.hpp"
#include "route/routing_table.hpp"
#include "stats/stats_plugin.hpp"
#include "telemetry/telemetry.hpp"

namespace rp {
namespace {

using netbase::Status;
using plugin::Verdict;

pkt::PacketPtr udp(std::uint16_t sport, std::size_t payload = 100) {
  pkt::UdpSpec s;
  s.src = netbase::IpAddr(netbase::Ipv4Addr(10, 0, 0, 1));
  s.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
  s.sport = sport;
  s.dport = 80;
  s.payload_len = payload;
  return pkt::build_udp(s);
}

TEST(StatsPlugin, PerFlowCountersInSoftState) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::bytes);
  void* soft_a = nullptr;
  void* soft_b = nullptr;
  for (int i = 0; i < 3; ++i) {
    auto p = udp(1);
    inst.handle_packet(*p, &soft_a);
  }
  auto p = udp(2, 200);
  inst.handle_packet(*p, &soft_b);

  EXPECT_EQ(inst.total_packets(), 4u);
  EXPECT_EQ(inst.tracked_flows(), 2u);
  auto* fa = static_cast<stats::StatsInstance::FlowCounter*>(soft_a);
  ASSERT_NE(fa, nullptr);
  EXPECT_EQ(fa->packets, 3u);
  EXPECT_EQ(fa->bytes, 3u * 128u);
}

TEST(StatsPlugin, FlowRemovedDropsPerFlowRecordKeepsTotals) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::packets);
  void* soft = nullptr;
  auto p = udp(1);
  inst.handle_packet(*p, &soft);
  inst.flow_removed(soft);
  EXPECT_EQ(inst.tracked_flows(), 0u);
  EXPECT_EQ(inst.total_packets(), 1u);
}

TEST(StatsPlugin, RuntimeModeChangeAndReport) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::packets);
  void* soft = nullptr;
  auto p1 = udp(1);
  inst.handle_packet(*p1, &soft);
  auto* fc = static_cast<stats::StatsInstance::FlowCounter*>(soft);
  EXPECT_EQ(fc->bytes, 0u);  // packets mode does not count bytes

  plugin::PluginMsg setmode;
  setmode.custom_name = "setmode";
  setmode.args.set("mode", "sizes");
  plugin::PluginReply reply;
  ASSERT_EQ(inst.handle_message(setmode, reply), Status::ok);
  auto p2 = udp(1, 2000);
  inst.handle_packet(*p2, &soft);
  EXPECT_GT(fc->bytes, 0u);
  EXPECT_EQ(fc->size_hist[3], 1u);  // 2028 bytes -> <=4096 bucket

  plugin::PluginMsg report;
  report.custom_name = "report";
  ASSERT_EQ(inst.handle_message(report, reply), Status::ok);
  EXPECT_NE(reply.text.find("total_packets=2"), std::string::npos);

  plugin::PluginMsg reset;
  reset.custom_name = "reset";
  ASSERT_EQ(inst.handle_message(reset, reply), Status::ok);
  EXPECT_EQ(inst.total_packets(), 0u);
  EXPECT_EQ(fc->packets, 0u);

  setmode.args.set("mode", "bogus");
  EXPECT_EQ(inst.handle_message(setmode, reply), Status::invalid_argument);
}

std::string report_of(stats::StatsInstance& inst) {
  plugin::PluginMsg report;
  report.custom_name = "report";
  plugin::PluginReply reply;
  EXPECT_EQ(inst.handle_message(report, reply), Status::ok);
  return reply.text;
}

TEST(StatsPlugin, ReportListsEveryTrackedFlow) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::bytes);
  void* soft_a = nullptr;
  void* soft_b = nullptr;
  auto pa = udp(1111);
  auto pb = udp(2222);
  inst.handle_packet(*pa, &soft_a);
  inst.handle_packet(*pb, &soft_b);

  plugin::PluginMsg report;
  report.custom_name = "report";
  plugin::PluginReply reply;
  ASSERT_EQ(inst.handle_message(report, reply), Status::ok);
  EXPECT_NE(reply.text.find("flows=2"), std::string::npos);
  EXPECT_NE(reply.text.find(pa->key.to_string()), std::string::npos);
  EXPECT_NE(reply.text.find(pb->key.to_string()), std::string::npos);

  // More flows, released in a seeded random order: the report lists
  // exactly the survivors, in insertion order.
  constexpr std::size_t kFlows = 64;
  std::vector<void*> softs(kFlows, nullptr);
  std::vector<pkt::FlowKey> keys;
  for (std::size_t i = 0; i < kFlows; ++i) {
    auto p = udp(static_cast<std::uint16_t>(1000 + i));
    inst.handle_packet(*p, &softs[i]);
    keys.push_back(p->key);
  }
  std::vector<std::size_t> order(kFlows);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(14));
  std::vector<bool> alive(kFlows, true);
  const std::string line_tail = " pkts=1 bytes=" + std::to_string(pa->size());
  for (std::size_t n = 0; n < kFlows; ++n) {
    inst.flow_removed(softs[order[n]]);
    alive[order[n]] = false;
    if (n % 16 != 15 && n != 0) continue;
    std::string expected = pa->key.to_string() + line_tail + "\n" +
                           pb->key.to_string() + line_tail + "\n";
    for (std::size_t i = 0; i < kFlows; ++i)
      if (alive[i]) expected += keys[i].to_string() + line_tail + "\n";
    const std::string text = report_of(inst);
    EXPECT_EQ(text.substr(text.find('\n') + 1), expected)
        << "after " << n + 1 << " removals";
  }
  EXPECT_EQ(inst.tracked_flows(), 2u);
}

TEST(StatsPlugin, UnknownMessageIsUnsupported) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::packets);
  plugin::PluginMsg msg;
  msg.custom_name = "frobnicate";
  plugin::PluginReply reply;
  EXPECT_EQ(inst.handle_message(msg, reply), Status::unsupported);
}

TEST(StatsPlugin, SetmodeSwitchesCountingAtRuntime) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::packets);
  void* soft = nullptr;
  auto p1 = udp(1, 300);
  inst.handle_packet(*p1, &soft);
  auto* fc = static_cast<stats::StatsInstance::FlowCounter*>(soft);
  EXPECT_EQ(fc->bytes, 0u);

  plugin::PluginMsg setmode;
  setmode.custom_name = "setmode";
  setmode.args.set("mode", "bytes");
  plugin::PluginReply reply;
  ASSERT_EQ(inst.handle_message(setmode, reply), Status::ok);
  auto p2 = udp(1, 300);
  inst.handle_packet(*p2, &soft);
  EXPECT_EQ(fc->bytes, p2->size());  // only the post-switch packet counted

  setmode.args.set("mode", "packets");
  ASSERT_EQ(inst.handle_message(setmode, reply), Status::ok);
  auto p3 = udp(1, 300);
  inst.handle_packet(*p3, &soft);
  EXPECT_EQ(fc->bytes, p2->size());  // back to packets: bytes frozen
  EXPECT_EQ(fc->packets, 3u);
}

// flow_removed driven the way the router drives it: through a flow-table
// entry carrying the instance's soft state in its gate slot.
TEST(StatsPlugin, FlowTableRemovalCleansSoftState) {
  stats::StatsInstance inst(stats::StatsInstance::Mode::packets);
  aiu::FlowTable table(64, 8, 64);
  auto p = udp(7777);
  pkt::FlowIndex fix = table.insert(p->key, 0);
  aiu::GateBinding& b = table.rec(fix).gates[aiu::gate_index(
      plugin::PluginType::stats)];
  b.instance = &inst;
  inst.handle_packet(*p, &b.soft);
  ASSERT_NE(b.soft, nullptr);
  EXPECT_EQ(inst.tracked_flows(), 1u);

  table.remove(fix);  // must call inst.flow_removed(b.soft)
  EXPECT_EQ(inst.tracked_flows(), 0u);
  EXPECT_EQ(inst.total_packets(), 1u);  // totals survive the flow
}

// Each instance releases and adopts only the counters it owns: handed
// another instance's counter, flow_removed and migrate_flow do nothing.
TEST(StatsPlugin, FlowRemovedIgnoresAnotherInstancesCounter) {
  stats::StatsInstance a(stats::StatsInstance::Mode::bytes);
  stats::StatsInstance b(stats::StatsInstance::Mode::bytes);
  void* soft_a = nullptr;
  void* soft_b = nullptr;
  auto pa = udp(1);
  auto pb = udp(2, 200);
  a.handle_packet(*pa, &soft_a);
  b.handle_packet(*pb, &soft_b);

  a.flow_removed(soft_b);
  b.flow_removed(soft_a);
  EXPECT_EQ(a.tracked_flows(), 1u);
  EXPECT_EQ(b.tracked_flows(), 1u);
  EXPECT_EQ(a.total_packets(), 1u);
  EXPECT_EQ(a.total_bytes(), pa->size());
  EXPECT_EQ(b.total_packets(), 1u);
  EXPECT_EQ(b.total_bytes(), pb->size());
  EXPECT_NE(report_of(a).find(pa->key.to_string()), std::string::npos);
  EXPECT_NE(report_of(b).find(pb->key.to_string()), std::string::npos);

  // The owner still releases its own.
  b.flow_removed(soft_b);
  EXPECT_EQ(b.tracked_flows(), 0u);
  EXPECT_EQ(a.tracked_flows(), 1u);
}

TEST(StatsPlugin, MigrateFlowDeclinesACounterFromDoesNotOwn) {
  stats::StatsInstance a(stats::StatsInstance::Mode::bytes);
  stats::StatsInstance b(stats::StatsInstance::Mode::bytes);
  stats::StatsInstance c(stats::StatsInstance::Mode::bytes);
  void* soft_a = nullptr;
  void* soft_b = nullptr;
  void* soft_c = nullptr;
  auto pa = udp(1);
  auto pb = udp(2);
  auto pc = udp(3, 300);
  a.handle_packet(*pa, &soft_a);
  b.handle_packet(*pb, &soft_b);
  c.handle_packet(*pc, &soft_c);
  c.handle_packet(*pc, &soft_c);
  void* const c_counter = soft_c;
  const std::string c_report = report_of(c);

  EXPECT_FALSE(b.migrate_flow(&a, pc->key, &soft_c));
  EXPECT_EQ(soft_c, c_counter);
  EXPECT_EQ(c.tracked_flows(), 1u);
  EXPECT_EQ(c.total_packets(), 2u);
  EXPECT_EQ(c.total_bytes(), 2 * pc->size());
  EXPECT_EQ(report_of(c), c_report);
  EXPECT_EQ(a.tracked_flows(), 1u);
  EXPECT_EQ(a.total_packets(), 1u);
  EXPECT_EQ(b.tracked_flows(), 1u);
  EXPECT_EQ(b.total_packets(), 1u);

  // From the real owner the counter moves: same object, appended after
  // b's own flow in the report, totals carried along.
  EXPECT_TRUE(b.migrate_flow(&c, pc->key, &soft_c));
  EXPECT_EQ(soft_c, c_counter);
  EXPECT_EQ(static_cast<stats::StatsInstance::FlowCounter*>(soft_c)->packets,
            2u);
  EXPECT_EQ(c.tracked_flows(), 0u);
  EXPECT_EQ(c.total_packets(), 0u);
  EXPECT_EQ(c.total_bytes(), 0u);
  EXPECT_EQ(b.tracked_flows(), 2u);
  EXPECT_EQ(b.total_packets(), 3u);
  EXPECT_EQ(b.total_bytes(), pb->size() + 2 * pc->size());
  const std::string rb = report_of(b);
  EXPECT_LT(rb.find(pb->key.to_string()), rb.find(pc->key.to_string()));

  c.flow_removed(soft_c);  // no longer c's
  EXPECT_EQ(b.tracked_flows(), 2u);
  b.flow_removed(soft_c);
  EXPECT_EQ(b.tracked_flows(), 1u);
  EXPECT_EQ(b.total_packets(), 3u);
}

// Complexity guard for the per-flow lifecycle at the flow-record cap. Every
// LRU recycle calls flow_removed and every upgrade calls migrate_flow once
// per bound flow, so both must be O(1) in the instance's tracked flows. With
// a search of the counter list in either call, this test does ~10^10 list
// steps and overruns its ctest timeout; it asserts no wall-clock figure.
TEST(StatsPlugin, RecycleAndHandoffAtFlowCapStayLinear) {
  constexpr std::size_t kCap = 65536;
  constexpr std::size_t kRecycles = 100000;
  stats::StatsInstance a(stats::StatsInstance::Mode::bytes);
  stats::StatsInstance b(stats::StatsInstance::Mode::bytes);
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  aiu::Aiu::Options opt;
  opt.initial_flows = kCap;
  opt.max_flows = kCap;
  aiu::Aiu aiu(pcu, clock, opt);
  aiu::FlowTable& table = aiu.flow_table();
  const std::size_t gi = aiu::gate_index(plugin::PluginType::stats);

  auto p = udp(1);
  std::uint32_t next_flow = 0;
  auto insert_bound = [&]() -> aiu::GateBinding& {
    p->key.sport = static_cast<std::uint16_t>(next_flow);
    p->key.dport = static_cast<std::uint16_t>(next_flow >> 16);
    ++next_flow;
    aiu::GateBinding& g = table.rec(table.insert(p->key, 0)).gates[gi];
    g.instance = &a;
    return g;
  };

  // Phase 1: fill the table, then recycle kRecycles LRU entries; each
  // recycle hands a's counter back through flow_removed.
  for (std::size_t i = 0; i < kCap + kRecycles; ++i) {
    aiu::GateBinding& g = insert_bound();
    a.handle_packet(*p, &g.soft);
  }
  EXPECT_EQ(table.stats().recycled, kRecycles);
  ASSERT_EQ(table.active(), kCap);
  EXPECT_EQ(a.tracked_flows(), kCap);
  EXPECT_EQ(a.total_packets(), kCap + kRecycles);

  // Phase 2: fresh flows whose counters are created in the reverse of
  // flow-table index order. The handoff visits flows by ascending index, so
  // a front-to-back search would walk the whole list for every flow.
  table.clear();
  ASSERT_EQ(a.tracked_flows(), 0u);
  for (std::size_t i = 0; i < kCap; ++i) insert_bound();
  ASSERT_EQ(table.active(), kCap);
  for (std::size_t fix = kCap; fix-- > 0;) {
    aiu::FlowRecord& r = table.rec(static_cast<pkt::FlowIndex>(fix));
    p->key = r.key;
    a.handle_packet(*p, &r.gates[gi].soft);
  }
  const std::uint64_t packets = a.total_packets();
  const std::uint64_t bytes = a.total_bytes();
  EXPECT_EQ(packets, 2 * kCap + kRecycles);

  auto h = aiu.handoff_instance(&a, &b);
  EXPECT_EQ(h.state_migrated, kCap);
  EXPECT_EQ(h.state_dropped, 0u);
  EXPECT_EQ(a.total_packets() + b.total_packets(), packets);
  EXPECT_EQ(a.total_bytes() + b.total_bytes(), bytes);
  EXPECT_EQ(b.total_packets(), kCap);
  EXPECT_EQ(b.tracked_flows(), table.active());
  EXPECT_EQ(a.tracked_flows(), 0u);

  h = aiu.handoff_instance(&b, &a);
  EXPECT_EQ(h.state_migrated, kCap);
  EXPECT_EQ(a.total_packets(), packets);
  EXPECT_EQ(a.total_bytes(), bytes);
  EXPECT_EQ(b.total_packets(), 0u);
  EXPECT_EQ(b.total_bytes(), 0u);
  EXPECT_EQ(a.tracked_flows(), table.active());
  EXPECT_EQ(b.tracked_flows(), 0u);
}

TEST(StatsPlugin, RegistersAggregateCountersWithTelemetry) {
  const std::size_t before = telemetry::metrics().size();
  {
    stats::StatsInstance inst(stats::StatsInstance::Mode::packets);
    EXPECT_EQ(telemetry::metrics().size(), before + 2);
    void* soft = nullptr;
    auto p = udp(1);
    inst.handle_packet(*p, &soft);
    const std::string report = telemetry::metrics().report();
    EXPECT_NE(report.find("total_packets=1"), std::string::npos);
    EXPECT_NE(report.find("total_bytes="), std::string::npos);
  }
  // Destruction must deregister (the registry stores raw pointers).
  EXPECT_EQ(telemetry::metrics().size(), before);
}

TEST(RoutingTable, LongestPrefixWins) {
  route::RoutingTable t("bsl");
  t.add(*netbase::IpPrefix::parse("0.0.0.0/0"), {0, {}});
  t.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  t.add(*netbase::IpPrefix::parse("20.1.0.0/16"), {2, {}});
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("20.1.2.3"))->out_iface, 2);
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("20.9.2.3"))->out_iface, 1);
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("50.1.2.3"))->out_iface, 0);
  EXPECT_EQ(t.remove(*netbase::IpPrefix::parse("20.1.0.0/16")), Status::ok);
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("20.1.2.3"))->out_iface, 1);
}

TEST(RoutingTable, DualStack) {
  route::RoutingTable t("patricia");
  t.add(*netbase::IpPrefix::parse("10.0.0.0/8"), {1, {}});
  t.add(*netbase::IpPrefix::parse("2001:db8::/32"), {2, {}});
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("10.1.1.1"))->out_iface, 1);
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("2001:db8::9"))->out_iface, 2);
  EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("11.0.0.1")), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

// Without a prefix map of its own, the table asks the engine: a re-add is a
// next-hop rewrite that leaves the engine alone.
TEST(RoutingTable, ReAddRewritesHopAndLeavesEngineAlone) {
  route::RoutingTable t("cpe");
  const auto p = *netbase::IpPrefix::parse("20.1.16.0/20");
  ASSERT_EQ(t.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}}),
            Status::ok);
  ASSERT_EQ(t.add(p, {2, {}}), Status::ok);
  const auto& cpe =
      dynamic_cast<const bmp::CpeTrie&>(t.engine(netbase::IpVersion::v4));
  const std::size_t nodes = cpe.node_count();
  const std::size_t slots = t.hop_slots();
  const auto dst = *netbase::IpAddr::parse("20.1.17.9");

  EXPECT_EQ(t.add(p, {3, {}}), Status::ok);
  EXPECT_EQ(t.lookup(dst)->out_iface, 3);
  // Host bits do not make it another prefix.
  const route::RouteOp op{route::RouteOp::Kind::add,
                          *netbase::IpPrefix::parse("20.1.17.0/20"),
                          {4, {}}};
  const route::RouteBatchResult r = t.apply_batch(&op, 1);
  EXPECT_EQ(r.updated, 1u);
  EXPECT_EQ(r.added, 0u);
  EXPECT_EQ(t.lookup(dst)->out_iface, 4);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(cpe.node_count(), nodes);
  EXPECT_EQ(t.hop_slots(), slots);
  EXPECT_EQ(t.free_hop_count(), 0u);
}

TEST(RoutingTable, WithdrawOfUnknownPrefixFreesNoHopSlot) {
  for (const char* engine : {"cpe", "bsl", "patricia"}) {
    SCOPED_TRACE(engine);
    route::RoutingTable t(engine);
    const auto p8 = *netbase::IpPrefix::parse("20.0.0.0/8");
    ASSERT_EQ(t.add(p8, {1, {}}), Status::ok);
    ASSERT_EQ(t.add(*netbase::IpPrefix::parse("20.1.0.0/16"), {2, {}}),
              Status::ok);
    for (const char* unknown : {"20.1.2.0/24", "20.0.0.0/16", "20.0.0.0/7",
                                "2001:db8::/32"})
      EXPECT_EQ(t.remove(*netbase::IpPrefix::parse(unknown)),
                Status::not_found)
          << unknown;
    const route::RouteOp op{route::RouteOp::Kind::withdraw,
                            *netbase::IpPrefix::parse("20.1.2.0/24"),
                            {}};
    EXPECT_EQ(t.apply_batch(&op, 1).failed, 1u);
    EXPECT_EQ(t.free_hop_count(), 0u);
    EXPECT_EQ(t.size(), 2u);

    EXPECT_EQ(t.remove(p8), Status::ok);
    EXPECT_EQ(t.free_hop_count(), 1u);
    EXPECT_EQ(t.remove(p8), Status::not_found);
    EXPECT_EQ(t.free_hop_count(), 1u);
    EXPECT_EQ(t.lookup(*netbase::IpAddr::parse("20.1.2.3"))->out_iface, 2);
  }
}

TEST(RoutePlugin, InstanceSetsOutputInterface) {
  route::RoutePlugin plugin;
  plugin::InstanceId id = plugin::kNoInstance;
  ASSERT_EQ(plugin.create_instance({{"iface", "3"}}, id), Status::ok);
  auto* inst = static_cast<route::RouteInstance*>(plugin.instance(id));
  auto p = udp(1);
  EXPECT_EQ(inst->handle_packet(*p, nullptr), Verdict::cont);
  EXPECT_EQ(p->out_iface, 3);

  plugin::PluginMsg msg;
  msg.custom_name = "stats";
  plugin::PluginReply reply;
  EXPECT_EQ(inst->handle_message(msg, reply), Status::ok);
  EXPECT_NE(reply.text.find("routed=1"), std::string::npos);

  EXPECT_EQ(plugin.create_instance({}, id), Status::invalid_argument);
  EXPECT_EQ(plugin.create_instance({{"iface", "70000"}}, id),
            Status::invalid_argument);
}

}  // namespace
}  // namespace rp
