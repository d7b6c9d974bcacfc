// Differential proof for grouped (batch-native) gate dispatch: with the
// same gate order and the same trace, a core fed in chunks (groups of
// packets, one handle_burst call each) must be observationally identical
// to the same core fed one packet per process() call (the engine's
// lone-survivor steps, one handle_packet call per gate) — same counters,
// same per-reason drops, same per-instance invocation totals, same
// per-flow soft state, and byte-identical egress in identical order — for
// the Table-3 gate order and a permutation of it, including mid-burst
// verdict splits (drop/consume at different gates), ICMP error re-entry,
// an ICMP error that grows the flow table mid-chunk, and the default
// handle_burst shim.
//
// The sharded and adversarial variants live in the ShardDiff / WireFuzz
// suites (names chosen so ctest's parallel-diff-tsan and fuzz labels pick
// them up): ShardDiff.GateBatch* replays a seeded trace through a
// one-packet-at-a-time single stack and an N-worker ShardedDatapath,
// N ∈ {1, 2, 4}; WireFuzz.GateBatch* drives identically-seeded
// adversarial streams through a chunked and a one-at-a-time core and
// demands identical counters and egress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/ip_core.hpp"
#include "parallel/sharded_datapath.hpp"
#include "pkt/builder.hpp"
#include "pkt/headers.hpp"
#include "plugin/pcu.hpp"
#include "sched/drr.hpp"
#include "telemetry/flow_export.hpp"
#include "tgen/adversarial.hpp"

namespace rp::core {
namespace {

using netbase::IpAddr;
using plugin::PluginType;
using plugin::Verdict;

// Batch-native instance with a per-packet policy: drop one dport, consume
// another, pass the rest — so one handle_burst call can split a group
// mid-run. Per-flow soft state is a counter smuggled through the void*
// slot; both paths must leave identical counts behind. handle_packet and
// handle_burst share judge(), so the per-packet path, the grouped path,
// and the default shim all apply the same policy.
class JudgeInstance final : public plugin::PluginInstance {
 public:
  JudgeInstance(std::uint16_t drop_dport, std::uint16_t consume_dport)
      : drop_dport_(drop_dport), consume_dport_(consume_dport) {}

  Verdict handle_packet(pkt::Packet& p, void** soft) override {
    ++packet_calls;
    return judge(p, soft);
  }
  void handle_burst(plugin::PacketRun& run) override {
    ++burst_calls;
    burst_pkts += run.size();
    for (std::size_t i = 0; i < run.size(); ++i)
      run.set_verdict(i, judge(run.packet(i), run.soft(i)));
  }

  std::uint64_t judged{0};
  std::uint64_t consumed_n{0};
  std::uint64_t packet_calls{0};
  std::uint64_t burst_calls{0};
  std::uint64_t burst_pkts{0};

 private:
  Verdict judge(pkt::Packet& p, void** soft) {
    ++judged;
    if (soft)
      *soft = reinterpret_cast<void*>(
          reinterpret_cast<std::uintptr_t>(*soft) + 1);
    if (drop_dport_ && p.key.dport == drop_dport_) return Verdict::drop;
    if (consume_dport_ && p.key.dport == consume_dport_) {
      ++consumed_n;
      return Verdict::consumed;
    }
    return Verdict::cont;
  }

  std::uint16_t drop_dport_;
  std::uint16_t consume_dport_;
};

class JudgePlugin final : public plugin::Plugin {
 public:
  JudgePlugin(std::string name, PluginType type, std::uint16_t drop_dport,
              std::uint16_t consume_dport)
      : Plugin(std::move(name), type),
        drop_dport_(drop_dport),
        consume_dport_(consume_dport) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<JudgeInstance>(drop_dport_, consume_dport_);
  }

 private:
  std::uint16_t drop_dport_;
  std::uint16_t consume_dport_;
};

// A plugin that does NOT override handle_burst: the grouped path must fall
// back to the default shim (loop handle_packet) with unchanged semantics.
class ShimOnlyInstance final : public plugin::PluginInstance {
 public:
  Verdict handle_packet(pkt::Packet& p, void** soft) override {
    ++calls;
    if (soft)
      *soft = reinterpret_cast<void*>(
          reinterpret_cast<std::uintptr_t>(*soft) + 1);
    return p.key.dport == 80 ? Verdict::drop : Verdict::cont;
  }
  std::uint64_t calls{0};
};

class ShimOnlyPlugin final : public plugin::Plugin {
 public:
  ShimOnlyPlugin(std::string name, PluginType type)
      : Plugin(std::move(name), type) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<ShimOnlyInstance>();
  }
};

// The Table-3 gate order and a permutation of it; the grouped engine must
// serve both.
const std::vector<PluginType> kT3Order = {
    PluginType::ipopt, PluginType::ipsec, PluginType::stats};
const std::vector<PluginType> kPermutedOrder = {
    PluginType::stats, PluginType::ipsec, PluginType::ipopt};

// The reference every differential compares against: the same stack fed
// one packet per process() call, a lone survivor in every chunk.
void process_one_at_a_time(IpCore& core, std::span<pkt::PacketPtr> pkts) {
  for (auto& p : pkts) core.process(std::move(p));
}

JudgeInstance* add_judge(plugin::PluginControlUnit& pcu, aiu::Aiu& aiu,
                         const char* name, PluginType type,
                         std::uint16_t drop_dport,
                         std::uint16_t consume_dport, const char* filter) {
  pcu.register_plugin(
      std::make_unique<JudgePlugin>(name, type, drop_dport, consume_dport));
  plugin::InstanceId id = plugin::kNoInstance;
  pcu.find(name)->create_instance({}, id);
  auto* inst = static_cast<JudgeInstance*>(pcu.find(name)->instance(id));
  aiu.create_filter(type, *aiu::Filter::parse(filter), inst);
  return inst;
}

// Three judge gates exercising every group shape: ipopt binds every flow
// (catch-all) and drops dport 80; ipsec binds only dst 20.0.0.0/24 (so
// chunks mix bound and unbound packets) and consumes dport 81; stats
// splits flows across TWO instances by dst /24 (mixed-instance groups at
// one gate), the first of which drops dport 82.
struct JudgeTaps {
  JudgeInstance* ipopt{nullptr};
  JudgeInstance* ipsec{nullptr};
  JudgeInstance* stats_a{nullptr};
  JudgeInstance* stats_b{nullptr};

  std::uint64_t judged_sum() const {
    return ipopt->judged + ipsec->judged + stats_a->judged + stats_b->judged;
  }
};

JudgeTaps install_judges(plugin::PluginControlUnit& pcu, aiu::Aiu& aiu) {
  JudgeTaps t;
  t.ipopt = add_judge(pcu, aiu, "opt", PluginType::ipopt, 80, 0,
                      "<*, *, *, *, *, *>");
  t.ipsec = add_judge(pcu, aiu, "sec", PluginType::ipsec, 0, 81,
                      "<*, 20.0.0.0/24, *, *, *, *>");
  t.stats_a = add_judge(pcu, aiu, "stA", PluginType::stats, 82, 0,
                        "<*, 20.0.0.0/24, *, *, *, *>");
  t.stats_b = add_judge(pcu, aiu, "stB", PluginType::stats, 0, 0,
                        "<*, 20.0.1.0/24, *, *, *, *>");
  return t;
}

// One complete datapath with the judge gates above, if1 at a small MTU to
// force fragmentation, and a return route so generated ICMP errors (dst =
// offender's src) egress via if0 instead of being dropped no_route.
struct Rig {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  std::unique_ptr<aiu::Aiu> aiu;
  route::RoutingTable routes{"bsl"};
  netdev::InterfaceTable ifs;
  std::unique_ptr<IpCore> core;
  JudgeTaps taps;

  Rig(const std::vector<PluginType>& order, bool icmp_errors = false,
      aiu::Aiu::Options aiu_opt = {}) {
    aiu = std::make_unique<aiu::Aiu>(pcu, clock, std::move(aiu_opt));
    ifs.add("if0");
    ifs.add("if1").set_mtu(600);
    routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
    routes.add(*netbase::IpPrefix::parse("10.0.0.0/8"), {0, {}});

    CoreConfig cfg;
    cfg.input_gates = order;
    cfg.emit_icmp_errors = icmp_errors;
    core = std::make_unique<IpCore>(*aiu, routes, ifs, clock, cfg);
    taps = install_judges(pcu, *aiu);
  }

  std::vector<std::vector<std::uint8_t>> drain(pkt::IfIndex iface) {
    std::vector<std::vector<std::uint8_t>> out;
    while (auto p = core->next_for_tx(iface, 0))
      out.emplace_back(p->data(), p->data() + p->size());
    return out;
  }

  // Final per-flow soft-state counters: flow key -> per-gate counts.
  std::map<std::string, std::vector<std::uintptr_t>> soft_state() {
    std::map<std::string, std::vector<std::uintptr_t>> m;
    aiu::FlowTable& ft = aiu->flow_table();
    for (std::size_t i = 0; i < ft.capacity(); ++i) {
      const aiu::FlowRecord& r = ft.rec(static_cast<pkt::FlowIndex>(i));
      if (!r.in_use) continue;
      std::vector<std::uintptr_t>& v = m[r.key.to_string()];
      for (std::size_t g = 0; g < aiu::kNumGates; ++g)
        v.push_back(reinterpret_cast<std::uintptr_t>(r.gates[g].soft));
    }
    return m;
  }
};

pkt::PacketPtr udp(std::uint8_t src_lo, const char* dst, std::uint8_t ttl,
                   std::uint16_t dport, std::size_t payload = 64) {
  pkt::UdpSpec s;
  s.src = IpAddr(netbase::Ipv4Addr(10, 0, 0, src_lo));
  s.dst = *IpAddr::parse(dst);
  s.sport = 1000;
  s.dport = dport;
  s.payload_len = payload;
  s.ttl = ttl;
  return pkt::build_udp(s);
}

void set_df(pkt::Packet& p) {
  std::uint8_t* h = p.data();
  h[6] |= 0x40;  // DF
  pkt::Ipv4Header::finalize_checksum(h, 20);
}

// Seeded trace in per-flow trains across both dst /24s, mixing every
// outcome the grouped path must split on: forwards, gate drops (dport 80),
// gate consumes (dport 81), second-gate drops (dport 82), TTL expiry, bad
// checksums, runts, no-route, fragmentation, and DF-too-big.
std::vector<pkt::PacketPtr> make_trace(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<pkt::PacketPtr> t;
  t.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto flow = static_cast<std::uint8_t>(1 + i / 3 % 8);  // trains
    const char* dst = (flow % 2) ? "20.0.0.5" : "20.0.1.5";
    switch (rng() % 16) {
      case 0:
        t.push_back(udp(flow, dst, 1, 9000));  // ttl_expired (+ICMP)
        break;
      case 1: {
        auto p = udp(flow, dst, 64, 9000);
        p->data()[10] ^= 0xff;  // bad_checksum
        t.push_back(std::move(p));
        break;
      }
      case 2: {
        auto p = pkt::make_packet(6);  // malformed runt (no flow key)
        p->data()[0] = 0x00;
        t.push_back(std::move(p));
        break;
      }
      case 3:
        t.push_back(udp(flow, "99.0.0.5", 64, 9000));  // no_route (+ICMP)
        break;
      case 4:
        t.push_back(udp(flow, dst, 64, 80));  // gate-1 drop
        break;
      case 5:
        t.push_back(udp(flow, dst, 64, 81));  // gate-2 consume
        break;
      case 6:
        t.push_back(udp(flow, dst, 64, 82));  // gate-3 drop (dst .0/24)
        break;
      case 7:
        t.push_back(udp(flow, dst, 64, 9000, 1400));  // fragmented
        break;
      case 8: {
        auto p = udp(flow, dst, 64, 9000, 1400);  // DF too-big (+ICMP)
        set_df(*p);
        t.push_back(std::move(p));
        break;
      }
      default:
        t.push_back(udp(flow, dst, 64,
                        static_cast<std::uint16_t>(9000 + rng() % 4)));
    }
  }
  return t;
}

void expect_counters_equal(const CoreCounters& a, const CoreCounters& b) {
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.gate_calls, b.gate_calls);
  EXPECT_EQ(a.icmp_errors_sent, b.icmp_errors_sent);
  EXPECT_EQ(a.fragments_created, b.fragments_created);
  for (std::size_t r = 0; r < static_cast<std::size_t>(DropReason::kCount);
       ++r)
    EXPECT_EQ(a.drops[r], b.drops[r]) << "drop reason " << r;
}

void expect_taps_equal(const JudgeTaps& a, const JudgeTaps& b) {
  EXPECT_EQ(a.ipopt->judged, b.ipopt->judged);
  EXPECT_EQ(a.ipsec->judged, b.ipsec->judged);
  EXPECT_EQ(a.stats_a->judged, b.stats_a->judged);
  EXPECT_EQ(a.stats_b->judged, b.stats_b->judged);
  EXPECT_EQ(a.ipsec->consumed_n, b.ipsec->consumed_n);
}

// Drains both rigs and compares their egress. if1 carries the forwarded
// trace and must match byte for byte, in order. if0 carries only the ICMP
// errors, compared per ICMP type in order: a chunk validates before it
// forwards, so its time-exceeded errors leave ahead of the unreachable and
// frag-needed errors its tail emits, where one-at-a-time processing
// interleaves the types in arrival order.
void expect_same_egress(Rig& ref, Rig& dut, std::size_t at) {
  auto oa = ref.drain(1);
  auto ob = dut.drain(1);
  ASSERT_EQ(oa.size(), ob.size()) << "iface 1 after packet " << at;
  for (std::size_t i = 0; i < oa.size(); ++i)
    EXPECT_EQ(oa[i], ob[i]) << "iface 1 after packet " << at << " egress "
                            << i;
  using ByType = std::map<std::uint8_t, std::vector<std::vector<std::uint8_t>>>;
  auto by_type = [](std::vector<std::vector<std::uint8_t>> pkts) {
    ByType m;
    for (auto& b : pkts) {
      const std::uint8_t type = b.size() > 20 ? b[20] : 0;
      m[type].push_back(std::move(b));
    }
    return m;
  };
  EXPECT_EQ(by_type(ref.drain(0)), by_type(dut.drain(0)))
      << "iface 0 after packet " << at;
}

// Same trace, same gate order: the reference takes one packet per process()
// call, the device under test irregular chunks.
void expect_equivalent(const std::vector<PluginType>& order, bool t3_order,
                       bool icmp_errors) {
  SCOPED_TRACE(std::string(t3_order ? "t3 order" : "permuted order") +
               (icmp_errors ? "+icmp" : ""));
  Rig ref(order, icmp_errors), dut(order, icmp_errors);
  auto trace = make_trace(t3_order ? 7 : 11, 600);

  std::vector<pkt::PacketPtr> a, b;
  for (const auto& p : trace) {
    a.push_back(pkt::clone_packet(*p));
    b.push_back(pkt::clone_packet(*p));
  }

  // Irregular chunking, including chunks above Aiu::kMaxBurst so internal
  // re-chunking and single-survivor fallback chunks both occur. Both rigs
  // drain after every chunk.
  const std::size_t sizes[] = {1, 2, 3, 5, 8, 13, 21, 32, 40};
  std::size_t o = 0, s = 0;
  while (o < b.size()) {
    const std::size_t n = std::min(sizes[s++ % std::size(sizes)], b.size() - o);
    process_one_at_a_time(*ref.core, {a.data() + o, n});
    dut.core->process_burst({b.data() + o, n});
    o += n;
    expect_same_egress(ref, dut, o);
  }

  expect_counters_equal(ref.core->counters(), dut.core->counters());
  expect_taps_equal(ref.taps, dut.taps);
  EXPECT_EQ(ref.soft_state(), dut.soft_state());

  // The one-at-a-time reference must never see handle_burst; the chunked
  // rig must dispatch groups natively (per-packet calls remain only for
  // single-survivor fallback chunks).
  EXPECT_EQ(ref.taps.ipopt->burst_calls, 0u);
  EXPECT_GT(dut.taps.ipopt->burst_calls, 0u);
  EXPECT_GT(dut.taps.stats_b->burst_calls, 0u);

  // Group accounting: every group histogrammed, sizes add up, and chunks
  // with two or more survivors were counted whatever the gate order.
  const CoreCounters& cc = dut.core->counters();
  EXPECT_GT(cc.gate_groups, 0u);
  std::uint64_t hist_sum = 0;
  for (auto h : cc.group_size_hist) hist_sum += h;
  EXPECT_EQ(hist_sum, cc.gate_groups);
  EXPECT_GE(cc.gate_group_pkts, cc.gate_groups);
  EXPECT_GT(cc.fused_bursts, 0u);
  EXPECT_EQ(ref.core->counters().gate_groups, 0u);

  // Sanity: the trace really exercised every outcome, including mid-burst
  // splits at three different gates and (optionally) ICMP generation.
  const CoreCounters& ca = ref.core->counters();
  EXPECT_GT(ca.forwarded, 0u);
  EXPECT_GT(ca.fragments_created, 0u);
  EXPECT_GT(ca.dropped(DropReason::ttl_expired), 0u);
  EXPECT_GT(ca.dropped(DropReason::bad_checksum), 0u);
  EXPECT_GT(ca.dropped(DropReason::malformed), 0u);
  EXPECT_GT(ca.dropped(DropReason::no_route), 0u);
  EXPECT_GT(ca.dropped(DropReason::policy), 0u);
  EXPECT_GT(ref.taps.ipsec->consumed_n, 0u);
  EXPECT_GT(ref.taps.stats_a->judged, 0u);
  EXPECT_GT(ref.taps.stats_b->judged, 0u);
  if (icmp_errors) {
    EXPECT_GT(ca.icmp_errors_sent, 0u);
  }
}

TEST(GateBatch, GroupedMatchesPerPacket) {
  expect_equivalent(kPermutedOrder, /*t3_order=*/false,
                    /*icmp_errors=*/false);
}

TEST(GateBatch, FusedChainMatchesPerPacket) {
  expect_equivalent(kT3Order, /*t3_order=*/true, /*icmp_errors=*/false);
}

TEST(GateBatch, IcmpReentryMatchesPerPacket) {
  expect_equivalent(kT3Order, /*t3_order=*/true, /*icmp_errors=*/true);
  expect_equivalent(kPermutedOrder, /*t3_order=*/false,
                    /*icmp_errors=*/true);
}

// The grouped tail used to read each packet's flow record through a pointer
// taken before the chunk's first tail ran. The first packet below has no
// route, so its tail emits an ICMP error that re-enters process() and
// creates a fifth flow in a table with room for four; the table grows,
// every record moves, and the next packet's routing-gate read used to land
// in freed memory.
TEST(GateBatch, IcmpErrorThatGrowsFlowTableMidChunk) {
  aiu::Aiu::Options four_flows;
  four_flows.initial_flows = 4;
  Rig ref(kT3Order, /*icmp_errors=*/true, four_flows);
  Rig dut(kT3Order, /*icmp_errors=*/true, four_flows);
  // A DRR bound at the sched gate for every flow, so the tail reads the
  // routing and sched bindings off each packet's record.
  auto bind_drr = [](Rig& r) {
    r.pcu.register_plugin(std::make_unique<sched::DrrPlugin>());
    plugin::InstanceId id = plugin::kNoInstance;
    r.pcu.find("drr")->create_instance({}, id);
    plugin::PluginInstance* inst = r.pcu.find("drr")->instance(id);
    r.aiu->create_filter(PluginType::sched,
                         *aiu::Filter::parse("<*, *, *, *, *, *>"), inst);
    return static_cast<OutputScheduler*>(inst);
  };
  OutputScheduler* ref_drr = bind_drr(ref);
  OutputScheduler* dut_drr = bind_drr(dut);

  std::vector<pkt::PacketPtr> a, b;
  a.push_back(udp(1, "99.0.0.5", 64, 9000));  // no route: ICMP error
  a.push_back(udp(2, "20.0.0.5", 64, 9000));
  a.push_back(udp(3, "20.0.1.5", 64, 9000));
  a.push_back(udp(4, "20.0.0.6", 64, 9000));
  for (const auto& p : a) b.push_back(pkt::clone_packet(*p));
  process_one_at_a_time(*ref.core, a);
  dut.core->process_burst(b);

  const CoreCounters& cc = dut.core->counters();
  expect_counters_equal(ref.core->counters(), cc);
  EXPECT_EQ(cc.received, 5u);
  EXPECT_EQ(cc.forwarded, 4u);
  EXPECT_EQ(cc.icmp_errors_sent, 1u);
  EXPECT_EQ(cc.fused_bursts, 1u);  // one chunk with two or more survivors
  EXPECT_GT(dut.aiu->flow_table().capacity(), 4u);  // and the table grew
  expect_taps_equal(ref.taps, dut.taps);

  // Both schedulers hold the error and the three forwards, in one order.
  auto drain = [](OutputScheduler* q) {
    std::vector<std::vector<std::uint8_t>> out;
    while (auto p = q->dequeue(0))
      out.emplace_back(p->data(), p->data() + p->size());
    return out;
  };
  const auto ra = drain(ref_drr);
  EXPECT_EQ(ra.size(), 4u);
  EXPECT_EQ(ra, drain(dut_drr));
}

// A plugin without handle_burst must go through the default shim with
// identical behaviour: same calls, same verdicts, same counters.
TEST(GateBatch, DefaultShimMatchesPerPacket) {
  struct Stack {
    netbase::SimClock clock;
    plugin::PluginControlUnit pcu;
    std::unique_ptr<aiu::Aiu> aiu;
    route::RoutingTable routes{"bsl"};
    netdev::InterfaceTable ifs;
    std::unique_ptr<IpCore> core;
    ShimOnlyInstance* inst{nullptr};

    Stack() {
      aiu = std::make_unique<aiu::Aiu>(pcu, clock);
      ifs.add("if0");
      ifs.add("if1");
      routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
      CoreConfig cfg;
      cfg.input_gates = kT3Order;
      core = std::make_unique<IpCore>(*aiu, routes, ifs, clock, cfg);
      pcu.register_plugin(
          std::make_unique<ShimOnlyPlugin>("shim", PluginType::ipopt));
      plugin::InstanceId id = plugin::kNoInstance;
      pcu.find("shim")->create_instance({}, id);
      inst = static_cast<ShimOnlyInstance*>(pcu.find("shim")->instance(id));
      aiu->create_filter(PluginType::ipopt,
                         *aiu::Filter::parse("<*, *, *, *, *, *>"), inst);
    }
  };
  Stack ref, dut;

  std::vector<pkt::PacketPtr> a, b;
  for (int i = 0; i < 96; ++i) {
    auto p = udp(static_cast<std::uint8_t>(1 + i % 5), "20.0.0.5", 64,
                 static_cast<std::uint16_t>(i % 7 == 3 ? 80 : 9000));
    a.push_back(pkt::clone_packet(*p));
    b.push_back(std::move(p));
  }
  process_one_at_a_time(*ref.core, a);
  for (std::size_t o = 0; o < b.size(); o += 32)
    dut.core->process_burst({b.data() + o, 32});

  expect_counters_equal(ref.core->counters(), dut.core->counters());
  EXPECT_EQ(ref.inst->calls, dut.inst->calls);
  EXPECT_GT(ref.inst->calls, 0u);
  EXPECT_GT(dut.core->counters().gate_groups, 0u);  // shimmed, still grouped
}

// Full same-flow bursts: exact group accounting. 3 bound gates x 2 chunks
// of 32 identical-flow packets = 6 groups of 32, all in the 17+ bucket,
// and both chunks counted as fused (two or more survivors).
TEST(GateBatch, GroupCountersExact) {
  Rig rig(kT3Order);
  std::vector<pkt::PacketPtr> batch;
  for (int i = 0; i < 64; ++i) batch.push_back(udp(1, "20.0.0.5", 64, 9000));
  rig.core->process_burst({batch.data(), 32});
  rig.core->process_burst({batch.data() + 32, 32});

  const CoreCounters& cc = rig.core->counters();
  EXPECT_EQ(cc.gate_groups, 6u);
  EXPECT_EQ(cc.gate_group_pkts, 192u);
  EXPECT_EQ(cc.fused_bursts, 2u);
  EXPECT_EQ(cc.group_size_hist[CoreCounters::group_hist_bucket(32)], 6u);
  EXPECT_EQ(rig.taps.ipopt->burst_calls, 2u);
  EXPECT_EQ(rig.taps.ipopt->burst_pkts, 64u);
  EXPECT_EQ(rig.taps.ipopt->packet_calls, 0u);
  EXPECT_EQ(cc.forwarded, 64u);
}

// ---------------------------------------------------------------------------
// Sharded differential: a single stack fed one packet at a time vs an
// N-worker ShardedDatapath on the same seeded trace. The suite name keeps these
// under ctest's parallel-diff-tsan label, so grouped dispatch runs under
// TSan against real worker threads. Per-flow dispositions are compared as
// multisets: the grouped path may retire a chunk's drops before its
// forwards, so cross-path trace order within a flow is not specified.

struct FlowObs {
  std::uint64_t packets{0};
  std::uint64_t bytes{0};
  std::vector<std::pair<std::uint8_t, std::uint8_t>> dispositions;
  std::vector<std::vector<std::uint8_t>> egress;
};
using FlowMap = std::map<std::string, FlowObs>;

void record_exports(FlowMap& m, const telemetry::MemorySink& sink) {
  for (std::size_t i = sink.stored(); i-- > 0;) {
    const telemetry::FlowExportRecord& r = sink.recent(i);
    FlowObs& o = m[r.key.to_string()];
    o.packets += r.packets;
    o.bytes += r.bytes;
  }
}

void record_traces(FlowMap& m, const telemetry::TraceRing& ring) {
  ASSERT_LE(ring.captured(), ring.capacity()) << "trace ring overflowed";
  for (std::size_t i = ring.stored(); i-- > 0;) {
    const telemetry::TraceRecord& r = ring.recent(i);
    m[r.key.to_string()].dispositions.emplace_back(
        static_cast<std::uint8_t>(r.disposition), r.drop_reason);
  }
}

void record_egress(FlowMap& m, const std::uint8_t* data, std::size_t size) {
  auto p = pkt::make_packet(size);
  std::copy(data, data + size, p->data());
  std::string key =
      pkt::extract_flow_key(*p) ? p->key.to_string() : std::string("?");
  m[key].egress.emplace_back(data, data + size);
}

void expect_flowmaps_equal(FlowMap& ref, FlowMap& dut) {
  for (auto* m : {&ref, &dut})
    for (auto& [key, o] : *m)
      std::sort(o.dispositions.begin(), o.dispositions.end());
  ASSERT_EQ(ref.size(), dut.size());
  for (auto& [key, a] : ref) {
    auto it = dut.find(key);
    ASSERT_NE(it, dut.end()) << "flow missing in the sharded path: " << key;
    FlowObs& b = it->second;
    EXPECT_EQ(a.packets, b.packets) << key;
    EXPECT_EQ(a.bytes, b.bytes) << key;
    EXPECT_EQ(a.dispositions, b.dispositions) << key;
    ASSERT_EQ(a.egress.size(), b.egress.size()) << key;
    for (std::size_t i = 0; i < a.egress.size(); ++i)
      EXPECT_EQ(a.egress[i], b.egress[i]) << key << " egress #" << i;
  }
}

parallel::ShardOptions gb_shard_options() {
  parallel::ShardOptions opt;
  opt.core.input_gates = kT3Order;
  opt.telemetry.sample_every = 1;  // trace every classified packet
  opt.telemetry.trace_ring = 4096;
  opt.telemetry.memory_sink_cap = 4096;
  return opt;
}

JudgeTaps setup_shard_stack(parallel::ShardContext& ctx) {
  ctx.interfaces().add("if0");
  ctx.interfaces().add("if1").set_mtu(600);
  ctx.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  ctx.routes().add(*netbase::IpPrefix::parse("10.0.0.0/8"), {0, {}});
  return install_judges(ctx.pcu(), ctx.aiu());
}

constexpr netbase::SimTime kSweepAll =
    std::numeric_limits<netbase::SimTime>::max();

void run_gb_shard_diff(std::uint32_t workers, std::uint64_t seed) {
  SCOPED_TRACE("workers=" + std::to_string(workers) +
               " seed=" + std::to_string(seed));
  auto trace = make_trace(seed, 600);

  // ---- reference: one private stack, one packet per process() call ----
  parallel::ShardContext ref(0, gb_shard_options());
  JudgeTaps ref_taps = setup_shard_stack(ref);
  FlowMap ref_map;
  {
    for (const auto& p : trace) ref.core().process(pkt::clone_packet(*p));
    for (pkt::IfIndex ifx : {pkt::IfIndex{0}, pkt::IfIndex{1}})
      while (auto p = ref.core().next_for_tx(ifx, ref.clock().now()))
        record_egress(ref_map, p->data(), p->size());
    ref.aiu().flow_table().expire_idle(kSweepAll);
    record_exports(ref_map, static_cast<const telemetry::MemorySink&>(
                                ref.telemetry().sink()));
    record_traces(ref_map, ref.telemetry().traces());
  }

  // ---- device under test: N workers, chunked ----
  std::vector<JudgeTaps> taps(workers);
  parallel::ShardedDatapath::Options opt;
  opt.workers = workers;
  opt.ring_capacity = 256;
  opt.shard = gb_shard_options();
  parallel::ShardedDatapath dp(opt, [&taps](parallel::ShardContext& ctx) {
    taps[ctx.id()] = setup_shard_stack(ctx);
  });

  struct Egress {
    std::vector<std::vector<std::uint8_t>> packets;
  };
  std::vector<Egress> egress(workers);
  dp.set_tx_handler(
      [&egress](parallel::ShardContext& ctx, pkt::IfIndex, pkt::PacketPtr p) {
        egress[ctx.id()].packets.emplace_back(p->data(),
                                              p->data() + p->size());
      });

  for (const auto& p : trace) dp.submit(pkt::clone_packet(*p));
  dp.quiesce();
  dp.sweep_flows(kSweepAll);
  const CoreCounters dut_counters = dp.aggregate_counters();

  dp.stop();
  FlowMap dut_map;
  for (std::uint32_t i = 0; i < workers; ++i) {
    parallel::ShardContext& ctx = dp.worker(i).ctx();
    record_exports(dut_map, static_cast<const telemetry::MemorySink&>(
                                ctx.telemetry().sink()));
    record_traces(dut_map, ctx.telemetry().traces());
  }
  for (const auto& e : egress)
    for (const auto& bytes : e.packets)
      record_egress(dut_map, bytes.data(), bytes.size());

  // ---- equivalence ----
  expect_flowmaps_equal(ref_map, dut_map);
  expect_counters_equal(ref.core().counters(), dut_counters);

  std::uint64_t judged = 0, burst_calls = 0;
  for (const auto& t : taps) {
    judged += t.judged_sum();
    burst_calls += t.ipopt->burst_calls + t.ipsec->burst_calls +
                   t.stats_a->burst_calls + t.stats_b->burst_calls;
  }
  EXPECT_EQ(ref_taps.judged_sum(), judged);
  EXPECT_GT(burst_calls, 0u);
  EXPECT_GT(dut_counters.gate_groups, 0u);
  EXPECT_GT(dut_counters.fused_bursts, 0u);
  EXPECT_EQ(ref.core().counters().gate_groups, 0u);
}

TEST(ShardDiff, GateBatchOneWorkerMatchesPerPacket) {
  for (std::uint64_t seed : {3ull, 42ull}) run_gb_shard_diff(1, seed);
}

TEST(ShardDiff, GateBatchTwoWorkersMatchPerPacket) {
  for (std::uint64_t seed : {3ull, 42ull}) run_gb_shard_diff(2, seed);
}

TEST(ShardDiff, GateBatchFourWorkersMatchPerPacket) {
  for (std::uint64_t seed : {3ull, 42ull, 1337ull}) run_gb_shard_diff(4, seed);
}

// ---------------------------------------------------------------------------
// Adversarial differential: identically-seeded AdversarialGen streams
// through a chunked core and a one-packet-at-a-time core, for both gate
// orders; counters and egress must stay identical packet for packet. The
// suite name keeps this under ctest's fuzz label.

struct FuzzStack {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  std::unique_ptr<aiu::Aiu> aiu;
  route::RoutingTable routes{"bsl"};
  netdev::InterfaceTable ifs;
  std::unique_ptr<IpCore> core;
  JudgeInstance* taps[3] = {};

  explicit FuzzStack(const std::vector<PluginType>& order) {
    aiu = std::make_unique<aiu::Aiu>(pcu, clock);
    ifs.add("if0");
    ifs.add("if1");
    // Default routes for both families: every well-formed mutant has
    // somewhere to go, so the gates see the full surviving stream.
    routes.add(*netbase::IpPrefix::parse("0.0.0.0/0"), {1, {}});
    routes.add(*netbase::IpPrefix::parse("::/0"), {1, {}});

    CoreConfig cfg;
    cfg.input_gates = order;
    core = std::make_unique<IpCore>(*aiu, routes, ifs, clock, cfg);
    const char* names[] = {"f1", "f2", "f3"};
    for (std::size_t g = 0; g < 3; ++g)
      taps[g] = add_judge(pcu, *aiu, names[g], order[g], 0, 0,
                          "<*, *, *, *, *, *>");
  }
};

TEST(WireFuzz, GateBatchFusedDifferential) {
  for (const auto* order : {&kT3Order, &kPermutedOrder})
    for (std::uint64_t seed : {1ull, 42ull}) {
      SCOPED_TRACE(std::string(order == &kT3Order ? "t3" : "permuted") +
                   " order, seed=" + std::to_string(seed));
      FuzzStack ref(*order), dut(*order);
      tgen::AdversarialGen ga(seed), gb(seed);

      constexpr std::size_t kPackets = 25000;
      std::vector<pkt::PacketPtr> a(32), b(32);
      for (std::size_t done = 0; done < kPackets; done += 32) {
        for (std::size_t i = 0; i < 32; ++i) {
          a[i] = ga.next();
          b[i] = gb.next();
        }
        process_one_at_a_time(*ref.core, a);
        dut.core->process_burst(b);
        // Drain and compare in lockstep so the port FIFOs never overflow
        // and a divergence is reported at the burst that caused it.
        for (pkt::IfIndex ifx : {pkt::IfIndex{0}, pkt::IfIndex{1}}) {
          for (;;) {
            auto pa = ref.core->next_for_tx(ifx, 0);
            auto pb = dut.core->next_for_tx(ifx, 0);
            ASSERT_EQ(pa != nullptr, pb != nullptr)
                << "egress count diverged at packet " << done;
            if (!pa) break;
            ASSERT_EQ(std::vector<std::uint8_t>(pa->data(),
                                                pa->data() + pa->size()),
                      std::vector<std::uint8_t>(pb->data(),
                                                pb->data() + pb->size()))
                << "egress bytes diverged at packet " << done;
          }
        }
      }

      expect_counters_equal(ref.core->counters(), dut.core->counters());
      for (std::size_t g = 0; g < 3; ++g)
        EXPECT_EQ(ref.taps[g]->judged, dut.taps[g]->judged) << "gate " << g;
      EXPECT_GT(dut.core->counters().gate_groups, 0u);
      EXPECT_GT(dut.core->counters().fused_bursts, 0u);
      EXPECT_GT(ref.core->counters().forwarded, 0u);
    }
}

}  // namespace
}  // namespace rp::core
