// Tests for the IP core data path: validation, TTL/checksum handling, gate
// invocation and verdicts, routing (table + L4-switching plugin), ICMP
// error generation, output queueing, and the BestEffortCore baseline.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <type_traits>

#include "core/best_effort.hpp"
#include "core/ip_core.hpp"
#include "netbase/byteorder.hpp"
#include "pkt/builder.hpp"
#include "pkt/headers.hpp"
#include "plugin/pcu.hpp"
#include "route/route_plugin.hpp"

namespace rp::core {
namespace {

using netbase::IpAddr;
using netbase::Ipv4Addr;
using plugin::PluginType;

class VerdictInstance final : public plugin::PluginInstance {
 public:
  explicit VerdictInstance(plugin::Verdict v) : verdict_(v) {}
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    ++calls;
    return verdict_;
  }
  int calls{0};

 private:
  plugin::Verdict verdict_;
};

class VerdictPlugin final : public plugin::Plugin {
 public:
  VerdictPlugin(std::string name, PluginType type, plugin::Verdict v)
      : Plugin(std::move(name), type), verdict_(v) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<VerdictInstance>(verdict_);
  }

 private:
  plugin::Verdict verdict_;
};

pkt::PacketPtr udp(const char* src, const char* dst, std::uint8_t ttl = 64,
                   std::uint16_t dport = 80) {
  pkt::UdpSpec s;
  s.src = *IpAddr::parse(src);
  s.dst = *IpAddr::parse(dst);
  s.sport = 1000;
  s.dport = dport;
  s.payload_len = 64;
  s.ttl = ttl;
  return pkt::build_udp(s);
}

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : aiu_(pcu_, clock_), core_(aiu_, routes_, ifs_, clock_) {
    ifs_.add("if0");
    ifs_.add("if1");
    routes_.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  }

  VerdictInstance* add_plugin(const char* name, PluginType type,
                              plugin::Verdict v, const char* filter) {
    pcu_.register_plugin(std::make_unique<VerdictPlugin>(name, type, v));
    plugin::InstanceId id = plugin::kNoInstance;
    pcu_.find(name)->create_instance({}, id);
    auto* inst =
        static_cast<VerdictInstance*>(pcu_.find(name)->instance(id));
    aiu_.create_filter(type, *aiu::Filter::parse(filter), inst);
    return inst;
  }

  netbase::SimClock clock_;
  plugin::PluginControlUnit pcu_;
  aiu::Aiu aiu_;
  route::RoutingTable routes_{"bsl"};
  netdev::InterfaceTable ifs_;
  IpCore core_;
};

TEST_F(CoreTest, ForwardsAndDecrementsTtlWithValidChecksum) {
  auto p = udp("10.0.0.1", "20.0.0.5", 64);
  core_.process(std::move(p));
  EXPECT_EQ(core_.counters().forwarded, 1u);
  auto out = core_.next_for_tx(1, 0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->out_iface, 1);
  pkt::Ipv4Header h;
  ASSERT_TRUE(h.parse(out->bytes()));
  EXPECT_EQ(h.ttl, 63);
  EXPECT_TRUE(pkt::Ipv4Header::verify_checksum({out->data(), 20}));
}

TEST_F(CoreTest, ResetCountersZeroesEveryFieldOnBothEntryPoints) {
  add_plugin("e1", PluginType::ipsec, plugin::Verdict::cont,
             "10.0.0.0/8 * udp * * *");
  // Drive both entry points: single-packet process() and a multi-packet
  // burst, with a mix of forwards and drops.
  core_.process(udp("10.0.0.1", "20.0.0.5"));
  core_.process(udp("10.0.0.1", "99.0.0.5"));  // no_route drop
  pkt::PacketPtr burst[3] = {udp("10.0.0.2", "20.0.0.5"),
                             udp("10.0.0.3", "20.0.0.5"),
                             udp("10.0.0.4", "20.0.0.5")};
  core_.process_burst({burst, 3});

  const CoreCounters& c = core_.counters();
  EXPECT_EQ(c.received, 5u);
  EXPECT_EQ(c.forwarded, 4u);
  EXPECT_EQ(c.total_drops(), 1u);
  EXPECT_GT(c.gate_calls, 0u);
  // process() is a burst of one: 2 single + 1 real burst = 3 chunks.
  EXPECT_EQ(c.bursts, 3u);
  EXPECT_EQ(c.burst_packets, 5u);

  core_.reset_counters();

  // Every field must read zero — including the counters the burst path
  // maintains (bursts, burst_packets, gate_calls), which a measurement
  // window started after reset depends on.
  EXPECT_EQ(c.received, 0u);
  EXPECT_EQ(c.forwarded, 0u);
  EXPECT_EQ(c.total_drops(), 0u);
  EXPECT_EQ(c.gate_calls, 0u);
  EXPECT_EQ(c.icmp_errors_sent, 0u);
  EXPECT_EQ(c.fragments_created, 0u);
  EXPECT_EQ(c.bursts, 0u);
  EXPECT_EQ(c.burst_packets, 0u);
  for (std::size_t r = 0; r < static_cast<std::size_t>(DropReason::kCount); ++r)
    EXPECT_EQ(c.drops[r], 0u) << "drop reason " << r;

  // Counting resumes cleanly on both paths after the reset.
  core_.process(udp("10.0.0.5", "20.0.0.5"));
  pkt::PacketPtr again[2] = {udp("10.0.0.6", "20.0.0.5"),
                             udp("10.0.0.7", "20.0.0.5")};
  core_.process_burst({again, 2});
  EXPECT_EQ(c.received, 3u);
  EXPECT_EQ(c.bursts, 2u);
  EXPECT_EQ(c.burst_packets, 3u);
}

// Per-stack counters are merged with +=; a field it forgot would silently
// vanish from every router-wide view. Each 64-bit word gets a distinct value
// so a skipped or misrouted field shows up as a wrong word.
template <class Counters>
void expect_plus_equals_sums_every_word() {
  static_assert(sizeof(Counters) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kWords = sizeof(Counters) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kWords>;
  Words wa{}, wb{};
  for (std::size_t i = 0; i < kWords; ++i) {
    wa[i] = 1000 + i;
    wb[i] = (i + 1) << 20;
  }
  auto a = std::bit_cast<Counters>(wa);
  a += std::bit_cast<Counters>(wb);
  const auto sum = std::bit_cast<Words>(a);
  for (std::size_t i = 0; i < kWords; ++i)
    EXPECT_EQ(sum[i], wa[i] + wb[i]) << "word " << i << " of " << kWords;
}

TEST(CoreCounters, PlusEqualsSumsEveryWord) {
  expect_plus_equals_sums_every_word<CoreCounters>();
}

TEST(NicCounters, PlusEqualsSumsEveryWord) {
  expect_plus_equals_sums_every_word<netdev::NicCounters>();
}

TEST_F(CoreTest, DropsOnNoRoute) {
  core_.process(udp("10.0.0.1", "99.0.0.5"));
  EXPECT_EQ(core_.counters().dropped(DropReason::no_route), 1u);
  EXPECT_EQ(core_.counters().forwarded, 0u);
}

TEST_F(CoreTest, DropsOnTtlExpiry) {
  core_.process(udp("10.0.0.1", "20.0.0.5", 1));
  EXPECT_EQ(core_.counters().dropped(DropReason::ttl_expired), 1u);
}

TEST_F(CoreTest, DropsOnBadChecksum) {
  auto p = udp("10.0.0.1", "20.0.0.5");
  p->data()[10] ^= 0xff;  // corrupt the header checksum
  core_.process(std::move(p));
  EXPECT_EQ(core_.counters().dropped(DropReason::bad_checksum), 1u);
}

TEST_F(CoreTest, DropsMalformed) {
  auto p = pkt::make_packet(6);
  p->data()[0] = 0x00;
  core_.process(std::move(p));
  EXPECT_EQ(core_.counters().dropped(DropReason::malformed), 1u);
}

TEST_F(CoreTest, GateDropVerdictEnforcesPolicy) {
  auto* fw = add_plugin("fw", PluginType::firewall, plugin::Verdict::drop,
                        "<*, *, udp, *, 80, *>");
  core_.process(udp("10.0.0.1", "20.0.0.5", 64, 80));
  core_.process(udp("10.0.0.1", "20.0.0.5", 64, 443));
  EXPECT_EQ(fw->calls, 1);  // only the dport-80 flow hits the filter
  EXPECT_EQ(core_.counters().dropped(DropReason::policy), 1u);
  EXPECT_EQ(core_.counters().forwarded, 1u);
}

TEST_F(CoreTest, GateContinueInvokesPluginPerPacket) {
  auto* mon = add_plugin("mon", PluginType::stats, plugin::Verdict::cont,
                         "<*, *, *, *, *, *>");
  for (int i = 0; i < 5; ++i) core_.process(udp("10.0.0.1", "20.0.0.5"));
  EXPECT_EQ(mon->calls, 5);
  EXPECT_EQ(core_.counters().forwarded, 5u);
}

TEST_F(CoreTest, RoutingPluginOverridesTableLookup) {
  pcu_.register_plugin(std::make_unique<route::RoutePlugin>());
  plugin::InstanceId id = plugin::kNoInstance;
  plugin::Config cfg;
  cfg.set("iface", "0");
  ASSERT_EQ(pcu_.find("l4route")->create_instance(cfg, id), netbase::Status::ok);
  auto* inst = pcu_.find("l4route")->instance(id);
  // Route dport-80 flows out if0 even though the table says if1.
  aiu_.create_filter(PluginType::routing,
                     *aiu::Filter::parse("* * udp * 80 *"), inst);

  core_.process(udp("10.0.0.1", "20.0.0.5", 64, 80));
  core_.process(udp("10.0.0.1", "20.0.0.5", 64, 443));
  auto p80 = core_.next_for_tx(0, 0);
  ASSERT_NE(p80, nullptr);
  auto p443 = core_.next_for_tx(1, 0);
  ASSERT_NE(p443, nullptr);
}

TEST_F(CoreTest, IcmpTimeExceededEmitted) {
  core_.config().emit_icmp_errors = true;
  routes_.add(*netbase::IpPrefix::parse("10.0.0.0/8"), {0, {}});
  core_.process(udp("10.0.0.1", "20.0.0.5", 1));
  EXPECT_EQ(core_.counters().icmp_errors_sent, 1u);
  // The error is routed back toward the source out if0.
  auto icmp = core_.next_for_tx(0, 0);
  ASSERT_NE(icmp, nullptr);
  pkt::Ipv4Header h;
  ASSERT_TRUE(h.parse(icmp->bytes()));
  EXPECT_EQ(h.proto, 1);
  EXPECT_EQ(h.dst.to_string(), "10.0.0.1");
  pkt::IcmpHeader ih;
  ASSERT_TRUE(ih.parse(icmp->bytes().subspan(20)));
  EXPECT_EQ(ih.type, 11);
}

TEST_F(CoreTest, PortFifoLimitDropsExcess) {
  core_.config().port_fifo_limit = 2;
  for (int i = 0; i < 5; ++i) core_.process(udp("10.0.0.1", "20.0.0.5"));
  EXPECT_EQ(core_.counters().forwarded, 2u);
  EXPECT_EQ(core_.counters().dropped(DropReason::queue_full), 3u);
}

TEST_F(CoreTest, Ipv6ForwardingDecrementsHopLimit) {
  routes_.add(*netbase::IpPrefix::parse("2001:db8::/32"), {1, {}});
  pkt::UdpSpec s;
  s.src = *IpAddr::parse("2001:db8::1");
  s.dst = *IpAddr::parse("2001:db8::2");
  s.sport = 5;
  s.dport = 6;
  s.payload_len = 40;
  core_.process(pkt::build_udp(s));
  auto out = core_.next_for_tx(1, 0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->data()[7], 63);  // hop limit decremented
}

TEST(BestEffortCore, MatchesEisrForwardingBehaviour) {
  route::RoutingTable routes("bsl");
  netdev::InterfaceTable ifs;
  ifs.add("if0");
  ifs.add("if1");
  routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  BestEffortCore core(routes, ifs);

  core.process(udp("10.0.0.1", "20.0.0.5", 64));
  EXPECT_EQ(core.counters().forwarded, 1u);
  auto out = core.next_for_tx(1, 0);
  ASSERT_NE(out, nullptr);
  pkt::Ipv4Header h;
  ASSERT_TRUE(h.parse(out->bytes()));
  EXPECT_EQ(h.ttl, 63);
  EXPECT_TRUE(pkt::Ipv4Header::verify_checksum({out->data(), 20}));

  core.process(udp("10.0.0.1", "99.0.0.5"));
  EXPECT_EQ(core.counters().dropped(DropReason::no_route), 1u);
  core.process(udp("10.0.0.1", "20.0.0.5", 1));
  EXPECT_EQ(core.counters().dropped(DropReason::ttl_expired), 1u);
  EXPECT_FALSE(core.tx_backlog(0));
}

}  // namespace
}  // namespace rp::core
