// Tests for the extension features: IPv4 fragmentation at the output MTU,
// the periodic flow-table sweep in the router kernel, and the TCP
// congestion-backoff monitoring plugin.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/router.hpp"
#include "mgmt/register_all.hpp"
#include "mgmt/rplib.hpp"
#include "pkt/builder.hpp"
#include "pkt/headers.hpp"
#include "stats/tcpmon_plugin.hpp"

namespace rp {
namespace {

using netbase::SimTime;

pkt::PacketPtr big_udp(std::size_t payload, bool df = false) {
  pkt::UdpSpec s;
  s.src = *netbase::IpAddr::parse("10.0.0.1");
  s.dst = *netbase::IpAddr::parse("20.0.0.1");
  s.sport = 9;
  s.dport = 10;
  s.payload_len = payload;
  s.payload_fill = 0xa5;
  auto p = pkt::build_udp(s);
  if (df) {
    p->data()[6] = 0x40;  // DF
    pkt::Ipv4Header::finalize_checksum(p->data(), 20);
  }
  return p;
}

TEST(Fragmentation, SplitsAtOutputMtuAndReassembles) {
  core::RouterKernel k;
  k.add_interface("in0");
  auto& out = k.interfaces().add("out0", 155'000'000, 0, 1024);
  out.set_mtu(576);
  k.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});

  std::vector<pkt::PacketPtr> wire;
  out.set_tx_sink(
      [&](pkt::PacketPtr p, SimTime) { wire.push_back(std::move(p)); });

  const std::size_t payload = 1400;  // 1428-byte packet
  k.inject(0, 0, big_udp(payload));
  k.run_to_completion();

  ASSERT_GE(wire.size(), 3u);  // 1408 bytes of L3 payload / 552 -> 3 frags
  EXPECT_EQ(k.core().counters().fragments_created, wire.size());

  // Validate and reassemble.
  std::vector<std::uint8_t> reassembled(1408);
  std::size_t got_bytes = 0;
  bool saw_last = false;
  for (const auto& f : wire) {
    ASSERT_LE(f->size(), 576u);
    pkt::Ipv4Header h;
    ASSERT_TRUE(h.parse(f->bytes()));
    EXPECT_TRUE(pkt::Ipv4Header::verify_checksum({f->data(), 20}));
    const std::size_t off = std::size_t{h.frag_off} * 8;
    const std::size_t len = f->size() - 20;
    ASSERT_LE(off + len, reassembled.size());
    std::memcpy(reassembled.data() + off, f->data() + 20, len);
    got_bytes += len;
    if ((h.flags & 0x1) == 0 && h.frag_off != 0) saw_last = true;
    if (h.frag_off != 0) {
      EXPECT_EQ(off % 8, 0u);
    }
  }
  EXPECT_TRUE(saw_last);
  EXPECT_EQ(got_bytes, 1408u);
  // Payload content must survive fragmentation (UDP header + fill bytes).
  auto original = big_udp(payload);
  EXPECT_EQ(0, std::memcmp(reassembled.data(), original->data() + 20, 1408));
}

TEST(Fragmentation, DfPacketDroppedWithIcmp) {
  core::RouterKernel::Options opt;
  opt.core.emit_icmp_errors = true;
  core::RouterKernel k(opt);
  k.add_interface("in0");
  auto& out = k.interfaces().add("out0");
  out.set_mtu(576);
  k.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  k.routes().add(*netbase::IpPrefix::parse("10.0.0.0/8"), {0, {}});

  std::vector<pkt::PacketPtr> back;
  k.interfaces().by_index(0)->set_tx_sink(
      [&](pkt::PacketPtr p, SimTime) { back.push_back(std::move(p)); });

  k.inject(0, 0, big_udp(1400, /*df=*/true));
  k.run_to_completion();

  EXPECT_EQ(k.core().counters().dropped(core::DropReason::too_big), 1u);
  ASSERT_EQ(back.size(), 1u);  // ICMP "frag needed" toward the source
  pkt::IcmpHeader ih;
  ASSERT_TRUE(ih.parse(back[0]->bytes().subspan(20)));
  EXPECT_EQ(ih.type, 3);
  EXPECT_EQ(ih.code, 4);
}

TEST(Fragmentation, Ipv6NeverFragmentedByRouter) {
  core::RouterKernel k;
  k.add_interface("in0");
  auto& out = k.add_interface("out0");
  out.set_mtu(576);
  k.routes().add(*netbase::IpPrefix::parse("2001::/16"), {1, {}});
  pkt::UdpSpec s;
  s.src = *netbase::IpAddr::parse("2001::1");
  s.dst = *netbase::IpAddr::parse("2001::2");
  s.payload_len = 1400;
  k.inject(0, 0, pkt::build_udp(s));
  k.run_to_completion();
  EXPECT_EQ(k.core().counters().dropped(core::DropReason::too_big), 1u);
  EXPECT_EQ(out.counters().tx_packets, 0u);
}

TEST(FlowSweep, IdleFlowsExpireInVirtualTime) {
  core::RouterKernel::Options opt;
  opt.flow_idle_timeout = 5 * netbase::kNsPerSec;
  opt.flow_sweep_interval = netbase::kNsPerSec;
  core::RouterKernel k(opt);
  mgmt::register_builtin_modules();
  k.add_interface("in0");
  k.add_interface("out0");
  k.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  // A bound plugin so flows actually enter the table.
  mgmt::RouterPluginLib lib(k);
  lib.modload("stats");
  plugin::InstanceId id = plugin::kNoInstance;
  lib.create_instance("stats", {}, id);
  lib.bind("stats", id, "<*, *, *, *, *, *>");

  k.inject(0, 0, big_udp(100));
  k.run_until(netbase::kNsPerMs);
  EXPECT_EQ(k.aiu().flow_table().active(), 1u);

  // Run past the idle timeout: the sweep must clean the entry up.
  k.run_until(10 * netbase::kNsPerSec);
  EXPECT_EQ(k.aiu().flow_table().active(), 0u);
  EXPECT_GE(k.flows_expired(), 1u);
  EXPECT_TRUE(k.idle());  // and the sweep disarms itself (no livelock)
}

// ---------------------------------------------------------------------------

pkt::PacketPtr tcp_seg(std::uint32_t seq, std::size_t len, SimTime arrival) {
  pkt::TcpSpec s;
  s.src = *netbase::IpAddr::parse("10.0.0.1");
  s.dst = *netbase::IpAddr::parse("20.0.0.1");
  s.sport = 100;
  s.dport = 200;
  s.seq = seq;
  s.payload_len = len;
  auto p = pkt::build_tcp(s);
  p->arrival = arrival;
  return p;
}

TEST(TcpMon, CountsRetransmissions) {
  stats::TcpMonInstance mon;
  void* soft = nullptr;
  SimTime t = 0;
  // In-order data: no retransmits.
  for (std::uint32_t seq = 0; seq < 5000; seq += 1000) {
    auto p = tcp_seg(seq, 1000, t += 1'000'000);
    mon.handle_packet(*p, &soft);
  }
  EXPECT_EQ(mon.total_retransmits(), 0u);

  // Retransmission of an old segment.
  auto r = tcp_seg(2000, 1000, t += 1'000'000);
  mon.handle_packet(*r, &soft);
  EXPECT_EQ(mon.total_retransmits(), 1u);
}

TEST(TcpMon, DetectsExponentialBackoff) {
  stats::TcpMonInstance mon;
  void* soft = nullptr;
  auto first = tcp_seg(0, 1000, 0);
  mon.handle_packet(*first, &soft);
  // The same segment retransmitted with doubling gaps: 100ms, 200ms, 400ms,
  // 800ms — classic RTO backoff.
  SimTime t = 0;
  SimTime gap = 100 * netbase::kNsPerMs;
  for (int i = 0; i < 4; ++i) {
    t += gap;
    gap *= 2;
    auto p = tcp_seg(0, 1000, t);
    mon.handle_packet(*p, &soft);
  }
  EXPECT_EQ(mon.total_retransmits(), 4u);
  EXPECT_GE(mon.total_backoff_events(), 1u);

  plugin::PluginMsg msg;
  msg.custom_name = "report";
  plugin::PluginReply reply;
  ASSERT_EQ(mon.handle_message(msg, reply), netbase::Status::ok);
  EXPECT_NE(reply.text.find("rexmt=4"), std::string::npos);
}

TEST(TcpMon, IgnoresNonTcpAndSeparatesFlows) {
  stats::TcpMonInstance mon;
  void* soft_udp = nullptr;
  pkt::UdpSpec u;
  u.src = *netbase::IpAddr::parse("1.1.1.1");
  u.dst = *netbase::IpAddr::parse("2.2.2.2");
  u.payload_len = 100;
  auto up = pkt::build_udp(u);
  mon.handle_packet(*up, &soft_udp);
  EXPECT_EQ(mon.tracked_flows(), 0u);
  EXPECT_EQ(soft_udp, nullptr);

  void* soft = nullptr;
  auto p = tcp_seg(0, 100, 0);
  mon.handle_packet(*p, &soft);
  EXPECT_EQ(mon.tracked_flows(), 1u);
  mon.flow_removed(soft);
  EXPECT_EQ(mon.tracked_flows(), 0u);

  // Many retransmitting flows, half released in a seeded random order: the
  // report lists exactly the survivors, in insertion order.
  constexpr std::size_t kFlows = 32;
  std::vector<void*> softs(kFlows, nullptr);
  std::vector<pkt::FlowKey> keys;
  for (std::size_t i = 0; i < kFlows; ++i) {
    for (SimTime t : {SimTime{1}, SimTime{2}}) {  // second copy: a rexmt
      auto seg = tcp_seg(0, 100, t);
      seg->key.sport = static_cast<std::uint16_t>(1000 + i);
      mon.handle_packet(*seg, &softs[i]);
      if (t == 1) keys.push_back(seg->key);
    }
  }
  std::vector<std::size_t> order(kFlows);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(14));
  std::vector<bool> alive(kFlows, true);
  for (std::size_t n = 0; n < kFlows / 2; ++n) {
    mon.flow_removed(softs[order[n]]);
    alive[order[n]] = false;
  }
  EXPECT_EQ(mon.tracked_flows(), kFlows / 2);
  std::string expected;
  for (std::size_t i = 0; i < kFlows; ++i)
    if (alive[i]) expected += keys[i].to_string() + " segs=2 rexmt=1 backoffs=0\n";
  plugin::PluginMsg msg;
  msg.custom_name = "report";
  plugin::PluginReply reply;
  ASSERT_EQ(mon.handle_message(msg, reply), netbase::Status::ok);
  EXPECT_EQ(reply.text.substr(reply.text.find('\n') + 1), expected);
  // Release the rest: their states point back into `softs`.
  for (std::size_t n = kFlows / 2; n < kFlows; ++n)
    mon.flow_removed(softs[order[n]]);
  EXPECT_EQ(mon.tracked_flows(), 0u);
}

TEST(TcpMon, SequenceWraparound) {
  stats::TcpMonInstance mon;
  void* soft = nullptr;
  // Near the 2^32 boundary: the next in-order segment wraps; signed
  // sequence arithmetic must not flag it as a retransmission.
  auto a = tcp_seg(0xfffffc00u, 1024, 0);
  mon.handle_packet(*a, &soft);
  auto b = tcp_seg(0x00000000u, 1024, 1'000'000);  // wrapped, in order
  mon.handle_packet(*b, &soft);
  EXPECT_EQ(mon.total_retransmits(), 0u);
}

}  // namespace
}  // namespace rp
