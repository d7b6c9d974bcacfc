// Tests for the WF²Q+ scheduler (weighted shares, SEFF eligibility, the
// worst-case-fairness property a late-starting flow enjoys) and the
// token-bucket policer plugin (conformance, bursts, marking, per-flow vs
// shared buckets, end-to-end at the congestion gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "core/router.hpp"
#include "mgmt/pmgr.hpp"
#include "mgmt/register_all.hpp"
#include "mgmt/rplib.hpp"
#include "pkt/builder.hpp"
#include "sched/policer.hpp"
#include "sched/wf2q.hpp"

namespace rp::sched {
namespace {

using netbase::Status;
using plugin::Verdict;

pkt::PacketPtr flow_pkt(std::uint16_t sport, std::size_t payload = 472) {
  pkt::UdpSpec s;
  s.src = netbase::IpAddr(netbase::Ipv4Addr(10, 0, 0, 1));
  s.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
  s.sport = sport;
  s.dport = 80;
  s.payload_len = payload;
  return pkt::build_udp(s);
}

TEST(Wf2q, EqualWeightsAlternate) {
  Wf2qInstance w({});
  void* soft[2] = {};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.enqueue(flow_pkt(1), &soft[0], 0));
    ASSERT_TRUE(w.enqueue(flow_pkt(2), &soft[1], 0));
  }
  std::map<std::uint16_t, int> served;
  for (int i = 0; i < 20; ++i) {
    auto p = w.dequeue(0);
    ASSERT_NE(p, nullptr);
    ++served[p->key.sport];
  }
  EXPECT_EQ(served[1], 10);
  EXPECT_EQ(served[2], 10);
}

TEST(Wf2q, WeightedShares) {
  Wf2qInstance::Config wcfg;
  wcfg.per_flow_limit = 512;
  Wf2qInstance w(wcfg);
  plugin::PluginMsg msg;
  msg.custom_name = "setweight";
  msg.args.set("filter", "<*, *, udp, 2, *, *>");
  msg.args.set("weight", "3");
  plugin::PluginReply reply;
  ASSERT_EQ(w.handle_message(msg, reply), Status::ok);

  void* soft[2] = {};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(w.enqueue(flow_pkt(1), &soft[0], 0));
    ASSERT_TRUE(w.enqueue(flow_pkt(2), &soft[1], 0));
  }
  std::map<std::uint16_t, std::size_t> bytes;
  for (int i = 0; i < 200; ++i) {
    auto p = w.dequeue(0);
    ASSERT_NE(p, nullptr);
    bytes[p->key.sport] += p->size();
  }
  EXPECT_NEAR(static_cast<double>(bytes[2]) / bytes[1], 3.0, 0.4);
}

TEST(Wf2q, LateFlowNotStarvedNorOvercompensated) {
  // Worst-case fairness: a flow that becomes active late starts at the
  // current virtual time — it neither waits behind the whole backlog (as
  // FIFO would) nor grabs the link for a catch-up burst (as virtual-clock
  // schedulers can).
  Wf2qInstance w({});
  void* soft[2] = {};
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(w.enqueue(flow_pkt(1), &soft[0], 0));
  // Serve some of flow 1 alone.
  for (int i = 0; i < 10; ++i) ASSERT_NE(w.dequeue(0), nullptr);
  // Flow 2 wakes up.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(w.enqueue(flow_pkt(2), &soft[1], 0));
  std::map<std::uint16_t, int> served;
  for (int i = 0; i < 20; ++i) {
    auto p = w.dequeue(0);
    ASSERT_NE(p, nullptr);
    ++served[p->key.sport];
  }
  // From the moment both are backlogged, service alternates ~1:1.
  EXPECT_NEAR(served[1], served[2], 2);
}

TEST(Wf2q, PerFlowLimitAndOrphanDrain) {
  Wf2qInstance::Config cfg;
  cfg.per_flow_limit = 3;
  Wf2qInstance w(cfg);
  void* soft = nullptr;
  for (int i = 0; i < 5; ++i) w.enqueue(flow_pkt(1), &soft, 0);
  EXPECT_EQ(w.backlog_packets(), 3u);
  w.flow_removed(soft);
  EXPECT_EQ(w.queue_count(), 1u);  // drains first
  while (w.dequeue(0)) {
  }
  EXPECT_EQ(w.queue_count(), 0u);

  // Many backlogged flows, half released in a seeded random order: the
  // released queues drain and go, the survivors keep their queues.
  constexpr std::size_t kFlows = 32;
  std::vector<void*> softs(kFlows, nullptr);
  for (std::size_t i = 0; i < kFlows; ++i)
    w.enqueue(flow_pkt(static_cast<std::uint16_t>(100 + i)), &softs[i], 0);
  std::vector<std::size_t> order(kFlows);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(14));
  for (std::size_t n = 0; n < kFlows / 2; ++n) w.flow_removed(softs[order[n]]);
  EXPECT_EQ(w.queue_count(), kFlows);  // orphans drain first
  std::size_t served = 0;
  while (w.dequeue(0)) ++served;
  EXPECT_EQ(served, kFlows);
  EXPECT_EQ(w.queue_count(), kFlows / 2);
  for (std::size_t n = kFlows / 2; n < kFlows; ++n) {
    const std::size_t i = order[n];
    void* const q = softs[i];
    w.enqueue(flow_pkt(static_cast<std::uint16_t>(100 + i)), &softs[i], 0);
    EXPECT_EQ(softs[i], q);  // the survivor's own queue
  }
  EXPECT_EQ(w.queue_count(), kFlows / 2);
  EXPECT_EQ(w.backlog_packets(), kFlows / 2);
  for (std::size_t n = kFlows / 2; n < kFlows; ++n) w.flow_removed(softs[order[n]]);
  while (w.dequeue(0)) {
  }
  EXPECT_EQ(w.queue_count(), 0u);
  EXPECT_EQ(w.backlog_bytes(), 0u);
}

// ---------------------------------------------------------------------------

TEST(Policer, BurstThenRateConformance) {
  PolicerInstance::Config cfg;
  cfg.rate_bps = 8'000'000;  // 1 MB/s
  cfg.burst_bytes = 3000;
  cfg.per_flow = false;
  PolicerInstance pol(cfg);

  // Burst: the first ~3000 bytes pass on a full bucket.
  int passed = 0;
  for (int i = 0; i < 10; ++i) {
    auto p = flow_pkt(1, 472);  // 500 B
    p->arrival = 0;
    if (pol.handle_packet(*p, nullptr) == Verdict::cont) ++passed;
  }
  EXPECT_EQ(passed, 6);  // 3000 / 500

  // After 1 ms, 1000 bytes of tokens accumulated: exactly two more packets.
  passed = 0;
  for (int i = 0; i < 5; ++i) {
    auto p = flow_pkt(1, 472);
    p->arrival = netbase::kNsPerMs;
    if (pol.handle_packet(*p, nullptr) == Verdict::cont) ++passed;
  }
  EXPECT_EQ(passed, 2);
  EXPECT_EQ(pol.exceeded(), 4u + 3u);
}

TEST(Policer, MarkActionRemarksInsteadOfDropping) {
  PolicerInstance::Config cfg;
  cfg.rate_bps = 8'000;
  cfg.burst_bytes = 600;
  cfg.per_flow = false;
  cfg.mark = true;
  cfg.mark_dscp = 8;
  PolicerInstance pol(cfg);

  auto p1 = flow_pkt(1, 472);
  p1->arrival = 0;
  EXPECT_EQ(pol.handle_packet(*p1, nullptr), Verdict::cont);
  EXPECT_EQ(p1->data()[1], 0);  // conformant: untouched

  auto p2 = flow_pkt(1, 472);
  p2->arrival = 0;
  EXPECT_EQ(pol.handle_packet(*p2, nullptr), Verdict::cont);  // marked, not dropped
  EXPECT_EQ(p2->data()[1], 8 << 2);
  EXPECT_TRUE(pkt::Ipv4Header::verify_checksum({p2->data(), 20}));
}

TEST(Policer, PerFlowBucketsIsolateFlows) {
  PolicerInstance::Config cfg;
  cfg.rate_bps = 8'000;
  cfg.burst_bytes = 500;
  cfg.per_flow = true;
  PolicerInstance pol(cfg);

  void* soft_a = nullptr;
  void* soft_b = nullptr;
  auto a1 = flow_pkt(1, 472);
  EXPECT_EQ(pol.handle_packet(*a1, &soft_a), Verdict::cont);
  auto a2 = flow_pkt(1, 472);
  EXPECT_EQ(pol.handle_packet(*a2, &soft_a), Verdict::drop);  // a exhausted
  auto b1 = flow_pkt(2, 472);
  EXPECT_EQ(pol.handle_packet(*b1, &soft_b), Verdict::cont);  // b unaffected

  pol.flow_removed(soft_a);
  plugin::PluginMsg msg;
  msg.custom_name = "stats";
  plugin::PluginReply reply;
  ASSERT_EQ(pol.handle_message(msg, reply), Status::ok);
  EXPECT_NE(reply.text.find("buckets=1"), std::string::npos);

  // Many exhausted buckets, half released in a seeded random order: the
  // survivors keep their (still empty) buckets.
  constexpr std::size_t kFlows = 32;
  std::vector<void*> softs(kFlows, nullptr);
  for (std::size_t i = 0; i < kFlows; ++i) {
    auto p = flow_pkt(static_cast<std::uint16_t>(100 + i), 472);
    EXPECT_EQ(pol.handle_packet(*p, &softs[i]), Verdict::cont);
  }
  std::vector<std::size_t> order(kFlows);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(14));
  for (std::size_t n = 0; n < kFlows / 2; ++n) pol.flow_removed(softs[order[n]]);
  ASSERT_EQ(pol.handle_message(msg, reply), Status::ok);
  EXPECT_NE(reply.text.find("buckets=" + std::to_string(1 + kFlows / 2)),
            std::string::npos)
      << reply.text;
  for (std::size_t n = kFlows / 2; n < kFlows; ++n) {
    const std::size_t i = order[n];
    auto p = flow_pkt(static_cast<std::uint16_t>(100 + i), 472);
    EXPECT_EQ(pol.handle_packet(*p, &softs[i]), Verdict::drop) << i;
    pol.flow_removed(softs[i]);  // its bucket points back into `softs`
  }
  ASSERT_EQ(pol.handle_message(msg, reply), Status::ok);
  EXPECT_NE(reply.text.find("buckets=1"), std::string::npos) << reply.text;
}

TEST(Policer, EndToEndAtCongestionGate) {
  core::RouterKernel k;
  mgmt::register_builtin_modules();
  k.add_interface("in0");
  k.add_interface("out0");
  mgmt::RouterPluginLib lib(k);
  mgmt::PluginManager pmgr(lib);
  auto r = pmgr.run_script(R"(
route add 20.0.0.0/8 if1
modload policer
create policer rate_bps=800000 burst=1000 per_flow=1
bind policer 1 <10.0.0.0/8, *, udp, *, *, *>
)");
  ASSERT_TRUE(r.ok()) << r.text;

  // 10 packets of 500 B arrive back-to-back: 2 fit the burst, the rest
  // need 5 ms each at 100 kB/s.
  for (int i = 0; i < 10; ++i) {
    auto p = flow_pkt(1, 472);
    k.inject(i * 1000, 0, std::move(p));
  }
  k.run_to_completion();
  EXPECT_EQ(k.core().counters().forwarded, 2u);
  EXPECT_EQ(k.core().counters().dropped(core::DropReason::policy), 8u);

  auto stats = pmgr.exec("msg policer 1 stats");
  EXPECT_NE(stats.text.find("conformant=2"), std::string::npos);
}

TEST(Policer, SetRateMessage) {
  PolicerInstance pol({});
  plugin::PluginMsg msg;
  msg.custom_name = "setrate";
  plugin::PluginReply reply;
  EXPECT_EQ(pol.handle_message(msg, reply), Status::invalid_argument);
  msg.args.set("rate_bps", "5000000");
  EXPECT_EQ(pol.handle_message(msg, reply), Status::ok);
}

}  // namespace
}  // namespace rp::sched
