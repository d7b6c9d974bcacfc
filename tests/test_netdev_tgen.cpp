// Unit tests for the simulated NIC / interface table and the workload
// generators (determinism, Zipf skew, filter validity, pinned route churn).
#include <gtest/gtest.h>

#include <map>

#include "netdev/iftable.hpp"
#include "tgen/churn.hpp"
#include "tgen/workload.hpp"

namespace rp {
namespace {

TEST(SimNic, RxRingTimestampsAndOverflow) {
  netdev::SimNic nic("t0", 3, 155'000'000, 0, 2);
  auto mk = [] { return pkt::make_packet(64); };
  nic.deliver(mk(), 100);
  nic.deliver(mk(), 200);
  nic.deliver(mk(), 300);  // ring full -> dropped
  EXPECT_EQ(nic.counters().rx_packets, 2u);
  EXPECT_EQ(nic.counters().rx_drops, 1u);

  auto p = nic.rx_pop();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->arrival, 100);
  EXPECT_EQ(p->in_iface, 3);
  EXPECT_EQ(nic.rx_depth(), 1u);
  nic.rx_pop();
  EXPECT_EQ(nic.rx_pop(), nullptr);
}

TEST(SimNic, TxSerializationModel) {
  netdev::SimNic nic("t0", 0, 1'000'000);  // 1 Mb/s
  EXPECT_EQ(nic.tx_duration(125), 1'000'000);  // 1000 bits -> 1 ms

  std::vector<netbase::SimTime> done;
  nic.set_tx_sink([&](pkt::PacketPtr, netbase::SimTime t) { done.push_back(t); });
  EXPECT_TRUE(nic.tx_idle(0));
  auto end1 = nic.transmit(pkt::make_packet(125), 0);
  EXPECT_EQ(end1, 1'000'000);
  EXPECT_FALSE(nic.tx_idle(500'000));
  EXPECT_TRUE(nic.tx_idle(1'000'000));
  // Transmit while busy: queues behind (starts at busy_until).
  auto end2 = nic.transmit(pkt::make_packet(125), 500'000);
  EXPECT_EQ(end2, 2'000'000);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1'000'000);
  EXPECT_EQ(done[1], 2'000'000);
  EXPECT_EQ(nic.counters().tx_bytes, 250u);
}

TEST(SimNic, PropagationDelayAddsToDelivery) {
  netdev::SimNic nic("t0", 0, 1'000'000, 5'000'000);
  netbase::SimTime delivered = 0;
  nic.set_tx_sink([&](pkt::PacketPtr, netbase::SimTime t) { delivered = t; });
  nic.transmit(pkt::make_packet(125), 0);
  EXPECT_EQ(delivered, 1'000'000 + 5'000'000);
}

TEST(InterfaceTable, IndexAndNameLookup) {
  netdev::InterfaceTable t;
  auto& a = t.add("eth0");
  auto& b = t.add("atm0", 622'000'000);
  EXPECT_EQ(a.index(), 0);
  EXPECT_EQ(b.index(), 1);
  EXPECT_EQ(t.by_index(1), &b);
  EXPECT_EQ(t.by_index(9), nullptr);
  EXPECT_EQ(t.by_name("eth0"), &a);
  EXPECT_EQ(t.by_name("nope"), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Tgen, GeneratorsAreDeterministic) {
  tgen::MixSpec spec;
  spec.n_flows = 20;
  spec.n_packets = 100;
  spec.seed = 42;
  auto a = tgen::flow_mix(spec);
  auto b = tgen::flow_mix(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    ASSERT_TRUE(pkt::extract_flow_key(*a[i].p));
    ASSERT_TRUE(pkt::extract_flow_key(*b[i].p));
    EXPECT_EQ(a[i].p->key, b[i].p->key);
  }
}

TEST(Tgen, ZipfSkewsFlowPopularity) {
  tgen::MixSpec spec;
  spec.n_flows = 50;
  spec.n_packets = 5000;
  spec.burst_len = 1;
  spec.seed = 9;
  spec.zipf_s = 1.2;
  auto arrivals = tgen::flow_mix(spec);
  std::map<std::uint64_t, int> per_flow;
  for (auto& a : arrivals) per_flow[a.p->key.hash()]++;
  int max_count = 0;
  for (auto& [k, c] : per_flow) max_count = std::max(max_count, c);
  // The most popular flow must dominate far beyond the uniform share.
  EXPECT_GT(max_count, 3 * 5000 / 50);

  spec.zipf_s = 0;
  auto uniform = tgen::flow_mix(spec);
  per_flow.clear();
  for (auto& a : uniform) per_flow[a.p->key.hash()]++;
  max_count = 0;
  for (auto& [k, c] : per_flow) max_count = std::max(max_count, c);
  EXPECT_LT(max_count, 3 * 5000 / 50);
}

TEST(Tgen, RandomFiltersAreValidAndMatchable) {
  tgen::FilterSetSpec spec;
  spec.count = 200;
  spec.seed = 5;
  auto filters = tgen::random_filters(spec);
  ASSERT_EQ(filters.size(), 200u);
  netbase::Rng rng(6);
  for (const auto& f : filters) {
    // Round-trips through the textual form.
    auto parsed = aiu::Filter::parse(f.to_string());
    ASSERT_TRUE(parsed) << f.to_string();
    EXPECT_EQ(*parsed, f);
    // matching_key really matches.
    for (int i = 0; i < 3; ++i)
      EXPECT_TRUE(f.matches(tgen::matching_key(f, rng))) << f.to_string();
  }
}

TEST(Tgen, CbrSpacingAndCount) {
  tgen::CbrSpec spec;
  spec.count = 10;
  spec.start = 500;
  spec.interval = 100;
  auto a = tgen::cbr(spec);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a.front().t, 500);
  EXPECT_EQ(a.back().t, 500 + 9 * 100);
}

TEST(Tgen, MergeSortsByTime) {
  tgen::CbrSpec s1;
  s1.count = 3;
  s1.start = 0;
  s1.interval = 100;
  tgen::CbrSpec s2;
  s2.count = 3;
  s2.start = 50;
  s2.interval = 100;
  std::vector<std::vector<tgen::Arrival>> streams;
  streams.push_back(tgen::cbr(s1));
  streams.push_back(tgen::cbr(s2));
  auto merged = tgen::merge(std::move(streams));
  ASSERT_EQ(merged.size(), 6u);
  for (std::size_t i = 1; i < merged.size(); ++i)
    EXPECT_LE(merged[i - 1].t, merged[i].t);
}

// FNV-1a over every field route_churn emits: base prefixes with their hops,
// then each batch's ops in order, with the batch boundaries.
std::uint64_t churn_digest(const tgen::RouteChurn& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_prefix = [&mix](const netbase::IpPrefix& p) {
    mix(p.addr.key().hi);
    mix(p.addr.key().lo);
    mix(p.len);
  };
  mix(c.base.size());
  for (std::size_t i = 0; i < c.base.size(); ++i) {
    mix_prefix(c.base[i]);
    mix(c.base_hops[i].out_iface);
  }
  mix(c.batches.size());
  for (const auto& batch : c.batches) {
    mix(batch.size());
    for (const auto& op : batch) {
      mix(static_cast<std::uint64_t>(op.kind));
      mix_prefix(op.prefix);
      mix(op.hop.out_iface);
    }
  }
  return h;
}

// The churn streams feed routerbench and the churn tests; a change to the
// generator's internals (its live-set index) must not change one byte of
// what it emits. Digests were taken from the std::map-indexed generator.
TEST(Tgen, RouteChurnStreamIsPinned) {
  tgen::RouteChurnSpec v4;
  v4.base_prefixes = 20000;
  v4.ops = 6000;
  v4.min_len = 8;
  v4.max_len = 28;
  v4.seed = 0x7217;
  tgen::RouteChurnSpec v6;
  v6.base_prefixes = 5000;
  v6.ops = 3000;
  v6.batch_size = 50;
  v6.ver = netbase::IpVersion::v6;
  v6.min_len = 32;
  v6.max_len = 64;
  v6.seed = 99;
  const std::uint64_t d4 = churn_digest(tgen::route_churn(v4));
  const std::uint64_t d6 = churn_digest(tgen::route_churn(v6));
  EXPECT_EQ(d4, 0xe35e02aeddd16158ULL);
  EXPECT_EQ(d6, 0x0a79567f628f4253ULL);
}

}  // namespace
}  // namespace rp
