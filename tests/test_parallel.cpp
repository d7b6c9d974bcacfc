// The sharded datapath's building blocks, plus the mid-traffic control
// regression: SPSC ring ordering under real concurrency, epoch-protected
// snapshot consistency, and the quiesce-hook guarantee that
// IpCore::reset_counters and FlowTable eviction-export are safe while a
// worker is mid-burst (they run only at burst boundaries, and nothing is
// lost or double-counted across a reset/sweep).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/router.hpp"
#include "l7/l7_plugins.hpp"
#include "mgmt/pmgr.hpp"
#include "mgmt/rplib.hpp"
#include "parallel/sharded_datapath.hpp"
#include "pkt/builder.hpp"
#include "telemetry/flow_export.hpp"

namespace rp::parallel {
namespace {

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, SingleThreadFullEmpty) {
  SpscRing<int> r(4);
  EXPECT_GE(r.capacity(), 4u);
  EXPECT_TRUE(r.empty());
  int v = 0;
  EXPECT_FALSE(r.try_pop(v));
  std::size_t pushed = 0;
  for (int i = 0; i < 100; ++i) {
    if (!r.try_push(i)) break;
    ++pushed;
  }
  EXPECT_EQ(pushed, r.capacity());
  for (std::size_t i = 0; i < pushed; ++i) {
    ASSERT_TRUE(r.try_pop(v));
    EXPECT_EQ(v, static_cast<int>(i));
  }
  EXPECT_TRUE(r.empty());
}

TEST(SpscRing, TwoThreadsPreserveOrder) {
  SpscRing<std::uint64_t> r(64);
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&r] {
    for (std::uint64_t i = 0; i < kN; ++i) {
      while (!r.try_push(std::uint64_t{i})) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  while (expect < kN) {
    std::uint64_t v;
    if (!r.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(v, expect);
    ++expect;
  }
  producer.join();
  EXPECT_TRUE(r.empty());
}

TEST(SpscRing, BurstApiRoundTrips) {
  SpscRing<std::uint64_t> r(32);
  std::vector<std::uint64_t> in(20), out(64);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = i;
  EXPECT_EQ(r.push_burst(in), in.size());
  EXPECT_EQ(r.size_approx(), in.size());
  const std::size_t n = r.pop_burst(out);
  ASSERT_EQ(n, in.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i);
}

// ---------------------------------------------------------------------------
// Epoch / Versioned

TEST(Epoch, ReadersNeverSeeTornOrFreedSnapshots) {
  struct Snap {
    std::uint64_t a;
    std::uint64_t b;  // invariant: b == a * 2
  };
  EpochDomain d;
  Versioned<Snap> v(d);
  const std::size_t slot0 = d.register_reader();
  const std::size_t slot1 = d.register_reader();
  std::atomic<bool> stop{false};

  auto reader = [&](std::size_t slot) {
    while (!stop.load(std::memory_order_acquire)) {
      EpochGuard g(d, slot);
      if (const Snap* s = v.load()) {
        ASSERT_EQ(s->b, s->a * 2);
      }
    }
  };
  std::thread r0(reader, slot0), r1(reader, slot1);
  for (std::uint64_t i = 1; i <= 20000; ++i)
    v.publish(std::make_unique<Snap>(Snap{i, i * 2}));
  stop.store(true, std::memory_order_release);
  r0.join();
  r1.join();
  d.reclaim_all();
  EXPECT_EQ(d.limbo_size(), 0u);
}

// ---------------------------------------------------------------------------
// Mid-traffic control-path mutations (the quiesce-hook regression)

pkt::PacketPtr small_udp(std::uint8_t flow) {
  pkt::UdpSpec s;
  s.src = netbase::IpAddr(netbase::Ipv4Addr(10, 0, 0, flow));
  s.dst = *netbase::IpAddr::parse("20.0.0.5");
  s.sport = 1000;
  s.dport = 9000;
  s.payload_len = 32;
  s.ttl = 64;
  return pkt::build_udp(s);
}

// A flow sink that accumulates per-flow totals across many eviction sweeps
// (each worker gets its own — written only from that worker's thread).
class AccumSink final : public telemetry::FlowSink {
 public:
  void write(const telemetry::FlowExportRecord& r) override {
    auto& [pkts, bytes] = flows_[r.key.to_string()];
    pkts += r.packets;
    bytes += r.bytes;
  }
  std::string describe() const override { return "accum"; }
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> flows_;
};

TEST(Parallel, ResetAndSweepAreSafeMidTraffic) {
  constexpr std::uint32_t kWorkers = 2;
  constexpr std::uint64_t kPackets = 20000;
  constexpr int kFlows = 8;
  constexpr netbase::SimTime kSweepAll =
      std::numeric_limits<netbase::SimTime>::max();

  std::vector<AccumSink*> sinks(kWorkers, nullptr);
  ShardedDatapath::Options opt;
  opt.workers = kWorkers;
  opt.ring_capacity = 128;
  ShardedDatapath dp(opt, [&sinks](ShardContext& ctx) {
    ctx.interfaces().add("if0");
    ctx.interfaces().add("if1");
    ctx.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
    auto sink = std::make_unique<AccumSink>();
    sinks[ctx.id()] = sink.get();
    ctx.telemetry().set_sink(std::move(sink));
  });

  std::thread producer([&dp] {
    for (std::uint64_t i = 0; i < kPackets; ++i)
      dp.submit(small_udp(static_cast<std::uint8_t>(1 + i % kFlows)));
  });

  // Hammer the control path while traffic flows: capture-and-reset the
  // counters and evict every flow (export sweep), 40 times. Any packet
  // charged twice, lost at a reset boundary, or exported twice would break
  // the exact totals below.
  std::vector<core::CoreCounters> captured(kWorkers);
  auto capture_and_reset = [&captured](ShardContext& ctx) {
    const core::CoreCounters& c = ctx.core().counters();
    captured[ctx.id()].received += c.received;
    captured[ctx.id()].forwarded += c.forwarded;
    ctx.core().reset_counters();
  };
  for (int round = 0; round < 40; ++round) {
    dp.gather(capture_and_reset);
    dp.sweep_flows(kSweepAll);
  }

  producer.join();
  dp.quiesce();
  dp.gather(capture_and_reset);
  dp.sweep_flows(kSweepAll);
  dp.stop();

  std::uint64_t received = 0, forwarded = 0;
  for (const auto& c : captured) {
    received += c.received;
    forwarded += c.forwarded;
  }
  EXPECT_EQ(received, kPackets);
  EXPECT_EQ(forwarded, kPackets);

  // Every packet appears in exactly one export record.
  std::uint64_t exported_pkts = 0;
  std::map<std::string, std::uint64_t> per_flow;
  for (const AccumSink* s : sinks)
    for (const auto& [key, pb] : s->flows_) {
      exported_pkts += pb.first;
      per_flow[key] += pb.first;
    }
  EXPECT_EQ(exported_pkts, kPackets);
  EXPECT_EQ(per_flow.size(), static_cast<std::size_t>(kFlows));
  for (const auto& [key, pkts] : per_flow)
    EXPECT_EQ(pkts, kPackets / kFlows) << key;
}

// Lock-free status snapshots stay readable and monotone while traffic flows.
TEST(Parallel, StatusSnapshotsAreLockFreeAndMonotone) {
  ShardedDatapath::Options opt;
  opt.workers = 2;
  opt.ring_capacity = 128;
  ShardedDatapath dp(opt, [](ShardContext& ctx) {
    ctx.interfaces().add("if0");
    ctx.interfaces().add("if1");
    ctx.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  });

  std::vector<std::uint64_t> last(dp.workers(), 0);
  for (int i = 0; i < 5000; ++i) {
    dp.submit(small_udp(static_cast<std::uint8_t>(1 + i % 5)));
    if (i % 64 == 0) {
      for (std::uint32_t w = 0; w < dp.workers(); ++w) {
        const ShardSnapshot s = dp.status(w);
        EXPECT_GE(s.packets_processed, last[w]);
        last[w] = s.packets_processed;
      }
    }
  }
  dp.quiesce();
  dp.stop();
  std::uint64_t total = 0;
  for (const ShardSnapshot& s : dp.status_all()) total += s.packets_processed;
  EXPECT_EQ(total, 5000u);  // final snapshots published at join are exact
}

// The operator surface over the N-worker datapath: `telemetry` and
// `resilience` merge per-worker state exactly (via gather) with the kernel's;
// `shard status` reads the lock-free snapshots.
TEST(Parallel, PmgrShardCommandsAggregateAcrossWorkers) {
  core::RouterKernel kernel;
  mgmt::RouterPluginLib lib(kernel);
  mgmt::PluginManager pmgr(lib);
  EXPECT_FALSE(pmgr.exec("shard status").ok());  // nothing attached yet

  ShardedDatapath::Options opt;
  opt.workers = 2;
  opt.ring_capacity = 128;
  opt.shard.telemetry.sample_every = 4;
  ShardedDatapath dp(opt, [](ShardContext& ctx) {
    ctx.interfaces().add("if0");
    ctx.interfaces().add("if1");
    ctx.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  });
  pmgr.attach_sharded(&dp);

  for (int i = 0; i < 4000; ++i)
    dp.submit(small_udp(static_cast<std::uint8_t>(1 + i % 6)));
  dp.quiesce();

  auto st = pmgr.exec("shard status");
  ASSERT_TRUE(st.ok()) << st.text;
  EXPECT_NE(st.text.find("workers=2"), std::string::npos) << st.text;
  EXPECT_NE(st.text.find("submitted=4000"), std::string::npos) << st.text;
  EXPECT_NE(st.text.find("shard1:"), std::string::npos) << st.text;

  auto cc = pmgr.exec("telemetry");
  ASSERT_TRUE(cc.ok()) << cc.text;
  EXPECT_NE(cc.text.find("received=4000"), std::string::npos) << cc.text;
  EXPECT_NE(cc.text.find("forwarded=4000"), std::string::npos) << cc.text;

  auto tel = pmgr.exec("telemetry hist");
  ASSERT_TRUE(tel.ok()) << tel.text;
  // 1-in-4 sampling on each shard: the merged histogram has samples and the
  // summary line carries the cross-shard sum.
  EXPECT_NE(tel.text.find("pipeline: samples="), std::string::npos) << tel.text;
  EXPECT_EQ(tel.text.find("samples=0 "), std::string::npos) << tel.text;
  EXPECT_EQ(cc.text.find("samples=0 "), std::string::npos) << cc.text;

  auto res = pmgr.exec("resilience");
  ASSERT_TRUE(res.ok()) << res.text;
  EXPECT_NE(res.text.find("faults: total=0"), std::string::npos) << res.text;
  EXPECT_NE(res.text.find("shard0:"), std::string::npos) << res.text;

  ASSERT_TRUE(pmgr.exec("telemetry reset").ok());
  auto cc2 = pmgr.exec("telemetry");
  ASSERT_TRUE(cc2.ok()) << cc2.text;
  EXPECT_NE(cc2.text.find("received=0"), std::string::npos) << cc2.text;

  // Above INT64_MAX the signed cutoff would wrap negative and sweep nothing.
  auto wrap = pmgr.exec("shard sweep 18446744073709551615");
  EXPECT_FALSE(wrap.ok()) << wrap.text;
  EXPECT_EQ(wrap.text, "usage: shard sweep <ns>");
  auto sw = pmgr.exec("shard sweep 9223372036854775807");
  ASSERT_TRUE(sw.ok()) << sw.text;
  EXPECT_FALSE(pmgr.exec("shard bogus").ok());

  dp.stop();  // join publishes final exact snapshots
  for (const ShardSnapshot& s : dp.status_all())
    EXPECT_EQ(s.flows_active, 0u);
}

// Regression: with a datapath attached, pmgr's setters used to change only
// the template kernel, which carries no traffic. Each must reach every
// shard's stack (read back on the worker threads through gather).
TEST(Parallel, PmgrSettersReachEveryShard) {
  core::RouterKernel kernel;
  mgmt::RouterPluginLib lib(kernel);
  mgmt::PluginManager pmgr(lib);

  ShardedDatapath::Options opt;
  opt.workers = 2;
  opt.ring_capacity = 64;
  ShardedDatapath dp(opt);
  pmgr.attach_sharded(&dp);

  for (const char* cmd :
       {"telemetry sample 4", "resilience fallback stats fail_closed",
        "resilience budget cycles stats 5000", "sanitize off"}) {
    auto r = pmgr.exec(cmd);
    ASSERT_TRUE(r.ok()) << cmd << ": " << r.text;
  }

  struct Settings {
    std::uint32_t sample_every;
    resilience::Fallback fallback;
    std::uint64_t cycle_budget;
    bool sanitize;
  };
  std::vector<Settings> seen(dp.workers());
  dp.gather([&seen](ShardContext& ctx) {
    seen[ctx.id()] = {ctx.telemetry().sample_every(),
                      ctx.resilience().fallback(plugin::PluginType::stats),
                      ctx.resilience().cycle_budget(plugin::PluginType::stats),
                      ctx.core().config().sanitize};
  });
  for (std::uint32_t i = 0; i < dp.workers(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(seen[i].sample_every, 4u);
    EXPECT_EQ(seen[i].fallback, resilience::Fallback::fail_closed);
    EXPECT_EQ(seen[i].cycle_budget, 5000u);
    EXPECT_FALSE(seen[i].sanitize);
  }
  dp.stop();
}

// Regression (review): `pmgr l7 rules` mutations must reach the
// shard-private l7 instances that actually see traffic, through the same
// quiesce-safe gather path as budget/reset — not just the main kernel's
// PCU (which here deliberately has no l7 instance at all).
TEST(Parallel, PmgrL7RulesReachShardInstances) {
  core::RouterKernel kernel;
  mgmt::RouterPluginLib lib(kernel);
  mgmt::PluginManager pmgr(lib);

  ShardedDatapath::Options opt;
  opt.workers = 2;
  opt.ring_capacity = 64;
  ShardedDatapath dp(opt, [](ShardContext& ctx) {
    ctx.interfaces().add("if0");
    ctx.pcu().register_plugin(std::make_unique<l7::IdsPlugin>());
    plugin::InstanceId iid = plugin::kNoInstance;
    ASSERT_EQ(ctx.pcu().find("l7ids")->create_instance({{"patterns", "EVIL1"}},
                                                       iid),
              netbase::Status::ok);
    ASSERT_EQ(iid, 1u);  // the id the operator command below targets
  });
  pmgr.attach_sharded(&dp);

  auto add = pmgr.exec("l7 rules l7ids 1 add BADPAT");
  ASSERT_TRUE(add.ok()) << add.text;

  auto list = pmgr.exec("l7 rules l7ids 1 list");
  ASSERT_TRUE(list.ok()) << list.text;
  EXPECT_NE(list.text.find("shard0:"), std::string::npos) << list.text;
  EXPECT_NE(list.text.find("shard1:"), std::string::npos) << list.text;
  // Every shard's rule set carries both the original and the added pattern.
  std::size_t hits = 0;
  for (std::size_t at = list.text.find("BADPAT"); at != std::string::npos;
       at = list.text.find("BADPAT", at + 1))
    ++hits;
  EXPECT_EQ(hits, 2u) << list.text;
  EXPECT_NE(list.text.find("EVIL1"), std::string::npos) << list.text;

  // set replaces on every shard; a malformed pattern list still fails.
  ASSERT_TRUE(pmgr.exec("l7 rules l7ids 1 set ONE,TWO").ok());
  list = pmgr.exec("l7 rules l7ids 1 list");
  EXPECT_EQ(list.text.find("BADPAT"), std::string::npos) << list.text;
  EXPECT_NE(list.text.find("TWO"), std::string::npos) << list.text;
  EXPECT_FALSE(pmgr.exec("l7 rules l7ids 1 set a,,b").ok());
  EXPECT_FALSE(pmgr.exec("l7 rules nosuch 1 list").ok());

  dp.quiesce();
  dp.stop();
}

}  // namespace
}  // namespace rp::parallel
