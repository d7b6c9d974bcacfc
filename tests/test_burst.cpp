// Equivalence of the batched datapath (PR 1 tentpole): process_burst must
// be observationally identical to per-packet process() on the same trace —
// same counters, same per-reason drops, same plugin invocations, same
// egress packets in the same order — for any chunking of the input, with
// the flow cache on or off.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/ip_core.hpp"
#include "pkt/builder.hpp"
#include "plugin/pcu.hpp"

namespace rp::core {
namespace {

using netbase::IpAddr;
using plugin::PluginType;

class CountingInstance final : public plugin::PluginInstance {
 public:
  explicit CountingInstance(plugin::Verdict v) : verdict_(v) {}
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    ++calls;
    return verdict_;
  }
  int calls{0};

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

// A plain FIFO at the sched gate: egress order is arrival order, so two
// rigs fed the same trace must leave identical queues behind.
class FifoScheduler final : public OutputScheduler {
 public:
  bool enqueue(pkt::PacketPtr p, void**, netbase::SimTime) override {
    q_.push_back(std::move(p));
    return true;
  }
  pkt::PacketPtr dequeue(netbase::SimTime) override {
    if (q_.empty()) return nullptr;
    pkt::PacketPtr p = std::move(q_.front());
    q_.pop_front();
    return p;
  }
  bool empty() const override { return q_.empty(); }
  std::size_t backlog_packets() const override { return q_.size(); }
  std::size_t backlog_bytes() const override { return 0; }

 private:
  std::deque<pkt::PacketPtr> q_;
};

class FifoPlugin final : public plugin::Plugin {
 public:
  explicit FifoPlugin(std::string name)
      : Plugin(std::move(name), PluginType::sched) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<FifoScheduler>();
  }
};

// One complete router datapath (own AIU, flow table, routes, interfaces)
// with a stats plugin on every flow and a firewall that drops dport 80.
// With `sched_gate`, two FIFO schedulers split the trace's flows by source
// at the sched gate: 10.0.0.0/30 and 10.0.0.4/30.
struct Rig {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  std::unique_ptr<aiu::Aiu> aiu;
  route::RoutingTable routes{"bsl"};
  netdev::InterfaceTable ifs;
  std::unique_ptr<IpCore> core;
  CountingInstance* stats{nullptr};
  CountingInstance* fw{nullptr};
  OutputScheduler* fifo[2]{};

  explicit Rig(bool flow_cache, bool sched_gate = false) {
    aiu::Aiu::Options opt;
    opt.flow_cache_enabled = flow_cache;
    aiu = std::make_unique<aiu::Aiu>(pcu, clock, opt);
    ifs.add("if0");
    ifs.add("if1").set_mtu(600);  // forces fragmentation of large packets
    routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});

    CoreConfig cfg;
    cfg.input_gates = {PluginType::stats, PluginType::firewall};
    core = std::make_unique<IpCore>(*aiu, routes, ifs, clock, cfg);

    stats = add("st", PluginType::stats, plugin::Verdict::cont,
                "<*, *, *, *, *, *>");
    fw = add("fw", PluginType::firewall, plugin::Verdict::drop,
             "<*, *, udp, *, 80, *>");
    if (sched_gate) {
      fifo[0] = add_fifo("fifo_lo", "<10.0.0.0/30, *, *, *, *, *>");
      fifo[1] = add_fifo("fifo_hi", "<10.0.0.4/30, *, *, *, *, *>");
    }
  }

  CountingInstance* add(const char* name, PluginType type, plugin::Verdict v,
                        const char* filter) {
    pcu.register_plugin(std::make_unique<CountingPlugin>(name, type, v));
    plugin::InstanceId id = plugin::kNoInstance;
    pcu.find(name)->create_instance({}, id);
    auto* inst = static_cast<CountingInstance*>(pcu.find(name)->instance(id));
    aiu->create_filter(type, *aiu::Filter::parse(filter), inst);
    return inst;
  }

  OutputScheduler* add_fifo(const char* name, const char* filter) {
    pcu.register_plugin(std::make_unique<FifoPlugin>(name));
    plugin::InstanceId id = plugin::kNoInstance;
    pcu.find(name)->create_instance({}, id);
    auto* inst = static_cast<OutputScheduler*>(pcu.find(name)->instance(id));
    aiu->create_filter(PluginType::sched, *aiu::Filter::parse(filter), inst);
    return inst;
  }

  std::vector<std::vector<std::uint8_t>> drain(pkt::IfIndex iface) {
    std::vector<std::vector<std::uint8_t>> out;
    while (auto p = core->next_for_tx(iface, 0))
      out.emplace_back(p->data(), p->data() + p->size());
    return out;
  }
  static std::vector<std::vector<std::uint8_t>> drain(OutputScheduler* q) {
    std::vector<std::vector<std::uint8_t>> out;
    while (auto p = q->dequeue(0))
      out.emplace_back(p->data(), p->data() + p->size());
    return out;
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

// A trace exercising every path outcome, in per-flow trains so the burst
// memo is hit: forwards, TTL expiry, bad checksum, malformed runts,
// no-route, firewall policy drops, and packets needing fragmentation.
std::vector<pkt::PacketPtr> make_trace() {
  std::vector<pkt::PacketPtr> t;
  for (int i = 0; i < 300; ++i) {
    const auto flow = static_cast<std::uint8_t>(1 + i / 3 % 7);  // trains of 3
    if (i % 11 == 3) {
      t.push_back(udp(flow, "20.0.0.5", 1, 9000));  // ttl_expired
    } else if (i % 13 == 5) {
      auto p = udp(flow, "20.0.0.5", 64, 9000);
      p->data()[10] ^= 0xff;  // bad_checksum
      t.push_back(std::move(p));
    } else if (i % 17 == 7) {
      auto p = pkt::make_packet(6);  // malformed runt
      p->data()[0] = 0x00;
      t.push_back(std::move(p));
    } else if (i % 19 == 9) {
      t.push_back(udp(flow, "99.0.0.5", 64, 9000));  // no_route
    } else if (i % 23 == 11) {
      t.push_back(udp(flow, "20.0.0.5", 64, 80));  // policy (firewall)
    } else if (i % 29 == 13) {
      t.push_back(udp(flow, "20.0.0.5", 64, 9000, 1400));  // fragmented
    } else {
      t.push_back(udp(flow, "20.0.0.5", 64, 9000 + i % 4));
    }
  }
  return t;
}

void expect_equivalent(bool flow_cache, bool sched_gate = false) {
  Rig single(flow_cache, sched_gate), burst(flow_cache, sched_gate);
  auto trace = make_trace();

  std::vector<pkt::PacketPtr> a, b;
  for (const auto& p : trace) {
    a.push_back(pkt::clone_packet(*p));
    b.push_back(pkt::clone_packet(*p));
  }

  for (auto& p : a) single.core->process(std::move(p));

  // Irregular chunking, including chunks above Aiu::kMaxBurst so the
  // internal re-chunking runs too.
  const std::size_t sizes[] = {1, 2, 3, 5, 8, 13, 21, 32, 40};
  std::size_t off = 0, s = 0;
  while (off < b.size()) {
    const std::size_t n = std::min(sizes[s++ % std::size(sizes)],
                                   b.size() - off);
    burst.core->process_burst({b.data() + off, n});
    off += n;
  }

  const CoreCounters& ca = single.core->counters();
  const CoreCounters& cb = burst.core->counters();
  EXPECT_EQ(ca.received, cb.received);
  EXPECT_EQ(ca.forwarded, cb.forwarded);
  EXPECT_EQ(ca.gate_calls, cb.gate_calls);
  EXPECT_EQ(ca.fragments_created, cb.fragments_created);
  for (std::size_t r = 0; r < static_cast<std::size_t>(DropReason::kCount);
       ++r) {
    EXPECT_EQ(ca.drops[r], cb.drops[r]) << "drop reason " << r;
  }
  EXPECT_EQ(single.stats->calls, burst.stats->calls);
  EXPECT_EQ(single.fw->calls, burst.fw->calls);

  // Sanity: the trace really exercised every outcome.
  EXPECT_GT(ca.forwarded, 0u);
  EXPECT_GT(ca.fragments_created, 0u);
  EXPECT_GT(ca.dropped(DropReason::ttl_expired), 0u);
  EXPECT_GT(ca.dropped(DropReason::bad_checksum), 0u);
  EXPECT_GT(ca.dropped(DropReason::malformed), 0u);
  EXPECT_GT(ca.dropped(DropReason::no_route), 0u);
  EXPECT_GT(ca.dropped(DropReason::policy), 0u);

  // Byte-identical egress in identical order.
  auto oa = single.drain(1);
  auto ob = burst.drain(1);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_EQ(oa[i], ob[i]) << i;

  // Each packet reached the scheduler its own flow binds, whatever chunk
  // it shared with the other source block.
  if (sched_gate)
    for (std::size_t q = 0; q < 2; ++q) {
      auto sa = Rig::drain(single.fifo[q]);
      EXPECT_FALSE(sa.empty()) << "fifo " << q;
      EXPECT_EQ(sa, Rig::drain(burst.fifo[q])) << "fifo " << q;
    }
}

TEST(BurstEquivalence, MatchesSinglePacketPathWithFlowCache) {
  expect_equivalent(true);
}

TEST(BurstEquivalence, MatchesSinglePacketPathWithoutFlowCache) {
  expect_equivalent(false);
  // The ablation's AIU hands out one shared scratch binding; a chunk's
  // deferred output must still carry each packet's own sched binding.
  expect_equivalent(false, true);
}

// Null slots (already-consumed packets) in a burst must be skipped, and an
// empty burst is a no-op — the kernel's rx ring drain can hand either over.
TEST(BurstEquivalence, SkipsNullSlotsAndEmptyBursts) {
  Rig rig(true);
  rig.core->process_burst({});
  std::vector<pkt::PacketPtr> batch;
  batch.push_back(nullptr);
  batch.push_back(udp(1, "20.0.0.5", 64, 9000));
  batch.push_back(nullptr);
  rig.core->process_burst(batch);
  EXPECT_EQ(rig.core->counters().received, 1u);
  EXPECT_EQ(rig.core->counters().forwarded, 1u);
}

}  // namespace
}  // namespace rp::core
