// PR 7 headline: cost of stateful L7 inspection, and what the verdict
// cache buys back.
//
//   row 1: l7ids inspecting every byte of a bidirectional TCP conversation
//          (inspect_limit=0 — reassembly + Aho-Corasick over the full
//          stream). Reported both as ns/packet and ns/payload-byte.
//   row 2: the same conversation with the verdict cache on
//          (inspect_limit=4 KB): the engine inspects the first 4 KB,
//          rules the flow clean, and offloads it — the AIU clears the l7
//          gate binding on both directions, so the remaining packets skip
//          the gate entirely. Acceptance: >= 5x over row 1.
//   rows 3/4: the Table-3 workload (3 UDP flows, 8 KB datagrams, 16
//          filters per policy gate, bursts of kMaxBurst — the deployed
//          ingress shape) with and without the l7 gate in the gate order,
//          nothing bound at it. An unbound l7 gate must cost only a
//          bound_mask bit test per chunk — acceptance: <= 2% overhead.
//
// Per-rep connections use distinct source ports so every rep exercises
// connection setup, reassembly, and verdict from scratch; stale flows are
// expired between reps, untimed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/ip_core.hpp"
#include "l7/l7_plugins.hpp"
#include "plugin/pcu.hpp"
#include "tgen/tcp_stream.hpp"
#include "tgen/workload.hpp"

using namespace rp;
using Clock = std::chrono::steady_clock;

namespace {

const int kTcpReps = rp::bench::scaled(120, 2);
const int kUdpReps = rp::bench::scaled(2000, 2);
constexpr std::size_t kStreamBytes = 64 * 1024;  // each direction: half
constexpr netbase::SimTime kSweepAll =
    std::numeric_limits<netbase::SimTime>::max();

// ---------------------------------------------------------------------------
// Rows 1-2: TCP conversations through a core with l7ids bound to all TCP.

struct TcpResult {
  double ns_pkt;
  double ns_byte;
};

tgen::TcpStreamSpec conversation(std::uint16_t sport) {
  tgen::TcpStreamSpec sp;
  sp.ep.src = *netbase::IpAddr::parse("10.0.0.1");
  sp.ep.dst = *netbase::IpAddr::parse("20.0.0.1");
  sp.ep.proto = 6;
  sp.ep.sport = sport;
  sp.ep.dport = 80;
  sp.ep.in_iface = 0;
  sp.mss = 1024;
  sp.payload = tgen::plant(kStreamBytes, 7, {{kStreamBytes / 2, "EVIL"}});
  sp.reverse_payload = tgen::plant(kStreamBytes / 2, 8, {});
  return sp;
}

TcpResult run_tcp(std::uint64_t inspect_limit) {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  aiu::Aiu aiu(pcu, clock);
  route::RoutingTable routes("bsl");
  netdev::InterfaceTable ifs;
  ifs.add("if0");
  ifs.add("if1");
  routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  routes.add(*netbase::IpPrefix::parse("10.0.0.0/8"), {0, {}});
  core::IpCore core(aiu, routes, ifs, clock, core::CoreConfig{});

  pcu.register_plugin(std::make_unique<l7::IdsPlugin>());
  plugin::InstanceId id = plugin::kNoInstance;
  pcu.find("l7ids")->create_instance(
      {{"patterns", "EVILCORP,needle,haystack"},
       {"alert_on_match", "0"},
       {"inspect_limit", std::to_string(inspect_limit)}},
      id);
  aiu.create_filter(plugin::PluginType::l7,
                    *aiu::Filter::parse("<*, *, tcp, *, *, *>"),
                    pcu.find("l7ids")->instance(id));

  std::size_t pkts = 0, payload_bytes = 0;
  double best_ns = 1e30;
  for (int rep = 0; rep < kTcpReps; ++rep) {
    // Packet construction and flow cleanup excluded from the timing.
    auto arrivals = tgen::tcp_stream(
        conversation(static_cast<std::uint16_t>(1024 + rep)));
    pkts = arrivals.size();
    payload_bytes = kStreamBytes + kStreamBytes / 2;
    auto tp0 = Clock::now();
    for (auto& a : arrivals) core.process(std::move(a.p));
    auto tp1 = Clock::now();
    for (pkt::IfIndex ifx : {pkt::IfIndex{0}, pkt::IfIndex{1}}) {
      pkt::PacketPtr out;
      while ((out = core.next_for_tx(ifx, 0))) out.reset();
    }
    aiu.flow_table().expire_idle(kSweepAll);
    const double ns =
        std::chrono::duration<double, std::nano>(tp1 - tp0).count();
    if (ns < best_ns) best_ns = ns;
  }
  return {best_ns / static_cast<double>(pkts),
          best_ns / static_cast<double>(payload_bytes)};
}

// ---------------------------------------------------------------------------
// Rows 3-4: the Table-3 UDP workload; the l7 gate is present but unbound.

class EmptyInstance final : public plugin::PluginInstance {
 public:
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    return plugin::Verdict::cont;
  }
};
class EmptyPlugin final : public plugin::Plugin {
 public:
  EmptyPlugin(std::string name, plugin::PluginType t)
      : Plugin(std::move(name), t) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<EmptyInstance>();
  }
};

double run_udp(bool with_l7_gate) {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  aiu::Aiu aiu(pcu, clock);
  route::RoutingTable routes("bsl");
  netdev::InterfaceTable ifs;
  ifs.add("if0");
  ifs.add("if1");
  routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});

  core::CoreConfig cfg;
  // Gate order stats/ipopt/ipsec: the same three policy gates in both rows;
  // the +l7 row only appends the unbound l7 gate, so the delta measures its
  // mask test. (One grouped engine serves every gate order.)
  cfg.input_gates = {plugin::PluginType::stats, plugin::PluginType::ipopt,
                     plugin::PluginType::ipsec};
  if (with_l7_gate) cfg.input_gates.push_back(plugin::PluginType::l7);
  core::IpCore core(aiu, routes, ifs, clock, cfg);

  // The paper's 16 filters per policy gate: 13 that never match plus a
  // catch-all. Nothing is installed at the l7 gate.
  const plugin::PluginType gates[3] = {plugin::PluginType::ipopt,
                                       plugin::PluginType::ipsec,
                                       plugin::PluginType::stats};
  const char* names[3] = {"g1", "g2", "g3"};
  for (int g = 0; g < 3; ++g) {
    pcu.register_plugin(std::make_unique<EmptyPlugin>(names[g], gates[g]));
    plugin::InstanceId id = plugin::kNoInstance;
    pcu.find(names[g])->create_instance({}, id);
    plugin::PluginInstance* inst = pcu.find(names[g])->instance(id);
    for (int i = 0; i < 13; ++i) {
      aiu::Filter f;
      f.src =
          *netbase::IpPrefix::parse("99.77." + std::to_string(i) + ".0/24");
      f.proto = aiu::ProtoSpec::exact(6);
      aiu.create_filter(gates[g], f, inst);
    }
    aiu.create_filter(gates[g], *aiu::Filter::parse("10.0.0.0/8 * udp * * *"),
                      inst);
  }

  std::vector<tgen::FlowEndpoints> eps;
  for (int f = 0; f < 3; ++f) {
    tgen::FlowEndpoints ep;
    ep.src = netbase::IpAddr(
        netbase::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(f + 1)));
    ep.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
    ep.proto = 17;
    ep.sport = static_cast<std::uint16_t>(5000 + f);
    ep.dport = 9000;
    eps.push_back(ep);
  }

  constexpr int kPerFlow = 100;
  std::vector<pkt::PacketPtr> batch;
  auto make_batch = [&] {
    batch.clear();
    for (int i = 0; i < kPerFlow; ++i)
      for (const auto& ep : eps) batch.push_back(tgen::packet_for(ep, 8192));
  };
  auto drain = [&] {
    pkt::PacketPtr out;
    while ((out = core.next_for_tx(1, 0))) out.reset();
  };

  // Bursts of kMaxBurst, the deployed ingress shape (the NIC drains rx
  // rings in bursts): the unbound gate's mask test amortizes per chunk.
  auto ingress = [&] {
    for (std::size_t off = 0; off < batch.size(); off += aiu::Aiu::kMaxBurst) {
      const std::size_t n = std::min(aiu::Aiu::kMaxBurst, batch.size() - off);
      core.process_burst({batch.data() + off, n});
    }
  };

  make_batch();
  ingress();  // warmup: flow cache
  drain();

  double best_ns = 1e30;
  for (int rep = 0; rep < kUdpReps; ++rep) {
    make_batch();
    auto tp0 = Clock::now();
    ingress();
    auto tp1 = Clock::now();
    drain();
    const double ns =
        std::chrono::duration<double, std::nano>(tp1 - tp0).count() /
        (3 * kPerFlow);
    if (ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

}  // namespace

int main() {
  std::printf(
      "Table 10 — Stateful L7 inspection (l7ids, %zu KB + %zu KB streams,\n"
      "mss 1024, %d TCP reps / %d UDP reps)\n\n",
      kStreamBytes / 1024, kStreamBytes / 2048, kTcpReps, kUdpReps);

  const TcpResult full = run_tcp(0);
  const TcpResult offload = run_tcp(4096);
  const double udp_base = run_udp(false);
  const double udp_l7 = run_udp(true);
  const double unbound_rel = (udp_l7 - udp_base) / udp_base;

  std::printf("%-44s %12s %12s\n", "configuration", "ns/packet", "ns/byte");
  std::printf("%-44s %12.1f %12.2f\n", "inspect everything (inspect_limit=0)",
              full.ns_pkt, full.ns_byte);
  std::printf("%-44s %12.1f %12.2f  (%.2fx)\n",
              "verdict cache + offload (inspect_limit=4K)", offload.ns_pkt,
              offload.ns_byte, full.ns_pkt / offload.ns_pkt);
  std::printf("\n%-44s %12s\n", "T3 UDP workload", "ns/packet");
  std::printf("%-44s %12.1f\n", "3 policy gates, no l7 gate", udp_base);
  std::printf("%-44s %12.1f  (%+.2f%%)\n", "3 policy gates + unbound l7 gate",
              udp_l7, 100.0 * unbound_rel);

  rp::bench::BenchJson("t10_l7")
      .num("inspect_ns_per_byte", full.ns_byte)
      .num("inspect_all_ns_pkt", full.ns_pkt)
      .num("offload_ns_pkt", offload.ns_pkt)
      .num("offload_speedup", full.ns_pkt / offload.ns_pkt)
      .num("t3_base_ns_pkt", udp_base)
      .num("t3_l7gate_ns_pkt", udp_l7)
      .num("unbound_overhead_rel", unbound_rel)
      .emit();
  return 0;
}
