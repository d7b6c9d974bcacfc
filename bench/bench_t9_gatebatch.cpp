// Gate-order independence of grouped gate dispatch on the Table-3
// three-gate workload (3 UDP flows, 8 KB datagrams, 16 filters per gate),
// driven through process_burst in bursts of Aiu::kMaxBurst.
//
//   row 1: grouped engine, gate order ipopt -> ipsec -> stats (Table 3)
//   row 2: grouped engine, gate order stats -> ipsec -> ipopt
//
// IpCore runs one grouped engine for every gate order, so the two rows
// should cost the same; `order_ratio` (row 2 over row 1) near 1.0 says no
// order pays for another's specialization. bench_t4_burst measures bursts
// of one (the engine's lone-survivor steps) against bursts of 32.
//
// The plugins are batch-native no-ops (handle_burst overridden), so the
// rows isolate dispatch cost: gate_lookup + supervisor guard + virtual call
// once per (gate, instance) group, and the shared tail memoizes the route
// lookup and interface resolve across each chunk. A quiet resilience
// supervisor is attached in every row — the deployed configuration
// (Router/Shard always attach one). The timed region is ingress -> output
// queue (process_burst only); the drain runs between reps, untimed, so 8 KB
// buffer frees don't dilute the per-packet figure.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "core/ip_core.hpp"
#include "plugin/pcu.hpp"
#include "resilience/resilience.hpp"
#include "tgen/workload.hpp"

using namespace rp;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kFlows = 3;
constexpr int kPacketsPerFlow = 100;
const int kReps = rp::bench::scaled(2000, 2);
constexpr std::size_t kPayload = 8192;

// Batch-native empty plugin: handle_burst leaves every verdict at cont, so
// a group costs one virtual call regardless of size.
class EmptyBurstInstance final : public plugin::PluginInstance {
 public:
  plugin::Verdict handle_packet(pkt::Packet&, void**) override {
    return plugin::Verdict::cont;
  }
  void handle_burst(plugin::PacketRun&) override {}
};
class EmptyBurstPlugin final : public plugin::Plugin {
 public:
  EmptyBurstPlugin(std::string name, plugin::PluginType t)
      : Plugin(std::move(name), t) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<EmptyBurstInstance>();
  }
};

std::vector<tgen::FlowEndpoints> flows() {
  std::vector<tgen::FlowEndpoints> out;
  for (int f = 0; f < kFlows; ++f) {
    tgen::FlowEndpoints ep;
    ep.src = netbase::IpAddr(
        netbase::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(f + 1)));
    ep.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
    ep.proto = 17;
    ep.sport = static_cast<std::uint16_t>(5000 + f);
    ep.dport = 9000;
    out.push_back(ep);
  }
  return out;
}

// The paper's 16 filters per gate: 13 padding filters that never match plus
// a catch-all binding the three flows to the gate's instance.
void install_filters(aiu::Aiu& aiu, plugin::PluginType gate,
                     plugin::PluginInstance* inst) {
  for (int i = 0; i < 13; ++i) {
    aiu::Filter f;
    f.src = *netbase::IpPrefix::parse("99.77." + std::to_string(i) + ".0/24");
    f.proto = aiu::ProtoSpec::exact(6);
    aiu.create_filter(gate, f, inst);
  }
  aiu.create_filter(gate, *aiu::Filter::parse("10.0.0.0/8 * udp * * *"),
                    inst);
}

struct Result {
  double ns;
  std::uint64_t groups;
  std::uint64_t grouped_chunks;
};

// Builds a router with the given gate order, drives the workload through
// process_burst in bursts of kMaxBurst, returns avg ns/packet.
Result run(std::vector<plugin::PluginType> gates) {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  aiu::Aiu aiu(pcu, clock);
  route::RoutingTable routes("bsl");
  netdev::InterfaceTable ifs;
  ifs.add("if0");
  ifs.add("if1");
  routes.add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});

  core::CoreConfig cfg;
  cfg.input_gates = std::move(gates);
  core::IpCore core(aiu, routes, ifs, clock, cfg);

  // Quiet supervisor, as in production: no injection, no budgets, breakers
  // closed — the grouped engine pays one guard per group.
  resilience::Supervisor sup;
  sup.set_aiu(&aiu);
  sup.set_clock(&clock);
  core.set_resilience(&sup);

  const char* names[] = {"g1", "g2", "g3"};
  for (std::size_t g = 0; g < cfg.input_gates.size(); ++g) {
    pcu.register_plugin(
        std::make_unique<EmptyBurstPlugin>(names[g], cfg.input_gates[g]));
    plugin::InstanceId id = plugin::kNoInstance;
    pcu.find(names[g])->create_instance({}, id);
    install_filters(aiu, cfg.input_gates[g], pcu.find(names[g])->instance(id));
  }

  const auto eps = flows();
  std::vector<pkt::PacketPtr> batch;
  batch.reserve(kFlows * kPacketsPerFlow);
  auto make_batch = [&] {
    batch.clear();
    for (int i = 0; i < kPacketsPerFlow; ++i)
      for (const auto& ep : eps) batch.push_back(tgen::packet_for(ep, kPayload));
  };

  auto ingress = [&] {
    for (std::size_t off = 0; off < batch.size(); off += aiu::Aiu::kMaxBurst) {
      const std::size_t n =
          std::min(aiu::Aiu::kMaxBurst, batch.size() - off);
      core.process_burst({batch.data() + off, n});
    }
  };
  auto drain = [&] {
    pkt::PacketPtr out;
    while ((out = core.next_for_tx(1, 0))) out.reset();
  };

  make_batch();
  ingress();  // warmup: populate the flow cache
  drain();

  // Best-rep figure: each rep pushes 300 packets (~10 burst chunks); the
  // minimum over reps is the machine's clean-run cost, insulated from
  // scheduler/VM noise that a mean would average in.
  double best_ns = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    make_batch();  // packet construction excluded from the timing
    auto tp0 = Clock::now();
    ingress();  // timed region: ingress -> output queue
    auto tp1 = Clock::now();
    drain();  // untimed: frees the 8 KB buffers between reps
    const double ns =
        std::chrono::duration<double, std::nano>(tp1 - tp0).count() /
        (kFlows * kPacketsPerFlow);
    if (ns < best_ns) best_ns = ns;
  }
  const auto& cc = core.counters();
  return {best_ns, cc.gate_groups, cc.fused_bursts};
}

}  // namespace

int main() {
  using plugin::PluginType;
  std::printf(
      "Table 9 — Grouped gate dispatch across gate orders on the Table-3\n"
      "3-gate workload (3 UDP flows, 8 KB datagrams, 16 filters/gate,\n"
      " burst %zu, %d pkts/flow x %d reps)\n\n",
      aiu::Aiu::kMaxBurst, kPacketsPerFlow, kReps);

  // With empty plugins the per-gate work is order-independent, so the rows
  // differ only in the order the engine walks the gates.
  Result t3 = run({PluginType::ipopt, PluginType::ipsec, PluginType::stats});
  Result permuted =
      run({PluginType::stats, PluginType::ipsec, PluginType::ipopt});

  struct Row {
    const char* name;
    const Result& r;
  };
  Row rows[] = {
      {"grouped, ipopt -> ipsec -> stats", t3},
      {"grouped, stats -> ipsec -> ipopt", permuted},
  };
  std::printf("%-36s %12s %10s %12s %14s\n", "gate order", "ns/packet",
              "vs row 1", "gate groups", "grouped chunks");
  for (const auto& row : rows)
    std::printf("%-36s %12.1f %9.2fx %12llu %14llu\n", row.name, row.r.ns,
                row.r.ns / t3.ns,
                static_cast<unsigned long long>(row.r.groups),
                static_cast<unsigned long long>(row.r.grouped_chunks));

  rp::bench::BenchJson("t9_gatebatch")
      .num("t3_order_ns", t3.ns)
      .num("permuted_order_ns", permuted.ns)
      .num("order_ratio", permuted.ns / t3.ns)
      .emit();
  return 0;
}
