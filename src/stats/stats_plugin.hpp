// Statistics-gathering plugin — the paper's network-management use case:
// "monitor transit traffic ... gather and report various statistics ...
// change the kinds of statistics being collected without incurring
// significant overhead on the data path."
//
// Per-flow counters live in the flow table's soft-state slot (so the data
// path cost is one pointer chase and two increments); aggregate counters and
// a per-flow report are available via the `report` message. Each counter
// carries its owning instance and its own list position, so releasing it
// (flow_removed) and adopting it on upgrade (migrate_flow) are O(1) in the
// number of tracked flows (docs/plugin_authoring.md §4). The counting
// mode can be changed at run time with `setmode` (packets|bytes|sizes),
// demonstrating run-time reconfiguration of monitoring.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <string>

#include "plugin/loader.hpp"
#include "plugin/plugin.hpp"

namespace rp::stats {

class StatsInstance final : public plugin::PluginInstance {
 public:
  enum class Mode { packets, bytes, sizes };

  explicit StatsInstance(Mode mode);
  ~StatsInstance() override;

  plugin::Verdict handle_packet(pkt::Packet& p, void** flow_soft) override;
  // Batch-native entry point: one pair of atomic adds for the whole run
  // instead of two fetch_adds per packet (every packet continues, so the
  // prefilled verdicts stand untouched).
  void handle_burst(plugin::PacketRun& run) override;
  void flow_removed(void* flow_soft) override;
  // Versioned-upgrade handoff: adopts the per-flow counter a previous
  // StatsInstance owns, so an upgrade loses neither per-flow history nor
  // the aggregate totals derived from it (docs/plugin_authoring.md §13).
  bool migrate_flow(plugin::PluginInstance* from, const pkt::FlowKey& key,
                    void** flow_soft) override;
  netbase::Status handle_message(const plugin::PluginMsg& msg,
                                 plugin::PluginReply& reply) override;

  struct FlowCounter {
    pkt::FlowKey key{};
    std::uint64_t packets{0};
    std::uint64_t bytes{0};
    // size histogram buckets: <=64, <=256, <=1024, <=4096, larger
    std::uint64_t size_hist[5]{};
    void** soft_slot{nullptr};
    // The instance whose flows_ holds this counter, and its position there:
    // removal is an owner check plus one erase, migration one splice.
    StatsInstance* owner{nullptr};
    std::list<FlowCounter>::iterator self{};
  };

  std::uint64_t total_packets() const noexcept { return total_packets_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  std::size_t tracked_flows() const noexcept { return flows_.size(); }

 private:
  FlowCounter* counter_for(const pkt::Packet& p, void** flow_soft);
  void count(FlowCounter& fc, const pkt::Packet& p);

  Mode mode_;
  std::list<FlowCounter> flows_;  // insertion order, migrated ones appended
  // Atomic (relaxed): registered with telemetry::metrics(), whose report()
  // may run on the control thread while this instance counts on a worker.
  std::atomic<std::uint64_t> total_packets_{0};
  std::atomic<std::uint64_t> total_bytes_{0};
};

class StatsPlugin final : public plugin::Plugin {
 public:
  StatsPlugin() : Plugin("stats", plugin::PluginType::stats) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config& cfg) override;
};

void register_stats_plugins();

}  // namespace rp::stats
