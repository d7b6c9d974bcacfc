#include "stats/stats_plugin.hpp"

#include "telemetry/telemetry.hpp"

namespace rp::stats {

using netbase::Status;
using plugin::Verdict;

StatsInstance::StatsInstance(Mode mode) : mode_(mode) {
  // Export the aggregate counters through the telemetry metric registry
  // (`pmgr> telemetry metrics`); the data path keeps incrementing the same
  // members it always did — registration is a control-path pointer hand-off.
  // The worked example for docs/plugin_authoring.md §8.
  static std::atomic<std::uint64_t> next_tag{0};
  const std::string prefix = "stats." + std::to_string(next_tag++) + ".";
  telemetry::metrics().add(prefix + "total_packets", &total_packets_, this);
  telemetry::metrics().add(prefix + "total_bytes", &total_bytes_, this);
}

StatsInstance::~StatsInstance() {
  telemetry::metrics().remove_owner(this);
  for (auto& f : flows_)
    if (f.soft_slot) *f.soft_slot = nullptr;
}

StatsInstance::FlowCounter* StatsInstance::counter_for(const pkt::Packet& p,
                                                       void** flow_soft) {
  if (flow_soft && *flow_soft) return static_cast<FlowCounter*>(*flow_soft);
  FlowCounter& fc = flows_.emplace_back();
  fc.key = p.key;
  fc.soft_slot = flow_soft;
  fc.owner = this;
  fc.self = std::prev(flows_.end());
  if (flow_soft) *flow_soft = &fc;
  return &fc;
}

void StatsInstance::count(FlowCounter& fc, const pkt::Packet& p) {
  ++fc.packets;
  if (mode_ == Mode::bytes || mode_ == Mode::sizes) fc.bytes += p.size();
  if (mode_ == Mode::sizes) {
    const std::size_t s = p.size();
    int b = s <= 64 ? 0 : s <= 256 ? 1 : s <= 1024 ? 2 : s <= 4096 ? 3 : 4;
    ++fc.size_hist[b];
  }
}

Verdict StatsInstance::handle_packet(pkt::Packet& p, void** flow_soft) {
  total_packets_.fetch_add(1, std::memory_order_relaxed);
  total_bytes_.fetch_add(p.size(), std::memory_order_relaxed);
  count(*counter_for(p, flow_soft), p);
  return Verdict::cont;
}

void StatsInstance::handle_burst(plugin::PacketRun& run) {
  // The aggregate counters are the shared (atomic) state: batch them into
  // one fetch_add each per run. The per-flow counter stays a pointer chase
  // through the soft slot, memoized for the back-to-back packets of a train.
  std::uint64_t bytes = 0;
  FlowCounter* fc = nullptr;
  void** memo_soft = nullptr;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const pkt::Packet& p = run.packet(i);
    bytes += p.size();
    void** soft = run.soft(i);
    if (!fc || !soft || soft != memo_soft) {
      fc = counter_for(p, soft);
      memo_soft = soft;
    }
    count(*fc, p);
  }
  total_packets_.fetch_add(run.size(), std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

bool StatsInstance::migrate_flow(plugin::PluginInstance* from,
                                 const pkt::FlowKey& key, void** flow_soft) {
  (void)key;
  auto* prev = dynamic_cast<StatsInstance*>(from);
  if (!prev || !flow_soft || !*flow_soft) return false;
  auto* fc = static_cast<FlowCounter*>(*flow_soft);
  if (fc->owner != prev) return false;  // not a counter `from` owns
  // Steal the counter wholesale: per-flow history survives the upgrade,
  // and the aggregate totals it contributed move with it. The splice
  // relinks the node, so the counter keeps its address and the flow's
  // soft slot stays as it is.
  flows_.splice(flows_.end(), prev->flows_, fc->self);
  fc->owner = this;
  total_packets_.fetch_add(fc->packets, std::memory_order_relaxed);
  total_bytes_.fetch_add(fc->bytes, std::memory_order_relaxed);
  prev->total_packets_.fetch_sub(fc->packets, std::memory_order_relaxed);
  prev->total_bytes_.fetch_sub(fc->bytes, std::memory_order_relaxed);
  return true;
}

void StatsInstance::flow_removed(void* flow_soft) {
  auto* fc = static_cast<FlowCounter*>(flow_soft);
  // Keep counting totals; the per-flow record dies with the flow entry.
  if (fc && fc->owner == this) flows_.erase(fc->self);
}

Status StatsInstance::handle_message(const plugin::PluginMsg& msg,
                                     plugin::PluginReply& reply) {
  if (msg.custom_name == "report") {
    reply.text = "total_packets=" + std::to_string(total_packets_) +
                 " total_bytes=" + std::to_string(total_bytes_) +
                 " flows=" + std::to_string(flows_.size()) + "\n";
    for (const auto& f : flows_) {
      reply.text += f.key.to_string() + " pkts=" + std::to_string(f.packets) +
                    " bytes=" + std::to_string(f.bytes) + "\n";
    }
    return Status::ok;
  }
  if (msg.custom_name == "setmode") {
    auto m = msg.args.get_or("mode", "");
    if (m == "packets") mode_ = Mode::packets;
    else if (m == "bytes") mode_ = Mode::bytes;
    else if (m == "sizes") mode_ = Mode::sizes;
    else return Status::invalid_argument;
    return Status::ok;
  }
  if (msg.custom_name == "reset") {
    total_packets_ = total_bytes_ = 0;
    for (auto& f : flows_) {
      f.packets = f.bytes = 0;
      for (auto& h : f.size_hist) h = 0;
    }
    return Status::ok;
  }
  return Status::unsupported;
}

std::unique_ptr<plugin::PluginInstance> StatsPlugin::make_instance(
    const plugin::Config& cfg) {
  auto m = cfg.get_or("mode", "bytes");
  StatsInstance::Mode mode;
  if (m == "packets") mode = StatsInstance::Mode::packets;
  else if (m == "bytes") mode = StatsInstance::Mode::bytes;
  else if (m == "sizes") mode = StatsInstance::Mode::sizes;
  else return nullptr;
  return std::make_unique<StatsInstance>(mode);
}

void register_stats_plugins() {
  plugin::PluginLoader::register_module(
      "stats", [] { return std::make_unique<StatsPlugin>(); });
}

}  // namespace rp::stats
