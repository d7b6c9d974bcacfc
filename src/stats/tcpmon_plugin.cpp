#include "stats/tcpmon_plugin.hpp"

#include "pkt/headers.hpp"

namespace rp::stats {

using netbase::Status;
using plugin::Verdict;

TcpMonInstance::~TcpMonInstance() {
  for (auto& f : flows_)
    if (f.soft_slot) *f.soft_slot = nullptr;
}

TcpMonInstance::FlowState* TcpMonInstance::state_for(const pkt::Packet& p,
                                                     void** flow_soft) {
  if (flow_soft && *flow_soft) return static_cast<FlowState*>(*flow_soft);
  FlowState& fs = flows_.emplace_back();
  fs.key = p.key;
  fs.soft_slot = flow_soft;
  fs.self = std::prev(flows_.end());
  if (flow_soft) *flow_soft = &fs;
  return &fs;
}

Verdict TcpMonInstance::handle_packet(pkt::Packet& p, void** flow_soft) {
  if (p.key.proto != static_cast<std::uint8_t>(pkt::IpProto::tcp))
    return Verdict::cont;
  pkt::TcpHeader tcp;
  if (p.l4_offset >= p.size() || !tcp.parse(p.bytes().subspan(p.l4_offset)))
    return Verdict::cont;

  FlowState* fs = state_for(p, flow_soft);
  ++fs->segments;
  ++segments_;

  const std::size_t seg_len = p.size() - p.l4_offset - tcp.header_len();
  const std::uint32_t seq_end =
      tcp.seq + static_cast<std::uint32_t>(seg_len);

  if (fs->seen && seg_len > 0 &&
      static_cast<std::int32_t>(tcp.seq - fs->highest_seq) < 0) {
    // Data at or below the highest byte already seen: a retransmission
    // (or, rarely, reordering — indistinguishable one hop away).
    ++fs->retransmits;
    ++retransmits_;

    // Backoff detection: consecutive at-least-doubling arrival gaps while
    // retransmitting mirror exponential RTO backoff.
    const netbase::SimTime gap = p.arrival - fs->last_arrival;
    if (fs->last_gap > 0 && gap >= 2 * fs->last_gap) {
      if (++fs->doubling_gaps >= 2) {
        ++fs->backoff_events;
        ++backoffs_;
        fs->doubling_gaps = 0;
      }
    } else {
      fs->doubling_gaps = 0;
    }
    fs->last_gap = gap;
  } else if (static_cast<std::int32_t>(seq_end - fs->highest_seq) > 0 ||
             !fs->seen) {
    fs->highest_seq = seq_end;
    fs->seen = true;
    fs->doubling_gaps = 0;
    fs->last_gap = fs->last_arrival > 0 ? p.arrival - fs->last_arrival : 0;
  }
  fs->last_arrival = p.arrival;
  return Verdict::cont;
}

void TcpMonInstance::flow_removed(void* flow_soft) {
  if (auto* fs = static_cast<FlowState*>(flow_soft)) flows_.erase(fs->self);
}

Status TcpMonInstance::handle_message(const plugin::PluginMsg& msg,
                                      plugin::PluginReply& reply) {
  if (msg.custom_name == "report") {
    reply.text = "segments=" + std::to_string(segments_) +
                 " retransmits=" + std::to_string(retransmits_) +
                 " backoff_events=" + std::to_string(backoffs_) + "\n";
    for (const auto& f : flows_) {
      if (f.retransmits == 0) continue;  // report congestion-limited flows
      reply.text += f.key.to_string() +
                    " segs=" + std::to_string(f.segments) +
                    " rexmt=" + std::to_string(f.retransmits) +
                    " backoffs=" + std::to_string(f.backoff_events) + "\n";
    }
    return Status::ok;
  }
  return Status::unsupported;
}

void register_tcpmon_plugin() {
  plugin::PluginLoader::register_module(
      "tcpmon", [] { return std::make_unique<TcpMonPlugin>(); });
}

}  // namespace rp::stats
