// TCP congestion-backoff monitoring plugin — one of the envisioned plugin
// types in Section 4 ("a plugin monitoring TCP congestion backoff
// behaviour"). A transit router cannot see the sender's congestion window,
// but it can observe its footprint: retransmissions (sequence numbers at or
// below the highest seen) and idle gaps consistent with RTO backoff.
//
// Per-flow soft state tracks the highest sequence seen, retransmit and
// reordering counts, and a crude backoff detector (an arrival gap that at
// least doubles twice in a row while retransmitting). The `report` message
// lists flows that look congestion-limited — the kind of signal a
// network-management application would export.
#pragma once

#include <list>
#include <memory>

#include "netbase/clock.hpp"
#include "plugin/loader.hpp"
#include "plugin/plugin.hpp"

namespace rp::stats {

class TcpMonInstance final : public plugin::PluginInstance {
 public:
  struct FlowState {
    pkt::FlowKey key{};
    bool seen{false};
    std::uint32_t highest_seq{0};   // highest sequence + segment length
    netbase::SimTime last_arrival{0};
    netbase::SimTime last_gap{0};
    int doubling_gaps{0};           // consecutive gap >= 2 * previous gap

    std::uint64_t segments{0};
    std::uint64_t retransmits{0};
    std::uint64_t backoff_events{0};
    void** soft_slot{nullptr};
    std::list<FlowState>::iterator self{};  // O(1) flow_removed
  };

  ~TcpMonInstance() override;

  plugin::Verdict handle_packet(pkt::Packet& p, void** flow_soft) override;
  void flow_removed(void* flow_soft) override;
  netbase::Status handle_message(const plugin::PluginMsg& msg,
                                 plugin::PluginReply& reply) override;

  std::uint64_t total_retransmits() const noexcept { return retransmits_; }
  std::uint64_t total_backoff_events() const noexcept { return backoffs_; }
  std::size_t tracked_flows() const noexcept { return flows_.size(); }

 private:
  FlowState* state_for(const pkt::Packet& p, void** flow_soft);

  std::list<FlowState> flows_;
  std::uint64_t segments_{0};
  std::uint64_t retransmits_{0};
  std::uint64_t backoffs_{0};
};

class TcpMonPlugin final : public plugin::Plugin {
 public:
  TcpMonPlugin() : Plugin("tcpmon", plugin::PluginType::stats) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config&) override {
    return std::make_unique<TcpMonInstance>();
  }
};

void register_tcpmon_plugin();

}  // namespace rp::stats
