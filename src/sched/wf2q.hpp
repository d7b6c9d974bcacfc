// WF²Q+ scheduler plugin (Bennett & Zhang, the paper's reference [4]:
// "WF2Q: Worst-case Fair Weighted Fair Queueing").
//
// Packet-level weighted fair queueing with the worst-case-fairness
// eligibility rule: a flow's head packet may only be served once its
// virtual start time is at or below the system virtual time, and among
// eligible flows the smallest virtual *finish* time goes first (smallest
// eligible virtual finish, SEFF). This keeps any flow at most one packet
// ahead of its fluid-model service — the property plain WFQ/virtual-clock
// schedulers lack.
//
// Per-flow queues live in the flow table's soft-state slot, like DRR; flows
// without a slot (port-default traffic) are self-classified by flow key.
// Weights are configured with the same `setweight` message as DRR.
#pragma once

#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "aiu/filter.hpp"
#include "core/scheduler_base.hpp"
#include "plugin/loader.hpp"
#include "plugin/plugin.hpp"

namespace rp::sched {

class Wf2qInstance final : public core::OutputScheduler {
 public:
  struct Config {
    std::size_t per_flow_limit{128};
    std::uint32_t default_weight{1};
  };

  explicit Wf2qInstance(Config cfg) : cfg_(cfg) {}
  ~Wf2qInstance() override;

  bool enqueue(pkt::PacketPtr p, void** flow_soft,
               netbase::SimTime now) override;
  pkt::PacketPtr dequeue(netbase::SimTime now) override;
  bool empty() const override { return backlog_pkts_ == 0; }
  std::size_t backlog_packets() const override { return backlog_pkts_; }
  std::size_t backlog_bytes() const override { return backlog_bytes_; }

  void flow_removed(void* flow_soft) override;
  netbase::Status handle_message(const plugin::PluginMsg& msg,
                                 plugin::PluginReply& reply) override;

  std::size_t queue_count() const noexcept { return queues_.size(); }
  double virtual_time() const noexcept { return vtime_; }

 private:
  struct FlowQueue {
    std::deque<pkt::PacketPtr> pkts;
    std::uint32_t weight{1};
    double start{0};   // virtual start of the head packet
    double finish{0};  // virtual finish of the head packet
    double last_finish{0};
    bool active{false};
    bool orphaned{false};
    bool in_fallback{false};  // self-classified (keyed in fallback_)
    void** soft_slot{nullptr};
    pkt::FlowKey key{};
    std::list<FlowQueue>::iterator self{};  // O(1) destroy
  };

  struct KeyHash {
    std::size_t operator()(const pkt::FlowKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash());
    }
  };

  FlowQueue* queue_for(const pkt::Packet& p, void** flow_soft);
  std::uint32_t weight_for(const pkt::FlowKey& key) const;
  void stamp_head(FlowQueue& q);  // compute start/finish for the new head
  void destroy(FlowQueue* q);

  Config cfg_;
  std::list<FlowQueue> queues_;
  std::vector<FlowQueue*> active_;
  std::unordered_map<pkt::FlowKey, FlowQueue*, KeyHash> fallback_;
  std::vector<std::pair<aiu::Filter, std::uint32_t>> weight_rules_;

  double vtime_{0};
  std::uint64_t active_weight_{0};
  std::size_t backlog_pkts_{0};
  std::size_t backlog_bytes_{0};
  std::uint64_t drops_{0};
};

class Wf2qPlugin final : public plugin::Plugin {
 public:
  Wf2qPlugin() : Plugin("wf2q", plugin::PluginType::sched) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config& cfg) override {
    Wf2qInstance::Config c;
    c.per_flow_limit = static_cast<std::size_t>(cfg.get_int_or("limit", 128));
    c.default_weight =
        static_cast<std::uint32_t>(cfg.get_int_or("weight", 1));
    if (c.per_flow_limit == 0 || c.default_weight == 0) return nullptr;
    return std::make_unique<Wf2qInstance>(c);
  }
};

void register_wf2q_plugin();

}  // namespace rp::sched
