#include "sched/wf2q.hpp"

#include <algorithm>

namespace rp::sched {

using netbase::Status;

Wf2qInstance::~Wf2qInstance() {
  for (auto& q : queues_)
    if (q.soft_slot) *q.soft_slot = nullptr;
}

std::uint32_t Wf2qInstance::weight_for(const pkt::FlowKey& key) const {
  for (const auto& [filter, w] : weight_rules_)
    if (filter.matches(key)) return w;
  return cfg_.default_weight;
}

Wf2qInstance::FlowQueue* Wf2qInstance::queue_for(const pkt::Packet& p,
                                                 void** flow_soft) {
  if (flow_soft && *flow_soft) return static_cast<FlowQueue*>(*flow_soft);
  if (!flow_soft) {
    if (auto it = fallback_.find(p.key); it != fallback_.end())
      return it->second;
  }
  FlowQueue& q = queues_.emplace_back();
  q.weight = weight_for(p.key);
  q.soft_slot = flow_soft;
  q.key = p.key;
  q.self = std::prev(queues_.end());
  if (flow_soft) {
    *flow_soft = &q;
  } else {
    q.in_fallback = true;
    fallback_[p.key] = &q;
  }
  return &q;
}

void Wf2qInstance::stamp_head(FlowQueue& q) {
  // WF²Q+ start/finish rule: S = max(V, F_prev); F = S + L/w.
  q.start = std::max(vtime_, q.last_finish);
  q.finish = q.start + static_cast<double>(q.pkts.front()->size()) / q.weight;
}

bool Wf2qInstance::enqueue(pkt::PacketPtr p, void** flow_soft,
                           netbase::SimTime /*now*/) {
  FlowQueue* q = queue_for(*p, flow_soft);
  if (q->pkts.size() >= cfg_.per_flow_limit) {
    ++drops_;
    return false;
  }
  backlog_bytes_ += p->size();
  ++backlog_pkts_;
  q->pkts.push_back(std::move(p));
  if (!q->active) {
    q->active = true;
    active_.push_back(q);
    active_weight_ += q->weight;
    stamp_head(*q);
  }
  return true;
}

pkt::PacketPtr Wf2qInstance::dequeue(netbase::SimTime /*now*/) {
  if (active_.empty()) return nullptr;

  // The WF²Q+ virtual-time clamp: never fall below the smallest start among
  // backlogged flows (keeps the system work conserving).
  double min_start = active_.front()->start;
  for (FlowQueue* q : active_) min_start = std::min(min_start, q->start);
  if (vtime_ < min_start) vtime_ = min_start;

  // SEFF: smallest finish among flows whose start is eligible (<= V).
  FlowQueue* best = nullptr;
  for (FlowQueue* q : active_) {
    if (q->start > vtime_ + 1e-9) continue;
    if (!best || q->finish < best->finish) best = q;
  }
  if (!best) return nullptr;  // unreachable after the clamp

  auto p = std::move(best->pkts.front());
  best->pkts.pop_front();
  backlog_bytes_ -= p->size();
  --backlog_pkts_;
  best->last_finish = best->finish;

  // Advance V by the served work normalized by the active weight sum.
  vtime_ += static_cast<double>(p->size()) /
            static_cast<double>(active_weight_ ? active_weight_ : 1);

  if (best->pkts.empty()) {
    best->active = false;
    active_weight_ -= best->weight;
    std::erase(active_, best);
    if (best->orphaned) destroy(best);
  } else {
    stamp_head(*best);
  }
  return p;
}

void Wf2qInstance::flow_removed(void* flow_soft) {
  auto* q = static_cast<FlowQueue*>(flow_soft);
  if (!q) return;
  q->soft_slot = nullptr;
  if (q->pkts.empty() && !q->active) {
    destroy(q);
  } else {
    q->orphaned = true;
  }
}

void Wf2qInstance::destroy(FlowQueue* q) {
  for (const auto& p : q->pkts) {
    backlog_bytes_ -= p->size();
    --backlog_pkts_;
  }
  if (q->active) {
    active_weight_ -= q->weight;
    std::erase(active_, q);
  }
  if (q->in_fallback) fallback_.erase(q->key);
  queues_.erase(q->self);
}

Status Wf2qInstance::handle_message(const plugin::PluginMsg& msg,
                                    plugin::PluginReply& reply) {
  if (msg.custom_name == "setweight") {
    auto spec = msg.args.get("filter");
    auto weight = msg.args.get_int("weight");
    if (!spec || !weight || *weight < 1) return Status::invalid_argument;
    auto f = aiu::Filter::parse(*spec);
    if (!f) return Status::invalid_argument;
    for (auto& [filter, w] : weight_rules_) {
      if (filter == *f) {
        w = static_cast<std::uint32_t>(*weight);
        return Status::ok;
      }
    }
    weight_rules_.emplace_back(*f, static_cast<std::uint32_t>(*weight));
    return Status::ok;
  }
  if (msg.custom_name == "stats") {
    reply.text = "queues=" + std::to_string(queues_.size()) +
                 " backlog_pkts=" + std::to_string(backlog_pkts_) +
                 " vtime=" + std::to_string(vtime_) +
                 " drops=" + std::to_string(drops_);
    return Status::ok;
  }
  return Status::unsupported;
}

void register_wf2q_plugin() {
  plugin::PluginLoader::register_module(
      "wf2q", [] { return std::make_unique<Wf2qPlugin>(); });
}

}  // namespace rp::sched
