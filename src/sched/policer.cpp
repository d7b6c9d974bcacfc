#include "sched/policer.hpp"

#include "pkt/headers.hpp"

namespace rp::sched {

using netbase::Status;
using plugin::Verdict;

PolicerInstance::~PolicerInstance() {
  for (auto& b : buckets_)
    if (b.soft_slot) *b.soft_slot = nullptr;
}

bool PolicerInstance::conforms(Bucket& b, std::size_t bytes,
                               netbase::SimTime now) const {
  if (!b.primed) {
    b.tokens = cfg_.burst_bytes;  // buckets start full
    b.last = now;
    b.primed = true;
  }
  if (now > b.last) {
    b.tokens += static_cast<double>(now - b.last) * cfg_.rate_bps / 8.0 / 1e9;
    if (b.tokens > cfg_.burst_bytes) b.tokens = cfg_.burst_bytes;
    b.last = now;
  }
  if (b.tokens >= static_cast<double>(bytes)) {
    b.tokens -= static_cast<double>(bytes);
    return true;
  }
  return false;
}

PolicerInstance::Bucket* PolicerInstance::bucket_for(void** flow_soft) {
  if (!cfg_.per_flow || !flow_soft) return &shared_;
  if (*flow_soft) return static_cast<Bucket*>(*flow_soft);
  Bucket& b = buckets_.emplace_back();
  b.soft_slot = flow_soft;
  b.self = std::prev(buckets_.end());
  *flow_soft = &b;
  return &b;
}

void PolicerInstance::remark(pkt::Packet& p) const {
  std::uint8_t* h = p.data();
  if (p.ip_version == netbase::IpVersion::v4) {
    h[1] = static_cast<std::uint8_t>(cfg_.mark_dscp << 2);
    pkt::Ipv4Header::finalize_checksum(
        h, std::size_t{static_cast<std::size_t>(h[0] & 0x0f)} * 4);
  } else {
    // Traffic class straddles bytes 0/1 of the IPv6 header.
    std::uint8_t tc = static_cast<std::uint8_t>(cfg_.mark_dscp << 2);
    h[0] = static_cast<std::uint8_t>((h[0] & 0xf0) | (tc >> 4));
    h[1] = static_cast<std::uint8_t>((h[1] & 0x0f) | (tc << 4));
  }
}

Verdict PolicerInstance::handle_packet(pkt::Packet& p, void** flow_soft) {
  Bucket* b = bucket_for(flow_soft);
  if (conforms(*b, p.size(), p.arrival)) {
    ++conformant_;
    return Verdict::cont;
  }
  ++exceeded_;
  if (cfg_.mark) {
    remark(p);
    return Verdict::cont;
  }
  return Verdict::drop;
}

void PolicerInstance::flow_removed(void* flow_soft) {
  if (auto* b = static_cast<Bucket*>(flow_soft)) buckets_.erase(b->self);
}

Status PolicerInstance::handle_message(const plugin::PluginMsg& msg,
                                       plugin::PluginReply& reply) {
  if (msg.custom_name == "stats") {
    reply.text = "conformant=" + std::to_string(conformant_) +
                 " exceeded=" + std::to_string(exceeded_) +
                 " buckets=" + std::to_string(buckets_.size());
    return Status::ok;
  }
  if (msg.custom_name == "setrate") {
    auto rate = msg.args.get_int("rate_bps");
    if (!rate || *rate <= 0) return Status::invalid_argument;
    cfg_.rate_bps = static_cast<std::uint64_t>(*rate);
    if (auto burst = msg.args.get_int("burst"); burst && *burst > 0)
      cfg_.burst_bytes = static_cast<std::uint32_t>(*burst);
    return Status::ok;
  }
  return Status::unsupported;
}

void register_policer_plugin() {
  plugin::PluginLoader::register_module(
      "policer", [] { return std::make_unique<PolicerPlugin>(); });
}

}  // namespace rp::sched
