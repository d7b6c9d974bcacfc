// Token-bucket policer plugin — the enforcement half of the paper's edge-
// router story: "modern edge routers ... responsible for ... enforcing the
// configured profiles of differential service flows. This kind of
// enforcement can be done either on a per-application flow basis, or on a
// generalized class-based approach."
//
// An instance is a profile (rate, burst, action). Bound to a filter it
// polices all matching flows; with per_flow=1 each flow gets its own bucket
// (stored in the flow table's soft-state slot), otherwise all matching
// traffic shares one bucket (the class-based mode). Non-conformant packets
// are dropped, or remarked (DSCP/traffic-class) when action=mark.
//
// Registered as the `congestion` plugin type (the pre-routing policing
// gate).
#pragma once

#include <list>
#include <memory>

#include "netbase/clock.hpp"
#include "plugin/loader.hpp"
#include "plugin/plugin.hpp"

namespace rp::sched {

class PolicerInstance final : public plugin::PluginInstance {
 public:
  struct Config {
    std::uint64_t rate_bps{1'000'000};
    std::uint32_t burst_bytes{16'000};
    bool per_flow{true};
    bool mark{false};          // remark instead of drop
    std::uint8_t mark_dscp{8}; // class selector CS1 (dscp << 2 into ToS)
  };

  explicit PolicerInstance(Config cfg) : cfg_(cfg) {}
  ~PolicerInstance() override;

  plugin::Verdict handle_packet(pkt::Packet& p, void** flow_soft) override;
  void flow_removed(void* flow_soft) override;
  netbase::Status handle_message(const plugin::PluginMsg& msg,
                                 plugin::PluginReply& reply) override;

  std::uint64_t conformant() const noexcept { return conformant_; }
  std::uint64_t exceeded() const noexcept { return exceeded_; }

 private:
  struct Bucket {
    double tokens{0};
    netbase::SimTime last{0};
    bool primed{false};
    void** soft_slot{nullptr};
    std::list<Bucket>::iterator self{};  // O(1) flow_removed
  };

  // Returns true if `bytes` conforms (and consumes the tokens).
  bool conforms(Bucket& b, std::size_t bytes, netbase::SimTime now) const;
  Bucket* bucket_for(void** flow_soft);
  void remark(pkt::Packet& p) const;

  Config cfg_;
  Bucket shared_{};
  std::list<Bucket> buckets_;
  std::uint64_t conformant_{0};
  std::uint64_t exceeded_{0};
};

class PolicerPlugin final : public plugin::Plugin {
 public:
  PolicerPlugin() : Plugin("policer", plugin::PluginType::congestion) {}

 protected:
  std::unique_ptr<plugin::PluginInstance> make_instance(
      const plugin::Config& cfg) override {
    PolicerInstance::Config c;
    c.rate_bps =
        static_cast<std::uint64_t>(cfg.get_int_or("rate_bps", 1'000'000));
    c.burst_bytes =
        static_cast<std::uint32_t>(cfg.get_int_or("burst", 16'000));
    c.per_flow = cfg.get_int_or("per_flow", 1) != 0;
    auto action = cfg.get_or("action", "drop");
    if (action == "mark") c.mark = true;
    else if (action != "drop") return nullptr;
    c.mark_dscp = static_cast<std::uint8_t>(cfg.get_int_or("dscp", 8));
    if (c.rate_bps == 0 || c.burst_bytes == 0) return nullptr;
    return std::make_unique<PolicerInstance>(c);
  }
};

void register_policer_plugin();

}  // namespace rp::sched
