// Interface table: owns the router's NICs and maps interface indices to
// them. Interface index 0 is valid (the paper's filters treat the incoming
// interface as just another tuple field; kAnyIface is the wildcard).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "netdev/nic.hpp"

namespace rp::netdev {

class InterfaceTable {
 public:
  // Creates and registers a NIC; its index is its position in the table.
  SimNic& add(std::string name, std::uint64_t bandwidth_bps = 155'000'000,
              netbase::SimTime propagation_delay = 0,
              std::size_t rx_ring = 1024) {
    auto idx = static_cast<pkt::IfIndex>(nics_.size());
    nics_.push_back(std::make_unique<SimNic>(std::move(name), idx,
                                             bandwidth_bps, propagation_delay,
                                             rx_ring));
    return *nics_.back();
  }

  SimNic* by_index(pkt::IfIndex i) noexcept {
    return i < nics_.size() ? nics_[i].get() : nullptr;
  }
  const SimNic* by_index(pkt::IfIndex i) const noexcept {
    return i < nics_.size() ? nics_[i].get() : nullptr;
  }

  SimNic* by_name(std::string_view name) noexcept {
    for (auto& n : nics_)
      if (n->name() == name) return n.get();
    return nullptr;
  }

  std::size_t size() const noexcept { return nics_.size(); }

  // Summed counters across every NIC — the "are we losing packets at the
  // driver?" read the telemetry surface reports (rx_drops in particular
  // used to be counted but never aggregated anywhere).
  NicCounters totals() const noexcept {
    NicCounters t{};
    for (const auto& n : nics_) t += n->counters();
    return t;
  }

  auto begin() noexcept { return nics_.begin(); }
  auto end() noexcept { return nics_.end(); }
  auto begin() const noexcept { return nics_.begin(); }
  auto end() const noexcept { return nics_.end(); }

 private:
  std::vector<std::unique_ptr<SimNic>> nics_;
};

}  // namespace rp::netdev
