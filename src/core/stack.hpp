// Stack — one complete EISR stack (Figure 2): the PCU and plugin loader, the
// AIU (filter tables + flow table), routing table, interfaces, IP core,
// telemetry and resilience supervisor, wired together exactly once:
// telemetry attached to the core, the supervisor guarding every gate,
// flow-table removals exported as flow records, and purge hooks that detach
// a freed instance from output ports and supervision.
//
// RouterKernel is a Stack plus the discrete-event loop; each shard of the
// parallel datapath is a bare Stack driven by its worker thread
// (parallel::ShardContext). The control plane and pmgr iterate "every
// stack" uniformly, so the single-threaded kernel is just the N=1 case.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "aiu/aiu.hpp"
#include "core/ip_core.hpp"
#include "netdev/iftable.hpp"
#include "plugin/loader.hpp"
#include "plugin/pcu.hpp"
#include "resilience/resilience.hpp"
#include "route/routing_table.hpp"
#include "telemetry/telemetry.hpp"

namespace rp::core {

class Stack {
 public:
  struct Options {
    aiu::Aiu::Options aiu{};
    CoreConfig core{};
    std::string route_engine{"bsl"};
    telemetry::Telemetry::Options telemetry{};
    resilience::Supervisor::Options resilience{};
  };

  // `id` names the stack among its siblings (the shard index; 0 for the
  // kernel).
  Stack(std::uint32_t id, Options opt);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  netbase::SimClock& clock() noexcept { return clock_; }
  plugin::PluginControlUnit& pcu() noexcept { return pcu_; }
  plugin::PluginLoader& loader() noexcept { return loader_; }
  aiu::Aiu& aiu() noexcept { return *aiu_; }
  netdev::InterfaceTable& interfaces() noexcept { return ifs_; }
  route::RoutingTable& routes() noexcept { return routes_; }
  IpCore& core() noexcept { return *core_; }
  telemetry::Telemetry& telemetry() noexcept { return *telemetry_; }
  resilience::Supervisor& resilience() noexcept { return *resil_; }

 protected:
  // RouterKernel's event loop drives the subsystems directly.
  netbase::SimClock clock_;
  plugin::PluginControlUnit pcu_;
  plugin::PluginLoader loader_;
  netdev::InterfaceTable ifs_;
  route::RoutingTable routes_;
  // Declared before aiu_: the flow table's remove hook exports records into
  // telemetry during Aiu destruction, so telemetry must outlive it.
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  // Declared before aiu_/core_ (so it outlives every dispatch) but after
  // pcu_ (so its destructor runs while instances are still alive and can
  // null each instance's cached guard slot).
  std::unique_ptr<resilience::Supervisor> resil_;
  std::unique_ptr<aiu::Aiu> aiu_;
  std::unique_ptr<IpCore> core_;
  std::uint32_t id_;
};

}  // namespace rp::core
