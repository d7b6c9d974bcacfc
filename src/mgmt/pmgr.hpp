// pmgr — the Plugin Manager (Section 3.1): "a simple application which
// takes arguments from the command line and translates them into calls to
// the user-space Router Plugin Library".
//
// Commands (one per exec() call; a '#' line is a comment):
//   modload <module>                    load a plugin module
//   modunload <module>                  unload it (quiesces data path refs)
//   lsmod                               list loadable/loaded modules
//   create <plugin> [k=v ...]           create an instance -> prints its id
//   free <plugin> <id>                  free an instance
//   bind <plugin> <id> <filter spec>    bind instance to a flow filter
//   unbind <plugin> <id> <filter spec>  remove the binding
//   msg <plugin> <id|-> <name> [k=v...] plugin-specific message
//   attach <plugin> <id> <iface>        make a scheduler the port discipline
//   route add <prefix> <iface>          add a route
//   aiu                                 classifier/flow-cache statistics
//   telemetry                           observability summary (drops by name)
//   telemetry hist [gate]               pipeline / per-gate cycle histogram
//   telemetry trace [n]                 n most recent sampled path traces
//   telemetry sample <N|off>            instrument 1-in-N packets
//   telemetry export                    flow-export snapshot of live flows
//   telemetry sink <mem|jsonl <path>>   choose the flow-record sink
//   telemetry metrics                   plugin-registered counters (docs §8)
//   telemetry reset                     clear histograms/traces/core counters
//   resilience [status|events|budget|trip|reset|fallback|inject ...]
//                                       plugin fault containment
//   sanitize [on|off]                   ingress-sanitization counters/toggle
//   l7 ... | sched ...                  L7 inspection / scheduler surfaces
//   (telemetry, resilience, sanitize, l7 and sched span every stack: with a
//   ShardedDatapath attached they merge counters and histograms over the
//   kernel and every shard, and apply settings to each; shown settings are
//   the kernel's. `telemetry trace|export|sink` and `resilience events`
//   stay on the kernel stack: they are per-stack record streams and file
//   sinks.)
//   shard [status]                      per-shard snapshots (lock-free reads)
//   shard sweep <ns>                    expire idle flows on every shard
//   shard io                            per-queue I/O backend view
//   (shard commands need a ShardedDatapath attached via attach_sharded)
//   ctrl route-batch (add <prefix> <iface> | withdraw <prefix>)...
//                                       one atomic batched route update
//   ctrl filter-batch <plugin> <id> (add=<filter>|remove=<filter>)...
//                                       batched filter churn (DAG patching)
//   ctrl upgrade <plugin> <old> <new> [retire]
//                                       zero-loss instance hot-swap
//   ctrl status                         control-plane counters
//   (ctrl commands apply to every stack)
//   For k=v values containing spaces (e.g. filter=<a, b, ...>) use commas
//   instead of spaces inside the value.
//
// `run_script` executes a newline-separated configuration script, the way
// the paper configures the router at boot.
#pragma once

#include <string>
#include <string_view>

#include "ctrl/control_plane.hpp"
#include "mgmt/rplib.hpp"

namespace rp::mgmt {

class PluginManager {
 public:
  struct Result {
    Status status{Status::ok};
    std::string text;
    bool ok() const noexcept { return status == Status::ok; }
  };

  explicit PluginManager(RouterPluginLib& lib)
      : lib_(lib), ctrl_(lib.kernel()) {}

  // Adds a running sharded datapath's stacks to every command (see the
  // reference above). The lib's kernel stays the control-plane template;
  // the datapath is where traffic actually flows. Null detaches.
  void attach_sharded(parallel::ShardedDatapath* dp) noexcept {
    ctrl_.attach_sharded(dp);
  }

  Result exec(std::string_view command);
  // Executes line by line; stops at the first failure unless keep_going.
  Result run_script(std::string_view script, bool keep_going = false);

  // The live control plane behind the `ctrl` family; exposed so embedders
  // (tests, benches) can drive batches programmatically with the same
  // object — and the same cumulative stats — the commands use.
  ctrl::ControlPlane& control() noexcept { return ctrl_; }

 private:
  RouterPluginLib& lib_;
  ctrl::ControlPlane ctrl_;
};

}  // namespace rp::mgmt
