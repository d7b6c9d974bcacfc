// Live control plane (docs/control_plane.md): batched route updates,
// batched filter churn, and versioned plugin upgrades against a router that
// keeps forwarding while it is reconfigured.
//
// The ControlPlane drives every stack the router runs: its template stack
// (normally the RouterKernel) directly and, when a ShardedDatapath is
// attached, each shard's private stack through gather() — the burst-boundary
// quiesce hook — so workers never observe a half-applied update and nothing
// on the packet path takes a lock. for_each_stack() is that one iteration;
// each operation below is one visit of it:
//   * route batches   -> RoutingTable::apply_batch per stack (in-place
//     engine updates; a bsl build when a prefix length appears or empties,
//     never on the packet path);
//   * filter batches  -> Aiu::apply_filter_batch per stack (DAG patching +
//     selective flow invalidation instead of rebuild + full flush);
//   * upgrades        -> Aiu::handoff_instance per stack (filter rebind +
//     migrate_flow soft-state transfer; zero packets, zero flow entries
//     lost), optionally retiring the old instance everywhere afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aiu/aiu.hpp"
#include "core/router.hpp"
#include "route/routing_table.hpp"

namespace rp::parallel {
class ShardedDatapath;
}

namespace rp::ctrl {

using netbase::Status;

// A filter-batch element at the management layer: instances are named by
// (plugin, id) rather than by pointer, because each shard resolves the pair
// to its *own* private instance object.
struct FilterSpecOp {
  aiu::Aiu::FilterOp::Kind kind{aiu::Aiu::FilterOp::Kind::add};
  std::string plugin;                                // names the gate, too
  plugin::InstanceId instance{plugin::kNoInstance};  // add only
  aiu::Filter filter{};
};

class ControlPlane {
 public:
  struct Stats {
    std::uint64_t route_batches{0};
    std::uint64_t routes_added{0};
    std::uint64_t routes_updated{0};  // in-place next-hop rewrites
    std::uint64_t routes_withdrawn{0};
    std::uint64_t route_failures{0};
    std::uint64_t filter_batches{0};
    std::uint64_t filters_added{0};
    std::uint64_t filters_removed{0};
    std::uint64_t filter_failures{0};
    std::uint64_t flows_invalidated{0};
    std::uint64_t upgrades{0};
    std::uint64_t upgrade_filters_rebound{0};
    std::uint64_t upgrade_flows_rebound{0};
    std::uint64_t upgrade_state_migrated{0};
    std::uint64_t upgrade_state_dropped{0};
  };

  explicit ControlPlane(core::Stack& stack) : stack_(stack) {}

  // Points the control plane at a running sharded datapath (null detaches).
  // The stack given at construction stays the control-plane template.
  void attach_sharded(parallel::ShardedDatapath* dp) noexcept {
    sharded_ = dp;
  }
  parallel::ShardedDatapath* sharded() const noexcept { return sharded_; }

  // Stacks for_each_stack visits: the template plus one per shard.
  std::size_t stack_count() const noexcept;

  // Runs fn(stack, slot) on every stack and returns when all have run: the
  // template as slot 0 on the calling thread, then shard i as slot i + 1 on
  // its own worker thread at a burst boundary. Shards run concurrently, so
  // fn writes per-slot results. With no datapath attached this is a plain
  // call — no allocation, no type erasure.
  template <class Fn>
  void for_each_stack(Fn&& fn) {
    fn(stack_, std::size_t{0});
    if (sharded_) visit_shards(std::ref(fn));
  }

  // Applies the batch to every stack. The returned counts are the
  // template's; shard results are identical by construction (replicated
  // configuration) and asserted so in the churn tests.
  route::RouteBatchResult apply_route_batch(const std::vector<route::RouteOp>& ops);

  // Applies filter adds/removes as one batch per stack, with DAG patching
  // and selective flow invalidation (see Aiu::apply_filter_batch). Fails op
  // resolution (unknown plugin / instance) into the result's failed count
  // rather than aborting the batch. `detail` (optional) receives a summary.
  Status apply_filter_batch(const std::vector<FilterSpecOp>& ops,
                            std::string* detail = nullptr);

  // Versioned upgrade: rebinds filters and live flows of (plugin, from) onto
  // (plugin, to) on every stack, offering per-flow soft state through
  // PluginInstance::migrate_flow; the totals are summed over every stack.
  // With `retire`, the old instance is then freed everywhere (its purge
  // hooks find nothing bound).
  Status upgrade(const std::string& plugin, plugin::InstanceId from,
                 plugin::InstanceId to, bool retire,
                 std::string* detail = nullptr);

  const Stats& stats() const noexcept { return stats_; }
  std::string status_text() const;

 private:
  void visit_shards(const std::function<void(core::Stack&, std::size_t)>& fn);

  core::Stack& stack_;
  parallel::ShardedDatapath* sharded_{nullptr};
  Stats stats_;
};

}  // namespace rp::ctrl
