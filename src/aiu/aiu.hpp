// Association Identification Unit (Section 5) — the facade tying together
// packet classification (filter tables, one per gate), the flow cache, and
// the binding between flows and plugin instances.
//
// Data path (Section 3.2): a gate calls `gate_lookup(packet, gate)`.
//  * If the packet already carries a flow index (FIX), the binding is a
//    direct array access — the gate then makes one indirect function call.
//  * Otherwise the flow table is probed; on a hit the FIX is stored in the
//    packet. On a miss, *all* gates' filter tables are looked up once and a
//    flow-table entry is created ("the processing of the first packet of a
//    new flow with n gates involves n filter table lookups").
//
// Control path: the AIU publishes registration functions, installed into the
// PCU as hooks, so register_instance/deregister_instance messages create and
// remove filter bindings.
#pragma once

#include <array>
#include <memory>
#include <span>

#include "aiu/filter_table.hpp"
#include "aiu/flow_table.hpp"
#include "netbase/clock.hpp"
#include "plugin/pcu.hpp"

namespace rp::aiu {

class Aiu {
 public:
  struct Options {
    std::string classifier{"dag"};  // "dag" | "linear" (evaluation baseline)
    DagFilterTable::Options dag{};
    std::size_t flow_buckets{32768};  // §5.2 default
    std::size_t initial_flows{1024};  // §5.2 default
    std::size_t max_flows{1 << 20};
    bool flow_cache_enabled{true};    // ablation switch (bench F-G)
  };

  struct Stats {
    std::uint64_t uncached_classifications{0};  // flow-entry creations
    std::uint64_t filter_lookups{0};
    std::uint64_t cache_flushes{0};
    std::uint64_t flows_rebound{0};  // entries purged by rebind_instance
    // Bindings cleared through the flow-offload hook (L7 verdict cache:
    // a flow judged clean bypasses its inspection gate from then on).
    std::uint64_t flows_offloaded{0};
    // Control-plane churn (docs/control_plane.md): flows selectively
    // re-classified by apply_filter_batch (instead of a full cache flush)
    // and soft-state transfers performed by handoff_instance.
    std::uint64_t flows_invalidated{0};
    std::uint64_t flows_migrated{0};
  };

  // One element of a control-plane filter batch.
  struct FilterOp {
    enum class Kind : std::uint8_t { add, remove };
    Kind kind{Kind::add};
    plugin::PluginType gate{plugin::PluginType::none};
    Filter filter{};
    plugin::PluginInstance* instance{nullptr};  // add only
  };

  struct FilterBatchResult {
    std::size_t added{0};
    std::size_t removed{0};
    std::size_t failed{0};
    std::size_t flows_invalidated{0};  // entries selectively re-classified
  };

  // Outcome of a versioned-instance handoff.
  struct HandoffResult {
    std::size_t filters_rebound{0};  // filter records moved from -> to
    std::size_t flows_rebound{0};    // gate bindings moved from -> to
    std::size_t state_migrated{0};   // soft states adopted via migrate_flow
    std::size_t state_dropped{0};    // soft states the new version declined
  };

  Aiu(plugin::PluginControlUnit& pcu, netbase::SimClock& clock);
  Aiu(plugin::PluginControlUnit& pcu, netbase::SimClock& clock, Options opt);

  // -- control path --

  Status create_filter(plugin::PluginType gate, const Filter& f,
                       plugin::PluginInstance* inst);
  Status remove_filter(plugin::PluginType gate, const Filter& f);

  // Applies a batch of filter adds/removes with *selective* flow
  // invalidation: instead of the full cache flush create_filter/
  // remove_filter pay, only flows whose classification could have changed
  // (key matches an added filter, or binding derives from a removed record)
  // are dropped for re-classification. A built DAG takes each op in place,
  // and the touched tables are prepared before the call returns, so the
  // packet path builds nothing. Call between bursts only, like every other
  // control-path mutation.
  FilterBatchResult apply_filter_batch(std::span<const FilterOp> ops);

  // Versioned-upgrade handoff (docs/plugin_authoring.md §13): rebinds every
  // filter record and live flow binding from `from` onto `to`, offering each
  // flow's soft state to `to` via migrate_flow. Declined state is released
  // through `from->flow_removed` and the flow restarts stateless under `to`;
  // either way the flow entry survives, so no packets are dropped and no
  // re-classification happens. Call between bursts only.
  HandoffResult handoff_instance(plugin::PluginInstance* from,
                                 plugin::PluginInstance* to);

  // Purges every flow-table entry bound to `inst` so the next packet of each
  // affected flow re-classifies against the filter tables and binds to
  // whatever matches now. Used by the resilience supervisor when an
  // instance's circuit breaker opens (call only between bursts: in-flight
  // GateBindings point into the purged entries). Returns entries purged.
  std::size_t rebind_instance(const plugin::PluginInstance* inst);

  FilterTableBase* filter_table(plugin::PluginType gate) noexcept {
    return tables_[gate_index(gate)].get();
  }
  FlowTable& flow_table() noexcept { return flows_; }
  const Stats& stats() const noexcept { return stats_; }

  // -- data path --

  // The body of the gate macro: returns the binding (instance + per-flow
  // soft-state slot) for this packet at this gate, or nullptr when the
  // packet is unparseable. A binding with a null instance means no filter
  // matched — the gate simply continues.
  GateBinding* gate_lookup(pkt::Packet& p, plugin::PluginType gate);

  // Burst data path. Packets are processed in chunks of at most kMaxBurst.
  static constexpr std::size_t kMaxBurst = 32;

  // Resolves the flow index for every packet of a burst and stores it in the
  // packet (p->fix), after which each gate's lookup is a direct array
  // access. Three passes per chunk: (1) hash every key once (cached on the
  // packet) and prefetch the flow-table bucket heads, (2) prefetch the
  // chained FlowRecords, (3) probe with the precomputed hashes — where a
  // single-entry "last flow" memo lets back-to-back packets of one flow
  // skip even the hash probe. Packets must have a valid key (the core
  // parses headers before classification); with the flow cache disabled
  // this is a no-op and the per-gate ablation path applies.
  //
  // Note: like the single-packet path, resolved indices assume the entry
  // survives until the packet leaves the core; keep max_flows well above
  // kMaxBurst so LRU recycling cannot evict a burst-mate's flow.
  void resolve_flows_burst(std::span<pkt::Packet* const> pkts);

 private:
  pkt::FlowIndex create_flow_entry(pkt::Packet& p);
  void flush_cache();
  void install_pcu_hooks();

  plugin::PluginControlUnit& pcu_;
  netbase::SimClock& clock_;
  Options opt_;
  std::array<std::unique_ptr<FilterTableBase>, kNumGates> tables_;
  FlowTable flows_;
  Stats stats_;
};

}  // namespace rp::aiu
