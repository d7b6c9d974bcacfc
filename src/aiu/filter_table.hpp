// Filter tables (Section 5.1): best-matching-filter lookup for packets on
// uncached flows. One filter table exists per gate.
//
// Two implementations:
//  * DagFilterTable — the paper's contribution: a set-pruning-trie DAG with
//    one level per tuple field. Address levels are matched with a pluggable
//    BMP engine (longest prefix match), port levels on ranges, protocol and
//    interface levels by exact match. Filters that leave a field
//    unconstrained sit on a per-node wild edge descended alongside the
//    specific edge (results merged by specificity) instead of being
//    replicated into every subtree — lookup visits O(fields) nodes per
//    explored wild branch, and incremental patch() reuse survives wildcard
//    churn because untouched subgraph memo keys stay unchanged.
//  * LinearFilterTable — the O(n) scan that "typical filter algorithms used
//    in existing implementations" amount to; the evaluation baseline.
//
// Both count memory accesses via netbase::MemAccess using the same
// accounting as the paper's Table 2.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aiu/filter.hpp"
#include "bmp/lpm.hpp"
#include "netbase/status.hpp"
#include "plugin/plugin.hpp"

namespace rp::aiu {

using netbase::Status;

// A filter installed in a table, bound to a plugin instance. Leaf nodes of
// the DAG point at these records; flow-table entries keep back-pointers to
// them. `private_data` is the opaque per-filter (hard) state the paper lets
// plugins attach to installed filters (Section 5.1.1).
struct FilterRecord {
  Filter filter{};
  plugin::PluginInstance* instance{nullptr};
  void* private_data{nullptr};
  std::uint32_t id{0};
};

class FilterTableBase {
 public:
  virtual ~FilterTableBase() = default;

  // Installs (or rebinds) a filter; returns the stable record.
  virtual FilterRecord* insert(const Filter& f,
                               plugin::PluginInstance* inst) = 0;
  virtual Status remove(const Filter& f) = 0;

  // Best matching filter for a fully-specified key; nullptr if none.
  virtual const FilterRecord* lookup(const pkt::FlowKey& key) const = 0;

  virtual std::size_t size() const = 0;

  // Removes every filter bound to `inst` (module unload / free_instance);
  // returns how many were removed.
  virtual std::size_t purge_instance(const plugin::PluginInstance* inst) = 0;

  // Rebinds every record bound to `from` onto `to` — the versioned-upgrade
  // primitive. Purely a record mutation: leaves/scan entries point at
  // records, so no structural rebuild happens. Returns records rebound.
  virtual std::size_t rebind_instance(plugin::PluginInstance* from,
                                      plugin::PluginInstance* to) = 0;

  virtual std::vector<const FilterRecord*> records() const = 0;

  // Eagerly performs any pending (lazy) rebuild; keeps construction work
  // out of measured lookup paths. No-op for tables that build eagerly.
  virtual void prepare() const {}

  // Applies pending mutations by patching the existing structure in place
  // where the implementation supports it (DAG subgraph reuse); the default
  // falls back to prepare(). Control-plane batches call this at burst
  // boundaries so the packet path never pays a from-scratch build. The DAG
  // does not prepare its new nodes' BMP engines, though: a bsl engine is
  // built on its first lookup, on the packet path (ROADMAP.md, first open
  // item).
  virtual void patch() const { prepare(); }
};

// ---------------------------------------------------------------------------

class DagFilterTable final : public FilterTableBase {
 public:
  struct Options {
    std::string bmp_engine{"bsl"};  // per-level BMP plugin: patricia|bsl|cpe
    bool collapse{true};            // §5.1.2: skip levels all-wildcarded
  };

  DagFilterTable();
  explicit DagFilterTable(Options opt);
  ~DagFilterTable() override;

  FilterRecord* insert(const Filter& f, plugin::PluginInstance* inst) override;
  Status remove(const Filter& f) override;
  const FilterRecord* lookup(const pkt::FlowKey& key) const override;
  std::size_t size() const override { return records_.size(); }
  std::size_t purge_instance(const plugin::PluginInstance* inst) override;
  std::size_t rebind_instance(plugin::PluginInstance* from,
                              plugin::PluginInstance* to) override;
  std::vector<const FilterRecord*> records() const override;

  // Diagnostics for benches/tests (force a rebuild if one is pending).
  std::size_t node_count() const {
    if (dirty_) rebuild();
    return nodes_.size();
  }
  // Graphviz dump of the DAG (nodes labelled by level, leaves by filter) —
  // a debugging aid for filter-set authors.
  std::string dump_dot() const;
  std::size_t rebuild_count() const { return rebuilds_; }
  void prepare() const override {
    if (dirty_) rebuild();
  }

  // Incremental update: re-derives the root with the build memo retained, so
  // every (level, candidate-set) pair untouched by the batch resolves to the
  // node already in the arena and only affected paths are built anew. Record
  // ids are never reused and filters are immutable, which is what makes a
  // memo hit safe: the reused subgraph can only reference ids in its key,
  // all live. Superseded nodes become garbage swept by the next compaction.
  void patch() const override;
  std::size_t patch_count() const { return patches_; }
  // Nodes reachable from the root — excludes garbage retained by patching.
  std::size_t reachable_node_count() const;

 private:
  // Field indices in tuple order; 6 == leaf.
  enum : int { kSrc = 0, kDst, kProto, kSport, kDport, kIface, kLeaf };

  struct Node {
    std::uint8_t level{kLeaf};
    // kSrc/kDst: per-family LPM over edge prefixes; value = edge index.
    std::unique_ptr<bmp::LpmEngine> lpm4;
    std::unique_ptr<bmp::LpmEngine> lpm6;
    std::vector<std::int32_t> addr_targets;
    // kSport/kDport: exact ports fast path + ranges sorted narrowest-first.
    std::unordered_map<std::uint16_t, std::int32_t> port_exact;
    std::vector<std::pair<PortSpec, std::int32_t>> ranges;
    // kProto/kIface: exact map.
    std::unordered_map<std::uint32_t, std::int32_t> exact;
    // Every non-leaf level: sub-DAG over the filters that leave this field
    // unconstrained. Hoisting them here (rather than replicating them into
    // every specific edge's subtree, classic set-pruning) keeps subgraph
    // memo keys stable under wildcard churn; lookup descends this edge in
    // addition to the matched specific edge and keeps the better result.
    std::int32_t wild{-1};
    // kLeaf:
    const FilterRecord* leaf{nullptr};
  };

  void rebuild() const;
  // Mark-and-copy GC over the arena: drops garbage nodes, remaps the memo,
  // frees the graveyard. Keeps patch() incremental across compactions.
  void compact() const;
  std::int32_t build(int level,
                     const std::vector<const FilterRecord*>& cand) const;
  std::int32_t walk(const Node& n, const pkt::FlowKey& key) const;
  const FilterRecord* match_from(std::int32_t idx,
                                 const pkt::FlowKey& key) const;

  Options opt_{};
  std::vector<std::unique_ptr<FilterRecord>> records_;
  std::uint32_t next_id_{1};

  // Removed records are tombstoned here instead of destroyed: until the
  // next patch/rebuild, garbage nodes may still hold leaf pointers to them
  // (never dereferenced on lookup — they are unreachable — but dump_dot
  // walks the whole arena). Compaction finally frees them.
  mutable std::vector<std::unique_ptr<FilterRecord>> graveyard_;

  // Mutations mark the structure dirty; it is rebuilt lazily on the next
  // lookup (filter installation is a control-path operation) unless the
  // control plane patches it in first.
  mutable bool dirty_{false};
  mutable std::vector<Node> nodes_;
  mutable std::int32_t root_{-1};
  mutable std::size_t rebuilds_{0};
  mutable std::size_t patches_{0};

  // Build memoization: (level, candidate ids) -> node; this is what makes
  // the structure a DAG rather than a tree. Persisted across builds so
  // patch() can reuse subgraphs; rebuild() resets it with the arena.
  mutable std::map<std::pair<int, std::vector<std::uint32_t>>, std::int32_t>
      memo_;
};

// ---------------------------------------------------------------------------

class LinearFilterTable final : public FilterTableBase {
 public:
  FilterRecord* insert(const Filter& f, plugin::PluginInstance* inst) override;
  Status remove(const Filter& f) override;
  const FilterRecord* lookup(const pkt::FlowKey& key) const override;
  std::size_t size() const override { return records_.size(); }
  std::size_t purge_instance(const plugin::PluginInstance* inst) override;
  std::size_t rebind_instance(plugin::PluginInstance* from,
                              plugin::PluginInstance* to) override;
  std::vector<const FilterRecord*> records() const override;

 private:
  std::vector<std::unique_ptr<FilterRecord>> records_;
  std::uint32_t next_id_{1};
};

// Factory: "dag" or "linear".
std::unique_ptr<FilterTableBase> make_filter_table(
    std::string_view kind, const DagFilterTable::Options& dag_opt = {});

}  // namespace rp::aiu
