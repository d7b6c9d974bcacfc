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
//    explored wild branch, and a filter add or remove changes only the
//    nodes whose candidate set the filter enters or leaves, which the table
//    patches in place.
//  * LinearFilterTable — the O(n) scan that "typical filter algorithms used
//    in existing implementations" amount to; the evaluation baseline.
//
// Both count memory accesses via netbase::MemAccess using the same
// accounting as the paper's Table 2.
#pragma once

#include <deque>
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

  // The record installed for exactly `f`, or nullptr.
  virtual const FilterRecord* find(const Filter& f) const = 0;

  // Makes the table ready for lookups on the control path: builds it if it
  // was never built, then does what patch() does. No-op for tables that
  // build eagerly.
  virtual void prepare() const {}

  // Finishes the work that insert, remove and purge_instance left pending,
  // without building a table that was never built. The DAG prepares the BMP
  // engines its in-place ops touched and frees the records they removed, so
  // the next lookup builds nothing. Call it, or prepare(), only once no flow
  // binding can hold a removed record. The default falls back to prepare().
  virtual void patch() const { prepare(); }
};

// ---------------------------------------------------------------------------

class DagFilterTable final : public FilterTableBase {
 public:
  struct Options {
    std::string bmp_engine{"bsl"};  // per-level BMP plugin: patricia|bsl|cpe
    bool collapse{true};            // §5.1.2: skip levels all-wildcarded
  };

  // What the in-place ops have cost since construction. Tests hold `work`
  // to a bound per op and per node changed.
  struct PatchStats {
    std::uint64_t ops{0};            // adds and removes applied in place
    std::uint64_t work{0};           // nodes visited plus edges touched
    std::uint64_t nodes_changed{0};  // nodes created, mutated or freed
  };

  DagFilterTable();
  explicit DagFilterTable(Options opt);
  ~DagFilterTable() override;

  // Once the table is built, insert, remove and purge_instance apply each
  // filter to the live DAG in place: they visit only the nodes whose
  // candidate set the filter enters or leaves, copy a shared node before
  // changing it, and reuse the node that already exists for a new
  // (level, candidate-set) pair, so the DAG stays exactly what a fresh build
  // of the same filters makes. patch() then prepares the engines they
  // touched and frees the records they removed. Before the first build they
  // only record the filter; the first lookup or prepare() builds the table
  // in one pass.
  FilterRecord* insert(const Filter& f, plugin::PluginInstance* inst) override;
  Status remove(const Filter& f) override;
  const FilterRecord* lookup(const pkt::FlowKey& key) const override;
  const FilterRecord* find(const Filter& f) const override;
  std::size_t size() const override { return records_.size(); }
  std::size_t purge_instance(const plugin::PluginInstance* inst) override;
  std::size_t rebind_instance(plugin::PluginInstance* from,
                              plugin::PluginInstance* to) override;
  void prepare() const override;
  void patch() const override;

  // Diagnostics for benches/tests (build the table if it was never built).
  std::size_t node_count() const;
  // Nodes reachable from the root; equals node_count() unless a reference
  // count is wrong.
  std::size_t reachable_node_count() const;
  // Graphviz dump of the DAG (nodes labelled by level, leaves by filter) —
  // a debugging aid for filter-set authors.
  std::string dump_dot() const;
  // One-pass builds so far: 1 once the table is built, whatever the churn.
  std::size_t rebuild_count() const { return rebuilds_; }
  const PatchStats& patch_stats() const noexcept { return stats_; }

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
    // every specific edge's subtree, classic set-pruning) keeps a wildcard
    // filter's add or remove to the wild chain; lookup descends this edge in
    // addition to the matched specific edge and keeps the better result.
    std::int32_t wild{-1};
    // kLeaf:
    const FilterRecord* leaf{nullptr};
  };

  // An address edge's prefix. The order puts the edges a prefix covers in
  // one key range.
  struct EdgeKey {
    netbase::IpVersion ver{};
    netbase::U128 key{};
    std::uint8_t len{0};
    friend auto operator<=>(const EdgeKey&, const EdgeKey&) = default;
  };
  struct AddrEdge {
    std::int32_t slot{-1};     // index into Node::addr_targets
    std::uint32_t filters{0};  // candidates whose prefix is exactly this one
  };

  // Build-side state of nodes_[i], kept beside the arena so walk() reads
  // only Node. A node is the unique node for its (level, cands) pair.
  struct NodeInfo {
    std::vector<const FilterRecord*> cands;  // sorted by id
    std::uint64_t hash{0};          // order-independent hash of cands' ids
    std::uint32_t refs{0};          // edges + root handle; 0 == free
    std::uint32_t constrained{0};   // cands that constrain this field
    // kSrc/kDst: the edges by prefix, the edge count per (family, length)
    // present, and the unused addr_targets slots.
    std::map<EdgeKey, AddrEdge> edges;
    std::vector<std::pair<std::uint16_t, std::uint32_t>> lengths;
    std::vector<std::int32_t> free_slots;
  };
  using Cands = std::vector<const FilterRecord*>;

  // Hashes and compares records by filter value, and finds one by a Filter.
  struct ByFilter {
    using is_transparent = void;
    std::size_t operator()(const Filter& f) const noexcept;
    std::size_t operator()(const FilterRecord* r) const noexcept {
      return (*this)(r->filter);
    }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      return filter_of(a) == filter_of(b);
    }
    static const Filter& filter_of(const Filter& f) noexcept { return f; }
    static const Filter& filter_of(const FilterRecord* r) noexcept {
      return r->filter;
    }
  };

  // Field accessors by level.
  static bool constrains(const Filter& f, int level) noexcept;
  static const netbase::IpPrefix& address(const Filter& f, int level) noexcept;
  static std::uint32_t exact_value(const Filter& f, int level) noexcept;
  static const PortSpec& port(const Filter& f, int level) noexcept;

  void rebuild() const;
  // Returns a new reference to the node for (level, cand); cand is sorted
  // by id and hashes to `hash`.
  std::int32_t build(int level, Cands cand, std::uint64_t hash) const;
  // Applies one add or remove of `f` at the position (level, S) whose node
  // is `n` (-1 if S is empty); returns a new reference to the node for
  // (level, S with f added or taken out). The caller keeps its reference
  // to `n` and drops it once the result is linked.
  std::int32_t apply(int level, std::int32_t n, const FilterRecord* f,
                     bool add) const;
  void apply_root(const FilterRecord* f, bool add) const;
  std::int32_t split(int level, std::int32_t n, const FilterRecord* f) const;
  std::int32_t copy(std::int32_t n) const;
  void patch_addr(std::int32_t t, const FilterRecord* f, bool add) const;
  void patch_exact(std::int32_t t, const FilterRecord* f, bool add) const;
  void patch_wild(std::int32_t t, const FilterRecord* f, bool add) const;
  // The node's engine for `ver`, made on first use.
  bmp::LpmEngine& engine(Node& n, netbase::IpVersion ver) const;
  // Address edges: add one (child reference passed in) or drop one.
  void add_edge(std::int32_t t, const EdgeKey& k, std::int32_t child,
                std::uint32_t filters) const;
  void remove_edge(std::int32_t t, std::map<EdgeKey, AddrEdge>::iterator it) const;
  // Child of the longest edge of `t` strictly covering `k`, or -1.
  std::int32_t covering_child(std::int32_t t, const EdgeKey& k) const;
  void link_specific(std::int32_t t, const FilterRecord* f,
                     std::int32_t child) const;

  std::int32_t alloc_node(int level) const;
  std::int32_t acquire(std::int32_t n) const;
  void release(std::int32_t n) const;
  // The live node for (level, base), or for base with f added (delta +1)
  // or taken out (delta -1), whose hash is `hash`; -1 if none.
  std::int32_t memo_find(int level, std::uint64_t hash, const Cands& base,
                         const FilterRecord* f, int delta) const;
  void memo_insert(std::int32_t n) const;
  void memo_erase(std::int32_t n) const;

  std::int32_t walk(const Node& n, const pkt::FlowKey& key) const;
  const FilterRecord* match_from(std::int32_t idx,
                                 const pkt::FlowKey& key) const;

  Options opt_{};
  // The records, contiguous (rebind_instance scans them on every plugin
  // upgrade), and their positions by filter value.
  std::vector<std::unique_ptr<FilterRecord>> records_;
  std::unordered_map<const FilterRecord*, std::size_t, ByFilter, ByFilter>
      index_;
  // Ids increase and are never reused: a new record sorts last in every
  // candidate set, and a memo hit can only name live records.
  std::uint32_t next_id_{1};

  // Records removed since the last patch(): no node names them any more,
  // but a flow-cache binding may until the AIU has dropped it.
  mutable std::vector<std::unique_ptr<FilterRecord>> retired_;

  mutable bool built_{false};
  mutable std::vector<Node> nodes_;
  mutable std::deque<NodeInfo> info_;  // stable references across growth
  mutable std::vector<std::int32_t> free_;
  mutable std::int32_t root_{-1};
  mutable std::size_t rebuilds_{0};
  // Nodes whose engines changed since the last patch().
  mutable std::vector<std::int32_t> pending_;
  mutable PatchStats stats_{};

  // Hash-consing: (level, cands hash) -> live node, verified against the
  // node's cands on a hit. This is what makes the structure a DAG rather
  // than a tree.
  mutable std::unordered_multimap<std::uint64_t, std::int32_t> memo_;
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
  const FilterRecord* find(const Filter& f) const override;

 private:
  std::vector<std::unique_ptr<FilterRecord>> records_;
  std::uint32_t next_id_{1};
};

// Factory: "dag" or "linear".
std::unique_ptr<FilterTableBase> make_filter_table(
    std::string_view kind, const DagFilterTable::Options& dag_opt = {});

}  // namespace rp::aiu
