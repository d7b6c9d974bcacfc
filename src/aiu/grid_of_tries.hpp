// Grid-of-tries classifier (Srinivasan, Varghese, Suri & Waldvogel — "Fast
// and Scalable Level Four Switching", the paper's reference [26]).
//
// §5.1.2/§8 of Router Plugins: "More advanced techniques such as
// grid-of-tries can provide better memory utilization without sacrificing
// performance, but work only in the special case of two-dimensional
// filters" and "we plan to ... incorporate enhanced implementations and
// algorithms (such as those in [26]) into our framework." This is that
// incorporation: a drop-in FilterTableBase for 2D (source, destination)
// filters. `insert` rejects filters that constrain protocol, ports, or the
// interface.
//
// Structure (dimensions swapped relative to the original so the result
// follows this library's src-major specificity order):
//  * a binary trie over source prefixes;
//  * per source prefix, a destination trie of that prefix's filters;
//  * switch pointers let the destination walk jump from T(S) to the
//    destination trie of a shorter source prefix without restarting, so a
//    lookup costs O(W_src + W_dst) node visits with *linear* memory —
//    the set-pruning DAG trades memory for the same bound;
//  * every node precomputes `stored`, the best filter with src in S's
//    ancestor chain and dst a prefix of the node path; the lookup keeps a
//    running maximum of `stored` over visited nodes.
#pragma once

#include <memory>
#include <vector>

#include "aiu/filter_table.hpp"

namespace rp::aiu {

class GridOfTries final : public FilterTableBase {
 public:
  GridOfTries();
  ~GridOfTries() override;

  // Only 2D filters (proto/ports/iface wild) are accepted; others yield
  // nullptr.
  FilterRecord* insert(const Filter& f, plugin::PluginInstance* inst) override;
  Status remove(const Filter& f) override;
  const FilterRecord* lookup(const pkt::FlowKey& key) const override;
  std::size_t size() const override { return records_.size(); }
  std::size_t purge_instance(const plugin::PluginInstance* inst) override;
  // Pure pointer rewrite: lookup structures key on filters, not instances,
  // so no rebuild is needed.
  std::size_t rebind_instance(plugin::PluginInstance* from,
                              plugin::PluginInstance* to) override {
    std::size_t n = 0;
    for (auto& r : records_)
      if (r->instance == from) {
        r->instance = to;
        ++n;
      }
    return n;
  }
  const FilterRecord* find(const Filter& f) const override;
  void prepare() const override {
    if (dirty_) rebuild();
  }

  std::size_t node_count() const {
    prepare();
    return src_nodes_.size() + total_dst_nodes_;
  }

 private:
  static constexpr std::int32_t kNil = -1;

  struct DstNode {
    std::int32_t child[2]{kNil, kNil};
    std::int32_t jump[2]{kNil, kNil};  // switch pointers (global dst index)
    const FilterRecord* exact{nullptr};  // filter ending exactly here
    const FilterRecord* stored{nullptr};
    std::uint8_t depth{0};
  };

  struct SrcNode {
    std::int32_t child[2]{kNil, kNil};
    std::int32_t trie_root{kNil};  // root DstNode of T(S); kNil if no filters
    std::int32_t parent{kNil};
    std::uint8_t depth{0};
    bool is_prefix{false};  // some filter has exactly this src
  };

  // Build-time sidecar for each DstNode (kept off the lookup path).
  struct PathInfo {
    netbase::U128 path{};
    unsigned len{0};
    std::int32_t trie_of_src{kNil};
  };

  void rebuild() const;
  std::int32_t src_insert(netbase::U128 key, unsigned len) const;
  std::int32_t dst_insert(std::int32_t trie_root, netbase::U128 key,
                          unsigned len) const;
  // Deepest DstNode on `path` (length `len`) within the trie rooted at
  // `root`; returns kNil if the root is kNil.
  std::int32_t deepest_on_path(std::int32_t root, netbase::U128 path,
                               unsigned len, bool* exact_len) const;
  static const FilterRecord* better(const FilterRecord* a,
                                    const FilterRecord* b);

  std::vector<std::unique_ptr<FilterRecord>> records_;
  std::uint32_t next_id_{1};

  mutable bool dirty_{false};
  mutable std::vector<SrcNode> src_nodes_;  // [0]=v4 root, [1]=v6 root
  mutable std::vector<DstNode> dst_nodes_;  // all dst tries share this pool
  mutable std::vector<PathInfo> paths_;     // parallel to dst_nodes_
  mutable std::size_t src_root_current_{0};
  mutable std::size_t total_dst_nodes_{0};
};

}  // namespace rp::aiu
