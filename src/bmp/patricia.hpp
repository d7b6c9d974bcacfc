// Path-compressed binary radix trie ("PATRICIA"), the paper's slower but
// freely available BMP plugin (Section 5.1.1), in the style of the BSD
// radix routing table.
//
// Nodes carry a compressed bit segment; prefixes terminate exactly at node
// boundaries (insertion splits segments as needed). Lookup walks at most
// O(prefix length) nodes, one counted memory access per node. remove()
// keeps the trie as insertion alone would have built it for the live set:
// it unlinks valueless leaves and merges a valueless single-child node into
// its child, recycling node ids through a free list.
#pragma once

#include <vector>

#include "bmp/lpm.hpp"

namespace rp::bmp {

class PatriciaTrie final : public LpmEngine {
 public:
  explicit PatriciaTrie(unsigned width) : width_(width) {}

  Status insert(U128 key, std::uint8_t plen, LpmValue value) override;
  Status remove(U128 key, std::uint8_t plen) override;
  bool lookup(U128 key, LpmMatch& out) const override;
  bool find(U128 key, std::uint8_t plen, LpmValue& out) const override;

  std::string_view name() const override { return "patricia"; }
  unsigned width() const override { return width_; }
  std::size_t size() const override { return count_; }

  // Max node visits over all present prefixes (diagnostic for benches).
  std::size_t depth() const;
  // Live nodes, the root included once it exists.
  std::size_t node_count() const noexcept {
    return nodes_.size() - free_.size();
  }

 private:
  struct Node {
    U128 seg{};            // left-aligned segment bits below the parent
    std::uint8_t seg_len{0};
    std::int32_t child[2]{-1, -1};
    bool has_value{false};
    LpmValue value{0};
  };

  static constexpr std::int32_t kNil = -1;

  std::int32_t alloc_node() {
    if (!free_.empty()) {
      const std::int32_t id = free_.back();
      free_.pop_back();
      nodes_[id] = {};
      return id;
    }
    nodes_.push_back({});
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  // One step of a descent: `node` reached its child through `bit`.
  struct Hop {
    std::int32_t node{kNil};
    unsigned bit{0};
  };
  // The node ending exactly at (key, plen), or kNil. up[0] is the hop from
  // its parent, up[1] the hop from its grandparent (node kNil if none).
  std::int32_t descend(const U128& key, unsigned plen, Hop (&up)[2]) const;
  // Splices out `n`, a valueless non-root node with one child, by
  // prepending its segment to that child's.
  void merge_into_child(Hop from_parent, std::int32_t n);

  unsigned width_;
  std::vector<Node> nodes_;  // nodes_[0] is the root (created lazily)
  std::vector<std::int32_t> free_;
  std::size_t count_{0};
};

}  // namespace rp::bmp
