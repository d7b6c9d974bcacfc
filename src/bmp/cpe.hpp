// Controlled prefix expansion (Srinivasan & Varghese, SIGMETRICS '98): a
// fixed-stride multibit trie; prefixes are expanded to the next stride
// boundary. The paper cites CPE as the state-of-the-art BMP to pair with
// the DAG classifier ("our solution when used with a state-of-the-art best
// matching prefix algorithm (e.g., controlled prefix expansion) is more or
// less independent of the number of filters").
//
// Layout: a node is 2^8 eight-byte slots in a chunked arena. A slot packs
// the expanded match's value with the child node id and the match length,
// so a lookup makes one dependent slot load per level: at most width/8
// counted memory accesses (4 for IPv4, 16 for IPv6). Node ids never move;
// chunk 0 grows geometrically, so a small trie costs one 2 KiB node, and
// later chunks hold kChunkNodes nodes each. remove() frees nodes left with
// no match and no child through a free list. The exact prefix set lives in
// one open-addressing hash map, which also answers find().
#pragma once

#include <vector>

#include "bmp/lpm.hpp"

namespace rp::bmp {

class CpeTrie final : public LpmEngine {
 public:
  static constexpr unsigned kStride = 8;
  // Nodes per arena chunk after chunk 0 (2 MiB of slots).
  static constexpr std::size_t kChunkNodes = 1024;

  explicit CpeTrie(unsigned width);

  Status insert(U128 key, std::uint8_t plen, LpmValue value) override;
  Status remove(U128 key, std::uint8_t plen) override;
  bool lookup(U128 key, LpmMatch& out) const override;
  bool find(U128 key, std::uint8_t plen, LpmValue& out) const override;

  std::string_view name() const override { return "cpe"; }
  unsigned width() const override { return width_; }
  std::size_t size() const override { return prefixes_.size(); }

  // Live nodes: ids handed out minus those waiting on the free list.
  std::size_t node_count() const noexcept {
    return occupancy_.size() - free_.size();
  }

  // Number of full from-scratch rebuilds this trie has performed. remove()
  // is incremental (a prefix only ever wrote slots of its own target-level
  // node, so undoing it is local), so this stays 0 under normal churn; it
  // only moves on the defensive fallback path. Tests assert on it.
  std::size_t rebuild_count() const noexcept { return rebuilds_; }

 private:
  static constexpr std::size_t kFanout = std::size_t{1} << kStride;
  static constexpr unsigned kMaxLevels = 128 / kStride;
  // Slot::meta is (child id << kLenBits) | (match plen + 1); a zero length
  // field means no match, a zero child id means no child (the root, id 0,
  // is nobody's child). 24 id bits bound the trie at 2^24 nodes (32 GiB).
  static constexpr unsigned kLenBits = 8;
  static constexpr std::uint32_t kLenMask = (1u << kLenBits) - 1;
  static constexpr std::size_t kMaxNodes = std::size_t{1} << (32 - kLenBits);

  struct Slot {
    LpmValue value;
    std::uint32_t meta;
  };
  static_assert(sizeof(Slot) == 8);

  // (masked key, plen) -> value: linear probing in one flat array (24-byte
  // entries, load at most 3/4), backward-shift deletion, no tombstones.
  class PrefixStore {
   public:
    struct Entry {
      U128 key{};
      LpmValue value{0};
      std::uint8_t len{0};  // plen + 1; 0 marks an empty entry
    };

    const Entry* find(const U128& key, std::uint8_t plen) const noexcept;
    void set(const U128& key, std::uint8_t plen, LpmValue value);
    bool erase(const U128& key, std::uint8_t plen) noexcept;
    std::size_t size() const noexcept { return size_; }
    const std::vector<Entry>& entries() const noexcept { return table_; }

   private:
    std::size_t home(const U128& key, std::uint8_t len) const noexcept;
    // Index of (key, len), or of the empty entry that ends its probe run.
    std::size_t probe(const U128& key, std::uint8_t len) const noexcept;

    std::vector<Entry> table_;  // power-of-two size, or empty
    std::size_t size_{0};
  };

  static std::uint32_t child_of(const Slot& s) noexcept {
    return s.meta >> kLenBits;
  }
  static unsigned level_of(std::uint8_t plen) noexcept {
    // Level 0 covers lengths [0, stride], so plen == 0 expands across the
    // whole root node.
    return plen == 0 ? 0 : (plen - 1u) / kStride;
  }
  // The stride-sized chunk of `key` starting at bit offset `off`.
  static std::size_t chunk(const U128& key, unsigned off) noexcept {
    return static_cast<std::size_t>(((key << off) >> (128 - kStride)).lo);
  }

  Slot* node(std::uint32_t id) noexcept {
    return chunks_[id / kChunkNodes].data() + (id % kChunkNodes) * kFanout;
  }
  const Slot* node(std::uint32_t id) const noexcept {
    return chunks_[id / kChunkNodes].data() + (id % kChunkNodes) * kFanout;
  }

  // A zeroed node's id, or 0 once kMaxNodes ids are live.
  std::uint32_t alloc_node();
  // Frees path[depth], then its ancestors, while they hold no match and no
  // child; idx[d] is the slot of path[d] that leads to path[d + 1].
  void prune(const std::uint32_t* path, const std::uint8_t* idx,
             unsigned depth);
  Status insert_into_trie(U128 key, std::uint8_t plen, LpmValue value);
  void rebuild();

  unsigned width_;
  PrefixStore prefixes_;
  std::vector<std::vector<Slot>> chunks_;
  std::vector<std::uint16_t> occupancy_;  // per id: slots with match or child
  std::vector<std::uint32_t> free_;
  std::size_t rebuilds_{0};
};

}  // namespace rp::bmp
