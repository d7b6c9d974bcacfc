// Binary search on prefix lengths (Waldvogel, Varghese, Turner, Plattner —
// SIGCOMM '97): the paper's fast BMP plugin, a clean-room reimplementation
// from the published algorithm.
//
// One hash table per distinct prefix length; lookup binary-searches over the
// lengths. Markers are inserted on each prefix's binary-search path so the
// search knows when to probe longer lengths, and every marker precomputes
// its best-matching prefix so backtracking is never needed: at most
// ceil(log2(#lengths)) hash probes per lookup — 5 for IPv4, 7 for IPv6,
// exactly the Table 2 accounting (2 * log2(W) / 2 accesses per address).
//
// Mutations update a raw prefix set and mark the search structure dirty; it
// is rebuilt lazily on the next lookup (classifier/routing updates are
// control-path operations in the paper's architecture).
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "bmp/lpm.hpp"

namespace rp::bmp {

class WaldvogelBsl final : public LpmEngine {
 public:
  explicit WaldvogelBsl(unsigned width) : width_(width) {}

  Status insert(U128 key, std::uint8_t plen, LpmValue value) override;
  Status remove(U128 key, std::uint8_t plen) override;
  bool lookup(U128 key, LpmMatch& out) const override;
  bool find(U128 key, std::uint8_t plen, LpmValue& out) const override;

  std::string_view name() const override { return "bsl"; }
  unsigned width() const override { return width_; }
  std::size_t size() const override { return raw_.size(); }

  // Run the deferred rebuild eagerly (control path) instead of on the
  // first post-update lookup (packet path).
  void prepare() override {
    if (dirty_) rebuild();
  }

  // Worst-case hash probes for the current table (diagnostics/benches).
  unsigned max_probes() const;

 private:
  struct KeyHash {
    std::size_t operator()(const U128& k) const noexcept {
      std::uint64_t h = k.hi * 0x9e3779b97f4a7c15ULL;
      h ^= (k.lo + 0xc2b2ae3d27d4eb4fULL) + (h << 6) + (h >> 2);
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };

  struct Entry {
    bool is_prefix{false};
    LpmValue value{0};
    bool has_bmp{false};
    LpmMatch bmp{};
  };

  using LengthTable = std::unordered_map<U128, Entry, KeyHash>;
  using PrefixMap = std::map<std::pair<U128, std::uint8_t>, LpmValue>;

  void rebuild() const;

  unsigned width_;
  PrefixMap raw_;

  mutable bool dirty_{true};
  mutable std::vector<std::uint8_t> lengths_;   // sorted, ascending, no 0
  mutable std::vector<LengthTable> tables_;     // parallel to lengths_
  mutable bool has_default_{false};
  mutable LpmValue default_value_{0};
};

}  // namespace rp::bmp
