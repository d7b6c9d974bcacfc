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
// An insert or remove that keeps the set of present lengths is applied in
// place: it touches the prefix's own entry, the markers on its search path
// (each entry counts the prefixes whose path marks it) and the best matches
// of the entries beneath it. One that adds or empties a length marks the
// tables dirty; they are rebuilt from the prefix set by prepare() or the
// next lookup (route and filter updates are control-path operations in the
// paper's architecture). Either way the tables, markers and best matches
// are exactly those a fresh build of the same prefixes produces.
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

  // Number of from-scratch builds so far: the first one, then one per
  // update that added or emptied a prefix length. Tests assert on it.
  std::size_t rebuild_count() const noexcept { return rebuilds_; }

 private:
  struct KeyHash {
    std::size_t operator()(const U128& k) const noexcept {
      std::uint64_t h = k.hi * 0x9e3779b97f4a7c15ULL;
      h ^= (k.lo + 0xc2b2ae3d27d4eb4fULL) + (h << 6) + (h >> 2);
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };

  // A prefix, a marker, or both. A prefix's best match is itself.
  struct Entry {
    LpmMatch bmp{};
    std::uint32_t markers{0};  // prefixes whose search path marks this key
    bool is_prefix{false};
    bool has_bmp{false};
  };

  using LengthTable = std::unordered_map<U128, Entry, KeyHash>;
  using PrefixMap = std::map<std::pair<U128, std::uint8_t>, LpmValue>;

  struct Level {
    std::uint8_t len{0};
    std::uint32_t prefixes{0};  // real prefixes of this length
    LengthTable table;
  };

  void rebuild() const;
  // Index of the level holding length `plen`, or levels_.size() if none.
  std::size_t level_of(std::uint8_t plen) const;
  // The lookup's binary search over the levels: probe(level) returns the
  // entry that the search finds at that level, or null for a miss. `out` is
  // written only on a match.
  template <class Probe>
  bool descend(LpmMatch& out, Probe&& probe) const;
  // The entry for `key` at `level` (host bits ignored), or null.
  const Entry* entry(std::size_t level, const U128& key) const;
  // The best match for `key` among lengths shorter than levels_[below].len:
  // the lookup's search with every level at or above `below` treated as a
  // miss. Control path: counts no MemAccess.
  bool best_below(const U128& key, std::size_t below, LpmMatch& out) const;
  // Adds (key, levels_[target].len) with its path markers; each new
  // marker's best match is searched from the shorter levels.
  void place(const U128& key, std::size_t target, LpmValue value) const;
  // Undoes place(): the prefix's entry stays as a marker with best match
  // `fallback` while other paths still mark it.
  void unplace(const U128& key, std::size_t target, bool has_fallback,
               LpmMatch fallback);
  // Calls f(entry) for every entry longer than `plen` under (key, plen):
  // the entries and path markers of the prefixes in raw_'s key range.
  template <class F>
  void for_each_under(const U128& key, std::uint8_t plen, F&& f);

  unsigned width_;
  bool has_default_{false};
  mutable bool dirty_{true};
  LpmValue default_value_{0};
  PrefixMap raw_;
  mutable std::vector<Level> levels_;  // ascending length, no 0
  mutable std::size_t rebuilds_{0};
};

}  // namespace rp::bmp
