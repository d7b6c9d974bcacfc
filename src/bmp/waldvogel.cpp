#include "bmp/waldvogel.hpp"

#include <algorithm>

#include "bmp/patricia.hpp"
#include "netbase/memaccess.hpp"

namespace rp::bmp {

Status WaldvogelBsl::insert(U128 key, std::uint8_t plen, LpmValue value) {
  if (plen > width_) return Status::invalid_argument;
  key = key & U128::prefix_mask(plen);
  raw_[{key, plen}] = value;
  dirty_ = true;
  return Status::ok;
}

Status WaldvogelBsl::remove(U128 key, std::uint8_t plen) {
  key = key & U128::prefix_mask(plen);
  if (raw_.erase({key, plen}) == 0) return Status::not_found;
  dirty_ = true;
  return Status::ok;
}

bool WaldvogelBsl::find(U128 key, std::uint8_t plen, LpmValue& out) const {
  auto it = raw_.find({key & U128::prefix_mask(plen), plen});
  if (it == raw_.end()) return false;
  out = it->second;
  return true;
}

void WaldvogelBsl::rebuild() const {
  lengths_.clear();
  tables_.clear();
  has_default_ = false;

  // Collect distinct lengths (0 handled separately as the default).
  for (const auto& [kp, v] : raw_) {
    if (kp.second == 0) {
      has_default_ = true;
      default_value_ = v;
      continue;
    }
    if (!std::binary_search(lengths_.begin(), lengths_.end(), kp.second)) {
      lengths_.insert(
          std::lower_bound(lengths_.begin(), lengths_.end(), kp.second),
          kp.second);
    }
  }
  tables_.resize(lengths_.size());

  auto level_of = [&](std::uint8_t len) {
    return static_cast<int>(std::lower_bound(lengths_.begin(), lengths_.end(),
                                             len) -
                            lengths_.begin());
  };

  // Insert real prefixes and the markers on their binary-search paths.
  for (const auto& [kp, v] : raw_) {
    const auto& [key, plen] = kp;
    if (plen == 0) continue;
    const int target = level_of(plen);
    int lo = 0, hi = static_cast<int>(lengths_.size()) - 1;
    while (lo <= hi) {
      const int mid = (lo + hi) / 2;
      if (mid == target) {
        Entry& e = tables_[mid][key];
        e.is_prefix = true;
        e.value = v;
        break;
      }
      if (mid < target) {
        // Search must branch toward longer lengths here: leave a marker.
        U128 mkey = key & U128::prefix_mask(lengths_[mid]);
        tables_[mid].try_emplace(mkey);  // keeps existing prefix entry intact
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  }

  // Precompute each entry's best matching prefix, processing levels in
  // ascending length order with an auxiliary trie of all shorter-or-equal
  // real prefixes.
  PatriciaTrie aux(width_);
  if (has_default_) aux.insert({}, 0, default_value_);
  for (std::size_t lvl = 0; lvl < lengths_.size(); ++lvl) {
    const std::uint8_t len = lengths_[lvl];
    for (const auto& [key, e] : tables_[lvl]) {
      if (e.is_prefix) aux.insert(key, len, e.value);
    }
    for (auto& [key, e] : tables_[lvl]) {
      LpmMatch m;
      if (aux.lookup(key, m)) {
        e.has_bmp = true;
        e.bmp = m;
      }
    }
  }
  // The aux trie's bookkeeping accesses are build-time only: they must not
  // pollute the data-path access counts.
  dirty_ = false;
}

bool WaldvogelBsl::lookup(U128 key, LpmMatch& out) const {
  if (dirty_) {
    auto saved = netbase::MemAccess::total();
    rebuild();
    // rebuild() used PatriciaTrie lookups which count accesses; restore.
    netbase::MemAccess::reset();
    netbase::MemAccess::count(saved);
  }

  bool found = false;
  if (has_default_) {
    out = {default_value_, 0};
    found = true;
  }
  int lo = 0, hi = static_cast<int>(lengths_.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    const U128 probe = key & U128::prefix_mask(lengths_[mid]);
    netbase::MemAccess::count();  // one hash-table probe
    auto it = tables_[mid].find(probe);
    if (it != tables_[mid].end()) {
      if (it->second.has_bmp) {
        out = it->second.bmp;
        found = true;
      }
      lo = mid + 1;  // try longer prefixes
    } else {
      hi = mid - 1;  // only shorter can match
    }
  }
  return found;
}

unsigned WaldvogelBsl::max_probes() const {
  if (dirty_) rebuild();
  unsigned n = static_cast<unsigned>(lengths_.size());
  unsigned probes = 0;
  while (n) {
    ++probes;
    n >>= 1;
  }
  return probes;
}

}  // namespace rp::bmp
