#include "bmp/waldvogel.hpp"

#include <algorithm>
#include <array>

#include "netbase/memaccess.hpp"

namespace rp::bmp {

namespace {

// Calls f(level) for every level the binary search over `n` levels probes
// on its way to `target` when each probe below target hits: the levels
// where a prefix of target's length leaves its markers, then target itself.
template <class F>
void for_path(std::size_t n, std::size_t target, F&& f) {
  const int t = static_cast<int>(target);
  int lo = 0, hi = static_cast<int>(n) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (mid > t) {
      hi = mid - 1;
      continue;
    }
    f(static_cast<std::size_t>(mid));
    if (mid == t) return;
    lo = mid + 1;
  }
}

}  // namespace

Status WaldvogelBsl::insert(U128 key, std::uint8_t plen, LpmValue value) {
  if (plen > width_) return Status::invalid_argument;
  key = key & U128::prefix_mask(plen);
  const auto [it, fresh] = raw_.try_emplace({key, plen}, value);
  it->second = value;
  if (plen == 0) {
    has_default_ = true;
    default_value_ = value;
  }
  if (dirty_) return Status::ok;
  if (plen != 0) {
    const std::size_t t = level_of(plen);
    if (t == levels_.size()) {  // a new length: rebuild
      dirty_ = true;
      return Status::ok;
    }
    if (fresh)
      place(key, t, value);
    else
      levels_[t].table.find(key)->second.bmp.value = value;
  }
  // Entries beneath that matched something shorter (an add) or this prefix
  // (a re-add with a new value) now match it.
  const LpmMatch m{value, plen};
  for_each_under(key, plen, [&](Entry& e) {
    if (!e.has_bmp || e.bmp.plen <= plen) {
      e.has_bmp = true;
      e.bmp = m;
    }
  });
  return Status::ok;
}

Status WaldvogelBsl::remove(U128 key, std::uint8_t plen) {
  key = key & U128::prefix_mask(plen);
  if (raw_.erase({key, plen}) == 0) return Status::not_found;
  if (plen == 0) has_default_ = false;
  if (dirty_) return Status::ok;
  LpmMatch fallback{};
  bool has_fallback = false;
  if (plen != 0) {
    const std::size_t t = level_of(plen);
    if (levels_[t].prefixes == 1) {  // the length empties: rebuild
      dirty_ = true;
      return Status::ok;
    }
    has_fallback = best_below(key, t, fallback);
    unplace(key, t, has_fallback, fallback);
  }
  // Entries beneath that matched this prefix fall back to its own best
  // strictly-shorter match.
  for_each_under(key, plen, [&](Entry& e) {
    if (e.has_bmp && e.bmp.plen == plen) {
      e.has_bmp = has_fallback;
      e.bmp = fallback;
    }
  });
  return Status::ok;
}

bool WaldvogelBsl::find(U128 key, std::uint8_t plen, LpmValue& out) const {
  auto it = raw_.find({key & U128::prefix_mask(plen), plen});
  if (it == raw_.end()) return false;
  out = it->second;
  return true;
}

std::size_t WaldvogelBsl::level_of(std::uint8_t plen) const {
  const auto it = std::lower_bound(
      levels_.begin(), levels_.end(), plen,
      [](const Level& l, std::uint8_t len) { return l.len < len; });
  if (it == levels_.end() || it->len != plen) return levels_.size();
  return static_cast<std::size_t>(it - levels_.begin());
}

void WaldvogelBsl::place(const U128& key, std::size_t target,
                         LpmValue value) const {
  for_path(levels_.size(), target, [&](std::size_t mid) {
    Level& l = levels_[mid];
    if (mid == target) {
      Entry& e = l.table[key];
      e.is_prefix = true;
      e.has_bmp = true;
      e.bmp = {value, l.len};
      ++l.prefixes;
      return;
    }
    // The search must branch toward longer lengths here: a marker. Its best
    // match is the one among the shorter levels, which hold every prefix
    // it can match.
    const U128 mkey = key & U128::prefix_mask(l.len);
    const auto [it, fresh] = l.table.try_emplace(mkey);
    if (fresh) it->second.has_bmp = best_below(mkey, mid, it->second.bmp);
    ++it->second.markers;
  });
}

void WaldvogelBsl::unplace(const U128& key, std::size_t target,
                           bool has_fallback, LpmMatch fallback) {
  for_path(levels_.size(), target, [&](std::size_t mid) {
    Level& l = levels_[mid];
    const auto it = l.table.find(key & U128::prefix_mask(l.len));
    Entry& e = it->second;
    if (mid == target) {
      e.is_prefix = false;
      e.has_bmp = has_fallback;
      e.bmp = fallback;
      --l.prefixes;
    } else {
      --e.markers;
    }
    if (e.markers == 0 && !e.is_prefix) l.table.erase(it);
  });
}

template <class F>
void WaldvogelBsl::for_each_under(const U128& key, std::uint8_t plen, F&& f) {
  const U128 last = key | ~U128::prefix_mask(plen);
  for (auto it = raw_.lower_bound({key, 0});
       it != raw_.end() && it->first.first <= last; ++it) {
    const auto& [qkey, qlen] = it->first;
    if (qlen <= plen) continue;  // covers (key, plen) or is it
    for_path(levels_.size(), level_of(qlen), [&](std::size_t mid) {
      Level& l = levels_[mid];
      if (l.len > plen)
        f(l.table.find(qkey & U128::prefix_mask(l.len))->second);
    });
  }
}

void WaldvogelBsl::rebuild() const {
  // Bucket the prefixes by length; place them shortest first, so every
  // marker's best match is already in place when the marker is created.
  std::array<std::size_t, 130> start{};
  for (const auto& [kp, v] : raw_) ++start[kp.second + 1u];
  levels_.clear();
  for (unsigned len = 1; len <= 128; ++len) {
    if (start[len + 1] != 0)
      levels_.push_back({static_cast<std::uint8_t>(len), 0, {}});
    start[len + 1] += start[len];
  }
  std::vector<const PrefixMap::value_type*> by_len(raw_.size());
  std::array<std::size_t, 130> next = start;
  for (const auto& kv : raw_) by_len[next[kv.first.second]++] = &kv;

  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    const std::uint8_t len = levels_[lvl].len;
    for (std::size_t i = start[len]; i < start[len + 1u]; ++i)
      place(by_len[i]->first.first, lvl, by_len[i]->second);
  }
  ++rebuilds_;
  dirty_ = false;
}

template <class Probe>
bool WaldvogelBsl::descend(LpmMatch& out, Probe&& probe) const {
  bool found = has_default_;
  if (found) out = {default_value_, 0};
  int lo = 0, hi = static_cast<int>(levels_.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    const Entry* e = probe(static_cast<std::size_t>(mid));
    if (e == nullptr) {
      hi = mid - 1;  // only shorter can match
      continue;
    }
    if (e->has_bmp) {
      out = e->bmp;
      found = true;
    }
    lo = mid + 1;  // try longer prefixes
  }
  return found;
}

const WaldvogelBsl::Entry* WaldvogelBsl::entry(std::size_t level,
                                               const U128& key) const {
  const Level& l = levels_[level];
  const auto it = l.table.find(key & U128::prefix_mask(l.len));
  return it == l.table.end() ? nullptr : &it->second;
}

bool WaldvogelBsl::best_below(const U128& key, std::size_t below,
                              LpmMatch& out) const {
  return descend(out, [&](std::size_t level) {
    return level < below ? entry(level, key) : nullptr;
  });
}

bool WaldvogelBsl::lookup(U128 key, LpmMatch& out) const {
  if (dirty_) rebuild();
  unsigned probes = 0;
  const bool found = descend(out, [&](std::size_t level) {
    ++probes;
    return entry(level, key);
  });
  netbase::MemAccess::count(probes);  // one per hash-table probe
  return found;
}

unsigned WaldvogelBsl::max_probes() const {
  if (dirty_) rebuild();
  unsigned n = static_cast<unsigned>(levels_.size());
  unsigned probes = 0;
  while (n) {
    ++probes;
    n >>= 1;
  }
  return probes;
}

}  // namespace rp::bmp
