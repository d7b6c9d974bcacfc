#include "bmp/cpe.hpp"

#include <algorithm>

#include "netbase/memaccess.hpp"

namespace rp::bmp {

std::size_t CpeTrie::PrefixStore::home(const U128& key,
                                       std::uint8_t len) const noexcept {
  std::uint64_t h = key.hi ^ (key.lo * 0x9e3779b97f4a7c15ULL) ^ len;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 31)) & (table_.size() - 1);
}

std::size_t CpeTrie::PrefixStore::probe(const U128& key,
                                        std::uint8_t len) const noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(key, len);
  while (table_[i].len != 0 && (table_[i].len != len || table_[i].key != key))
    i = (i + 1) & mask;
  return i;
}

const CpeTrie::PrefixStore::Entry* CpeTrie::PrefixStore::find(
    const U128& key, std::uint8_t plen) const noexcept {
  if (table_.empty()) return nullptr;
  const Entry& e = table_[probe(key, static_cast<std::uint8_t>(plen + 1))];
  return e.len != 0 ? &e : nullptr;
}

void CpeTrie::PrefixStore::set(const U128& key, std::uint8_t plen,
                               LpmValue value) {
  const auto len = static_cast<std::uint8_t>(plen + 1);
  if (4 * (size_ + 1) > 3 * table_.size()) {
    std::vector<Entry> old(std::max<std::size_t>(16, 2 * table_.size()));
    old.swap(table_);
    for (const Entry& e : old)
      if (e.len != 0) table_[probe(e.key, e.len)] = e;
  }
  Entry& e = table_[probe(key, len)];
  if (e.len == 0) ++size_;
  e = {key, value, len};
}

bool CpeTrie::PrefixStore::erase(const U128& key, std::uint8_t plen) noexcept {
  if (table_.empty()) return false;
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = probe(key, static_cast<std::uint8_t>(plen + 1));
  if (table_[hole].len == 0) return false;
  // Pull back every later entry of the run that may sit at the hole: one
  // whose home is not cyclically inside (hole, j].
  for (std::size_t j = (hole + 1) & mask; table_[j].len != 0;
       j = (j + 1) & mask) {
    const std::size_t k = home(table_[j].key, table_[j].len);
    if (((j - k) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = {};
  --size_;
  return true;
}

CpeTrie::CpeTrie(unsigned width) : width_(width) {
  alloc_node();  // root, id 0
}

std::uint32_t CpeTrie::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t id = free_.back();
    free_.pop_back();
    std::fill_n(node(id), kFanout, Slot{});
    return id;
  }
  const std::size_t id = occupancy_.size();
  if (id == kMaxNodes) return 0;
  if (chunks_.empty() || chunks_.back().size() == kChunkNodes * kFanout) {
    chunks_.emplace_back();
    if (chunks_.size() > 1) chunks_.back().reserve(kChunkNodes * kFanout);
  }
  // Chunk 0 is never reserved, so it grows by the vector's doubling; ids
  // index chunks, so a reallocation moves no id.
  chunks_.back().resize(chunks_.back().size() + kFanout);
  occupancy_.push_back(0);
  return static_cast<std::uint32_t>(id);
}

void CpeTrie::prune(const std::uint32_t* path, const std::uint8_t* idx,
                    unsigned depth) {
  for (unsigned d = depth; d > 0 && occupancy_[path[d]] == 0; --d) {
    free_.push_back(path[d]);
    Slot& up = node(path[d - 1])[idx[d - 1]];
    up.meta &= kLenMask;  // unlink the child, keep any match
    if (up.meta == 0) --occupancy_[path[d - 1]];
  }
}

Status CpeTrie::insert(U128 key, std::uint8_t plen, LpmValue value) {
  if (plen > width_) return Status::invalid_argument;
  key = key & U128::prefix_mask(plen);
  const Status st = insert_into_trie(key, plen, value);
  if (st == Status::ok) prefixes_.set(key, plen, value);
  return st;
}

Status CpeTrie::insert_into_trie(U128 key, std::uint8_t plen,
                                 LpmValue value) {
  const unsigned target = level_of(plen);
  std::uint32_t path[kMaxLevels];
  std::uint8_t idx[kMaxLevels];
  path[0] = 0;
  for (unsigned lvl = 0; lvl < target; ++lvl) {
    // All bits of this chunk are within plen, so the path is unique.
    idx[lvl] = static_cast<std::uint8_t>(chunk(key, lvl * kStride));
    std::uint32_t child = child_of(node(path[lvl])[idx[lvl]]);
    if (child == 0) {
      child = alloc_node();  // may move chunk 0: fetch the slot afterwards
      if (child == 0) {      // id space exhausted: undo the new path nodes
        prune(path, idx, lvl);
        return Status::resource_limit;
      }
      Slot& s = node(path[lvl])[idx[lvl]];
      if (s.meta == 0) ++occupancy_[path[lvl]];
      s.meta |= child << kLenBits;
    }
    path[lvl + 1] = child;
  }

  // Expand within the final node: the prefix covers all slots whose top
  // (plen - target*stride) bits equal the prefix's final chunk bits.
  const unsigned covered = plen - target * kStride;  // 0..stride
  const std::size_t span = std::size_t{1} << (kStride - covered);
  const std::size_t first = chunk(key, target * kStride) & ~(span - 1);
  const std::uint32_t len = plen + 1u;
  Slot* n = node(path[target]);
  for (std::size_t i = first; i < first + span; ++i) {
    Slot& s = n[i];
    if ((s.meta & kLenMask) > len) continue;  // a longer prefix owns it
    if (s.meta == 0) ++occupancy_[path[target]];
    s.value = value;
    s.meta = (s.meta & ~kLenMask) | len;
  }
  return Status::ok;
}

Status CpeTrie::remove(U128 key, std::uint8_t plen) {
  if (plen > width_) return Status::invalid_argument;
  key = key & U128::prefix_mask(plen);
  if (!prefixes_.erase(key, plen)) return Status::not_found;

  // Incremental maintenance: a prefix of length plen only ever wrote slots
  // inside its own target-level node, so removal is a local edit — walk the
  // unique path, then restore each slot it owned to the best remaining
  // covering prefix from the same node, or clear it so lookup falls back to
  // the match recorded at a shallower level. O(span + stride) per remove.
  const unsigned target = level_of(plen);
  std::uint32_t path[kMaxLevels];
  std::uint8_t idx[kMaxLevels];
  path[0] = 0;
  for (unsigned lvl = 0; lvl < target; ++lvl) {
    idx[lvl] = static_cast<std::uint8_t>(chunk(key, lvl * kStride));
    path[lvl + 1] = child_of(node(path[lvl])[idx[lvl]]);
    if (path[lvl + 1] == 0) {  // trie out of sync with the store: start over
      rebuild();
      return Status::ok;
    }
  }

  // Best remaining ancestor expanded into this node. A same-node prefix
  // shorter than plen that covers one slot of our span covers all of them
  // (its aligned span strictly contains ours), so a single probe per
  // candidate length — at most stride of them — settles the whole span.
  // The root's slots also hold length 0, the default route.
  const unsigned lowest = target == 0 ? 0 : target * kStride + 1;
  std::uint32_t anc_len = 0;  // plen + 1 of the ancestor; 0 if none
  LpmValue anc_value = 0;
  for (unsigned p = plen; p-- > lowest;) {
    const auto* e = prefixes_.find(key & U128::prefix_mask(p),
                                   static_cast<std::uint8_t>(p));
    if (e) {
      anc_len = e->len;
      anc_value = e->value;
      break;
    }
  }

  const unsigned covered = plen - target * kStride;
  const std::size_t span = std::size_t{1} << (kStride - covered);
  const std::size_t first = chunk(key, target * kStride) & ~(span - 1);
  Slot* n = node(path[target]);
  for (std::size_t i = first; i < first + span; ++i) {
    Slot& s = n[i];
    // Within the span, only the removed prefix can own a slot at exactly
    // this plen (a sibling of equal length covers a disjoint span); slots
    // held by longer prefixes are untouched.
    if ((s.meta & kLenMask) != plen + 1u) continue;
    s.value = anc_value;
    s.meta = (s.meta & ~kLenMask) | anc_len;
    if (s.meta == 0) --occupancy_[path[target]];
  }
  prune(path, idx, target);
  return Status::ok;
}

bool CpeTrie::find(U128 key, std::uint8_t plen, LpmValue& out) const {
  if (plen > width_) return false;
  const auto* e = prefixes_.find(key & U128::prefix_mask(plen), plen);
  if (!e) return false;
  out = e->value;
  return true;
}

void CpeTrie::rebuild() {
  ++rebuilds_;
  chunks_.clear();
  occupancy_.clear();
  free_.clear();
  alloc_node();
  // Reinsert shortest-first so the plen-overwrite rule reproduces the
  // longest-match expansion exactly.
  std::vector<PrefixStore::Entry> sorted;
  for (const auto& e : prefixes_.entries())
    if (e.len != 0) sorted.push_back(e);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.len < b.len; });
  for (const auto& e : sorted)
    insert_into_trie(e.key, static_cast<std::uint8_t>(e.len - 1), e.value);
}

bool CpeTrie::lookup(U128 key, LpmMatch& out) const {
  bool found = false;
  std::uint32_t cur = 0;
  for (unsigned off = 0; off < width_; off += kStride) {
    netbase::MemAccess::count();  // node slot fetch
    const Slot s = node(cur)[chunk(key, off)];
    if (s.meta & kLenMask) {
      out = {s.value, static_cast<std::uint8_t>((s.meta & kLenMask) - 1)};
      found = true;
    }
    cur = child_of(s);
    if (cur == 0) break;
  }
  return found;
}

}  // namespace rp::bmp
