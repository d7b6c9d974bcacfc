#include "bmp/patricia.hpp"

#include <bit>

#include "netbase/memaccess.hpp"

namespace rp::bmp {

namespace {

unsigned leading_zeros(const U128& v) noexcept {
  if (v.hi) return static_cast<unsigned>(std::countl_zero(v.hi));
  if (v.lo) return 64 + static_cast<unsigned>(std::countl_zero(v.lo));
  return 128;
}

// Number of identical leading bits of two left-aligned bit strings, capped.
unsigned common_prefix_len(const U128& a, const U128& b, unsigned cap) noexcept {
  unsigned n = leading_zeros(a ^ b);
  return n < cap ? n : cap;
}

// The `len` bits of `v` starting at bit offset `off`, left-aligned.
U128 slice(const U128& v, unsigned off, unsigned len) noexcept {
  return (v << off) & U128::prefix_mask(len);
}

}  // namespace

Status PatriciaTrie::insert(U128 key, std::uint8_t plen, LpmValue value) {
  if (plen > width_) return Status::invalid_argument;
  key = key & U128::prefix_mask(plen);
  if (nodes_.empty()) alloc_node();  // root, empty segment

  std::int32_t cur = 0;
  unsigned depth = 0;
  while (true) {
    if (depth == plen) {
      if (!nodes_[cur].has_value) ++count_;
      nodes_[cur].has_value = true;
      nodes_[cur].value = value;
      return Status::ok;
    }
    const unsigned bit = key.bit(depth) ? 1 : 0;
    std::int32_t child = nodes_[cur].child[bit];
    if (child == kNil) {
      std::int32_t leaf = alloc_node();
      nodes_[leaf].seg = slice(key, depth, plen - depth);
      nodes_[leaf].seg_len = static_cast<std::uint8_t>(plen - depth);
      nodes_[leaf].has_value = true;
      nodes_[leaf].value = value;
      nodes_[cur].child[bit] = leaf;
      ++count_;
      return Status::ok;
    }

    Node& c = nodes_[child];
    const unsigned want = plen - depth;
    const unsigned common =
        common_prefix_len(slice(key, depth, want), c.seg,
                          want < c.seg_len ? want : c.seg_len);
    if (common == c.seg_len) {
      depth += c.seg_len;
      cur = child;
      continue;
    }

    // Split the child's segment at `common`.
    std::int32_t mid = alloc_node();
    // (alloc may have reallocated nodes_; re-fetch references by index)
    nodes_[mid].seg = slice(nodes_[child].seg, 0, common);
    nodes_[mid].seg_len = static_cast<std::uint8_t>(common);
    const unsigned old_bit = nodes_[child].seg.bit(common) ? 1 : 0;
    nodes_[mid].child[old_bit] = child;
    nodes_[child].seg = slice(nodes_[child].seg, common,
                              nodes_[child].seg_len - common);
    nodes_[child].seg_len =
        static_cast<std::uint8_t>(nodes_[child].seg_len - common);
    nodes_[cur].child[bit] = mid;

    if (depth + common == plen) {
      nodes_[mid].has_value = true;
      nodes_[mid].value = value;
    } else {
      std::int32_t leaf = alloc_node();
      const unsigned off = depth + common;
      nodes_[leaf].seg = slice(key, off, plen - off);
      nodes_[leaf].seg_len = static_cast<std::uint8_t>(plen - off);
      nodes_[leaf].has_value = true;
      nodes_[leaf].value = value;
      nodes_[mid].child[key.bit(off) ? 1 : 0] = leaf;
    }
    ++count_;
    return Status::ok;
  }
}

std::int32_t PatriciaTrie::descend(const U128& key, unsigned plen,
                                   Hop (&up)[2]) const {
  if (plen > width_ || nodes_.empty()) return kNil;
  std::int32_t cur = 0;
  unsigned depth = 0;
  while (depth != plen) {
    const unsigned bit = key.bit(depth) ? 1 : 0;
    const std::int32_t child = nodes_[cur].child[bit];
    if (child == kNil) return kNil;
    const Node& c = nodes_[child];
    if (depth + c.seg_len > plen) return kNil;
    if (slice(key, depth, c.seg_len) != c.seg) return kNil;
    depth += c.seg_len;
    up[1] = up[0];
    up[0] = {cur, bit};
    cur = child;
  }
  return cur;
}

void PatriciaTrie::merge_into_child(Hop from_parent, std::int32_t n) {
  const Node& m = nodes_[n];
  const std::int32_t c = m.child[0] != kNil ? m.child[0] : m.child[1];
  nodes_[c].seg = m.seg | (nodes_[c].seg >> m.seg_len);
  nodes_[c].seg_len = static_cast<std::uint8_t>(m.seg_len + nodes_[c].seg_len);
  nodes_[from_parent.node].child[from_parent.bit] = c;
  free_.push_back(n);
}

Status PatriciaTrie::remove(U128 key, std::uint8_t plen) {
  key = key & U128::prefix_mask(plen);
  Hop up[2];
  const std::int32_t cur = descend(key, plen, up);
  if (cur == kNil || !nodes_[cur].has_value) return Status::not_found;
  nodes_[cur].has_value = false;
  --count_;
  if (cur == 0) return Status::ok;  // the root stays

  // Every non-root node holds a value or two children; restore that.
  const Node& n = nodes_[cur];
  const int kids = (n.child[0] != kNil) + (n.child[1] != kNil);
  if (kids == 1) merge_into_child(up[0], cur);
  if (kids != 0) return Status::ok;
  nodes_[up[0].node].child[up[0].bit] = kNil;  // a leaf: unlink it
  free_.push_back(cur);
  // A valueless non-root parent had two children and is left with one.
  if (up[0].node != 0 && !nodes_[up[0].node].has_value)
    merge_into_child(up[1], up[0].node);
  return Status::ok;
}

bool PatriciaTrie::find(U128 key, std::uint8_t plen, LpmValue& out) const {
  Hop up[2];
  const std::int32_t n = descend(key & U128::prefix_mask(plen), plen, up);
  if (n == kNil || !nodes_[n].has_value) return false;
  out = nodes_[n].value;
  return true;
}

bool PatriciaTrie::lookup(U128 key, LpmMatch& out) const {
  if (nodes_.empty()) return false;
  netbase::MemAccess::count();  // root access
  bool found = false;
  if (nodes_[0].has_value) {
    out = {nodes_[0].value, 0};
    found = true;
  }
  std::int32_t cur = 0;
  unsigned depth = 0;
  while (depth < width_) {
    std::int32_t child = nodes_[cur].child[key.bit(depth) ? 1 : 0];
    if (child == kNil) break;
    netbase::MemAccess::count();  // node fetch
    const Node& c = nodes_[child];
    if (depth + c.seg_len > width_) break;
    if (slice(key, depth, c.seg_len) != c.seg) break;
    depth += c.seg_len;
    cur = child;
    if (c.has_value) {
      out = {c.value, static_cast<std::uint8_t>(depth)};
      found = true;
    }
  }
  return found;
}

std::size_t PatriciaTrie::depth() const {
  // BFS computing max node depth.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    auto [n, d] = stack.back();
    stack.pop_back();
    if (d > max_depth) max_depth = d;
    for (int b = 0; b < 2; ++b)
      if (nodes_[n].child[b] != kNil) stack.push_back({nodes_[n].child[b], d + 1});
  }
  return max_depth;
}

}  // namespace rp::bmp
