#include "aiu/grid_of_tries.hpp"

#include <algorithm>

#include "netbase/memaccess.hpp"

namespace rp::aiu {

using netbase::IpVersion;
using netbase::MemAccess;
using netbase::U128;

GridOfTries::GridOfTries() = default;
GridOfTries::~GridOfTries() = default;

const FilterRecord* GridOfTries::better(const FilterRecord* a,
                                        const FilterRecord* b) {
  if (!a) return b;
  if (!b) return a;
  int c = compare_specificity(a->filter, b->filter);
  if (c > 0) return a;
  if (c < 0) return b;
  return a->id <= b->id ? a : b;
}

FilterRecord* GridOfTries::insert(const Filter& f,
                                  plugin::PluginInstance* inst) {
  // Two-dimensional filters only.
  if (!f.proto.wild || !f.sport.is_wild() || !f.dport.is_wild() ||
      !f.in_iface.wild)
    return nullptr;
  for (auto& r : records_) {
    if (r->filter == f) {
      r->instance = inst;
      return r.get();
    }
  }
  auto rec = std::make_unique<FilterRecord>();
  rec->filter = f;
  rec->instance = inst;
  rec->id = next_id_++;
  FilterRecord* out = rec.get();
  records_.push_back(std::move(rec));
  dirty_ = true;
  return out;
}

Status GridOfTries::remove(const Filter& f) {
  auto before = records_.size();
  std::erase_if(records_, [&](auto& r) { return r->filter == f; });
  if (records_.size() == before) return Status::not_found;
  dirty_ = true;
  return Status::ok;
}

std::size_t GridOfTries::purge_instance(const plugin::PluginInstance* inst) {
  auto before = records_.size();
  std::erase_if(records_, [&](auto& r) { return r->instance == inst; });
  if (records_.size() != before) dirty_ = true;
  return before - records_.size();
}

const FilterRecord* GridOfTries::find(const Filter& f) const {
  for (const auto& r : records_)
    if (r->filter == f) return r.get();
  return nullptr;
}

std::int32_t GridOfTries::src_insert(U128 key, unsigned len) const {
  // One bit per level from the (family) root created by rebuild().
  std::int32_t cur = static_cast<std::int32_t>(src_root_current_);
  for (unsigned d = 0; d < len; ++d) {
    int b = key.bit(d) ? 1 : 0;
    if (src_nodes_[cur].child[b] == kNil) {
      src_nodes_.push_back({});
      src_nodes_.back().parent = cur;
      src_nodes_.back().depth = static_cast<std::uint8_t>(d + 1);
      src_nodes_[cur].child[b] = static_cast<std::int32_t>(src_nodes_.size() - 1);
    }
    cur = src_nodes_[cur].child[b];
  }
  return cur;
}

std::int32_t GridOfTries::dst_insert(std::int32_t trie_root, U128 key,
                                     unsigned len) const {
  std::int32_t cur = trie_root;
  for (unsigned d = 0; d < len; ++d) {
    int b = key.bit(d) ? 1 : 0;
    if (dst_nodes_[cur].child[b] == kNil) {
      dst_nodes_.push_back({});
      dst_nodes_.back().depth = static_cast<std::uint8_t>(d + 1);
      PathInfo pi;
      pi.path = (paths_[cur].path) |
                (b ? (U128{0x8000000000000000ULL, 0} >> d) : U128{});
      pi.len = d + 1;
      pi.trie_of_src = paths_[cur].trie_of_src;
      paths_.push_back(pi);
      dst_nodes_[cur].child[b] = static_cast<std::int32_t>(dst_nodes_.size() - 1);
    }
    cur = dst_nodes_[cur].child[b];
  }
  return cur;
}

std::int32_t GridOfTries::deepest_on_path(std::int32_t root, U128 path,
                                          unsigned len, bool* exact_len) const {
  if (root == kNil) {
    if (exact_len) *exact_len = false;
    return kNil;
  }
  std::int32_t cur = root;
  unsigned d = 0;
  while (d < len) {
    std::int32_t next = dst_nodes_[cur].child[path.bit(d) ? 1 : 0];
    if (next == kNil) break;
    cur = next;
    ++d;
  }
  if (exact_len) *exact_len = (d == len);
  return cur;
}

void GridOfTries::rebuild() const {
  src_nodes_.clear();
  dst_nodes_.clear();
  paths_.clear();
  dirty_ = false;

  // Family roots: index 0 = IPv4 source root, 1 = IPv6 source root.
  src_nodes_.push_back({});
  src_nodes_.push_back({});

  auto ensure_trie = [&](std::int32_t snode) {
    if (src_nodes_[snode].trie_root == kNil) {
      dst_nodes_.push_back({});
      paths_.push_back({});
      paths_.back().trie_of_src = snode;
      src_nodes_[snode].trie_root =
          static_cast<std::int32_t>(dst_nodes_.size() - 1);
    }
    return src_nodes_[snode].trie_root;
  };

  auto insert_into_family = [&](std::size_t root, const FilterRecord* r) {
    src_root_current_ = root;
    std::int32_t snode = src_insert(r->filter.src.addr.key(), r->filter.src.len);
    src_nodes_[snode].is_prefix = true;
    std::int32_t troot = ensure_trie(snode);
    std::int32_t dnode =
        dst_insert(troot, r->filter.dst.addr.key(), r->filter.dst.len);
    dst_nodes_[dnode].exact = better(dst_nodes_[dnode].exact, r);
  };

  for (const auto& r : records_) {
    const auto& f = r->filter;
    bool v4 = false, v6 = false;
    if (f.src.len > 0)
      (f.src.addr.ver == IpVersion::v4 ? v4 : v6) = true;
    else if (f.dst.len > 0)
      (f.dst.addr.ver == IpVersion::v4 ? v4 : v6) = true;
    else
      v4 = v6 = true;  // fully wildcarded addresses match both families
    if (v4) insert_into_family(0, r.get());
    if (v6) insert_into_family(1, r.get());
  }
  total_dst_nodes_ = dst_nodes_.size();

  // Order src nodes by depth so ancestor tries are finished first.
  std::vector<std::int32_t> src_order;
  src_order.reserve(src_nodes_.size());
  for (std::size_t i = 0; i < src_nodes_.size(); ++i)
    src_order.push_back(static_cast<std::int32_t>(i));
  std::sort(src_order.begin(), src_order.end(),
            [&](std::int32_t a, std::int32_t b) {
              return src_nodes_[a].depth < src_nodes_[b].depth;
            });

  auto nearest_ancestor_trie = [&](std::int32_t snode) {
    for (std::int32_t s = src_nodes_[snode].parent; s != kNil;
         s = src_nodes_[s].parent)
      if (src_nodes_[s].trie_root != kNil) return src_nodes_[s].trie_root;
    return kNil;
  };

  // stored + switch pointers, per source node in depth order, dst nodes in
  // BFS order within each trie.
  for (std::int32_t snode : src_order) {
    std::int32_t troot = src_nodes_[snode].trie_root;
    if (troot == kNil) continue;
    std::int32_t anc_root = nearest_ancestor_trie(snode);

    std::vector<std::pair<std::int32_t, std::int32_t>> bfs{{troot, kNil}};
    for (std::size_t i = 0; i < bfs.size(); ++i) {
      auto [u, parent] = bfs[i];
      DstNode& n = dst_nodes_[u];
      n.stored = better(n.exact, parent == kNil ? nullptr
                                                : dst_nodes_[parent].stored);
      // Inherit the best filter visible at this path in ancestor tries.
      if (anc_root != kNil) {
        std::int32_t inh =
            deepest_on_path(anc_root, paths_[u].path, paths_[u].len, nullptr);
        if (inh != kNil) n.stored = better(n.stored, dst_nodes_[inh].stored);
      }
      for (int b = 0; b < 2; ++b) {
        if (n.child[b] != kNil) {
          bfs.emplace_back(n.child[b], u);
          continue;
        }
        // Switch pointer: the node at path·b in the nearest source
        // ancestor's trie that actually contains it.
        U128 ext = paths_[u].path |
                   (b ? (U128{0x8000000000000000ULL, 0} >> paths_[u].len)
                      : U128{});
        for (std::int32_t s = src_nodes_[snode].parent; s != kNil;
             s = src_nodes_[s].parent) {
          if (src_nodes_[s].trie_root == kNil) continue;
          bool exact = false;
          std::int32_t t = deepest_on_path(src_nodes_[s].trie_root, ext,
                                           paths_[u].len + 1, &exact);
          if (t != kNil && exact) {
            n.jump[b] = t;
            break;
          }
        }
      }
    }
  }
}

const FilterRecord* GridOfTries::lookup(const pkt::FlowKey& key) const {
  if (dirty_) rebuild();
  if (src_nodes_.empty()) return nullptr;

  const std::size_t root = key.src.ver == IpVersion::v4 ? 0 : 1;
  const U128 src = key.src.key();
  const U128 dst = key.dst.key();
  const unsigned width = key.src.width();

  // Walk the source trie along the packet bits; remember the deepest node
  // with a destination trie (its stored/jump structure reaches ancestors).
  std::int32_t cur = static_cast<std::int32_t>(root);
  std::int32_t start = src_nodes_[cur].trie_root;
  MemAccess::count();
  for (unsigned d = 0; d < width; ++d) {
    std::int32_t next = src_nodes_[cur].child[src.bit(d) ? 1 : 0];
    if (next == kNil) break;
    MemAccess::count();
    cur = next;
    if (src_nodes_[cur].trie_root != kNil) start = src_nodes_[cur].trie_root;
  }
  if (start == kNil) return nullptr;

  const FilterRecord* best = nullptr;
  std::int32_t u = start;
  MemAccess::count();
  best = better(best, dst_nodes_[u].stored);
  const unsigned dwidth = key.dst.width();
  for (unsigned d = 0; d < dwidth; ++d) {
    const int b = dst.bit(d) ? 1 : 0;
    std::int32_t next = dst_nodes_[u].child[b];
    if (next == kNil) next = dst_nodes_[u].jump[b];
    if (next == kNil) break;
    MemAccess::count();
    u = next;
    best = better(best, dst_nodes_[u].stored);
  }
  return best;
}

}  // namespace rp::aiu
