#include "aiu/filter_table.hpp"

#include <algorithm>

#include "netbase/memaccess.hpp"

namespace rp::aiu {

using netbase::IpVersion;
using netbase::MemAccess;
using netbase::U128;

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A candidate's share of its set's hash. A set hashes to the sum of its
// members' shares, so the hash ignores order and follows an add or a remove
// in O(1).
std::uint64_t id_hash(const FilterRecord* r) noexcept {
  return mix64(r->id + 0x9e3779b97f4a7c15ULL);
}

std::uint64_t memo_key(int level, std::uint64_t hash) noexcept {
  return hash ^ mix64(static_cast<std::uint64_t>(level) + 1);
}

bool by_id(const FilterRecord* a, const FilterRecord* b) noexcept {
  return a->id < b->id;
}

std::uint64_t hash_of(const std::vector<const FilterRecord*>& c) noexcept {
  std::uint64_t h = 0;
  for (const FilterRecord* r : c) h += id_hash(r);
  return h;
}

// Whether `have` is `base` (delta 0), `base` plus `f` (delta +1; the newest
// record sorts last) or `base` without `f` (delta -1).
bool same_set(const std::vector<const FilterRecord*>& have,
              const std::vector<const FilterRecord*>& base,
              const FilterRecord* f, int delta) noexcept {
  if (have.size() + (delta < 0 ? 1 : 0) != base.size() + (delta > 0 ? 1 : 0))
    return false;
  if (delta == 0) return have == base;
  if (delta > 0)
    return have.back() == f && std::equal(base.begin(), base.end(), have.begin());
  auto h = have.begin();
  for (const FilterRecord* r : base)
    if (r != f && *h++ != r) return false;
  return true;
}

// The same total order the leaves use: most specific wins, ties broken by
// installation order. Merging two sub-DAG results with it is therefore
// identical to picking the best over the union of their candidate sets.
const FilterRecord* more_specific(const FilterRecord* a,
                                  const FilterRecord* b) noexcept {
  if (!a) return b;
  if (!b) return a;
  const int c = compare_specificity(a->filter, b->filter);
  if (c != 0) return c > 0 ? a : b;
  return a->id < b->id ? a : b;
}

// An address edge's (family, length) for NodeInfo::lengths, ascending.
std::uint16_t length_code(IpVersion ver, std::uint8_t len) noexcept {
  return static_cast<std::uint16_t>((ver == IpVersion::v6 ? 256 : 0) | len);
}

}  // namespace

std::size_t DagFilterTable::ByFilter::operator()(const Filter& f) const noexcept {
  auto prefix = [](const netbase::IpPrefix& p) {
    const U128 k = p.addr.key();
    return mix64(k.hi ^ mix64(k.lo ^ (std::uint64_t{p.len} << 8) ^
                              static_cast<std::uint64_t>(p.addr.ver)));
  };
  const std::uint64_t ports =
      std::uint64_t{f.sport.lo} | std::uint64_t{f.sport.hi} << 16 |
      std::uint64_t{f.dport.lo} << 32 | std::uint64_t{f.dport.hi} << 48;
  const std::uint64_t exact =
      std::uint64_t{f.proto.wild} | std::uint64_t{f.proto.value} << 8 |
      std::uint64_t{f.in_iface.wild} << 16 |
      std::uint64_t{f.in_iface.value} << 24;
  return static_cast<std::size_t>(prefix(f.src) ^ mix64(prefix(f.dst) + ports) ^
                                  mix64(exact + 0x632be59bd9b4e019ULL));
}

bool DagFilterTable::constrains(const Filter& f, int level) noexcept {
  switch (level) {
    case kSrc: return f.src.len != 0;
    case kDst: return f.dst.len != 0;
    case kProto: return !f.proto.wild;
    case kSport: return !f.sport.is_wild();
    case kDport: return !f.dport.is_wild();
    case kIface: return !f.in_iface.wild;
    default: return false;
  }
}

const netbase::IpPrefix& DagFilterTable::address(const Filter& f,
                                                 int level) noexcept {
  return level == kSrc ? f.src : f.dst;
}

std::uint32_t DagFilterTable::exact_value(const Filter& f, int level) noexcept {
  return level == kProto ? f.proto.value : std::uint32_t{f.in_iface.value};
}

const PortSpec& DagFilterTable::port(const Filter& f, int level) noexcept {
  return level == kSport ? f.sport : f.dport;
}

DagFilterTable::DagFilterTable() = default;
DagFilterTable::DagFilterTable(Options opt) : opt_(std::move(opt)) {}
DagFilterTable::~DagFilterTable() = default;

// ---- records ---------------------------------------------------------------

FilterRecord* DagFilterTable::insert(const Filter& f,
                                     plugin::PluginInstance* inst) {
  if (auto it = index_.find(f); it != index_.end()) {
    FilterRecord* r = records_[it->second].get();
    r->instance = inst;  // rebind an existing filter
    return r;
  }
  auto rec = std::make_unique<FilterRecord>();
  rec->filter = f;
  rec->instance = inst;
  rec->id = next_id_++;
  FilterRecord* out = rec.get();
  index_.emplace(out, records_.size());
  records_.push_back(std::move(rec));
  if (built_) apply_root(out, true);
  return out;
}

Status DagFilterTable::remove(const Filter& f) {
  auto it = index_.find(f);
  if (it == index_.end()) return Status::not_found;
  const std::size_t pos = it->second;
  index_.erase(it);
  std::unique_ptr<FilterRecord> rec = std::move(records_[pos]);
  if (pos + 1 != records_.size()) {
    records_[pos] = std::move(records_.back());
    index_.find(records_[pos].get())->second = pos;
  }
  records_.pop_back();
  if (built_) apply_root(rec.get(), false);
  retired_.push_back(std::move(rec));
  return Status::ok;
}

const FilterRecord* DagFilterTable::find(const Filter& f) const {
  auto it = index_.find(f);
  return it == index_.end() ? nullptr : it->first;
}

std::size_t DagFilterTable::purge_instance(const plugin::PluginInstance* inst) {
  std::vector<const FilterRecord*> doomed;
  for (const auto& r : records_)
    if (r->instance == inst) doomed.push_back(r.get());
  for (const FilterRecord* r : doomed) remove(r->filter);
  return doomed.size();
}

std::size_t DagFilterTable::rebind_instance(plugin::PluginInstance* from,
                                            plugin::PluginInstance* to) {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r->instance == from) {
      r->instance = to;
      ++n;
    }
  }
  // No structural change: the DAG's leaves point at the records, whose
  // filters are unchanged — only the binding moved.
  return n;
}

// ---- build -------------------------------------------------------------------

void DagFilterTable::prepare() const {
  if (!built_) rebuild();
  patch();
}

void DagFilterTable::patch() const {
  for (std::int32_t n : pending_) {  // a node freed since has no engines
    Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.lpm4) node.lpm4->prepare();
    if (node.lpm6) node.lpm6->prepare();
  }
  pending_.clear();
  retired_.clear();
}

void DagFilterTable::rebuild() const {
  nodes_.clear();
  info_.clear();
  free_.clear();
  memo_.clear();
  pending_.clear();
  ++rebuilds_;
  built_ = true;
  root_ = -1;
  if (records_.empty()) return;
  Cands all;
  all.reserve(records_.size());
  for (const auto& r : records_) all.push_back(r.get());
  std::sort(all.begin(), all.end(), by_id);
  const std::uint64_t h = hash_of(all);
  root_ = build(kSrc, std::move(all), h);
}

std::int32_t DagFilterTable::build(int level, Cands cand,
                                   std::uint64_t hash) const {
  // §5.1.2 node collapsing: a field no candidate constrains is a no-op
  // test, so the position is the next level's node.
  if (opt_.collapse)
    while (level < kLeaf &&
           std::none_of(cand.begin(), cand.end(), [&](const FilterRecord* r) {
             return constrains(r->filter, level);
           }))
      ++level;
  ++stats_.work;
  // DAG node sharing: identical (level, candidate-set) pairs map to one
  // node — including leaves, which otherwise replicate heavily.
  if (const std::int32_t hit = memo_find(level, hash, cand, nullptr, 0);
      hit >= 0)
    return acquire(hit);

  const std::int32_t me = alloc_node(level);
  const auto mi = static_cast<std::size_t>(me);
  NodeInfo& in = info_[mi];  // a deque element: stable while children build
  in.cands = std::move(cand);
  in.hash = hash;
  memo_insert(me);
  const Cands& c = in.cands;
  in.constrained = static_cast<std::uint32_t>(
      std::count_if(c.begin(), c.end(), [&](const FilterRecord* r) {
        return constrains(r->filter, level);
      }));

  if (level == kLeaf) {
    // Every candidate here matches any key that reached this leaf; the
    // best (most specific; ties broken by installation order) wins.
    const FilterRecord* best = nullptr;
    for (const FilterRecord* r : c) best = more_specific(best, r);
    nodes_[mi].leaf = best;
    return acquire(me);
  }

  // Builds the child for `sub` and returns the new reference.
  auto child = [&](Cands sub) {
    const std::uint64_t h = hash_of(sub);
    return build(level + 1, std::move(sub), h);
  };
  auto wild_set = [&] {
    Cands w;
    for (const FilterRecord* r : c)
      if (!constrains(r->filter, level)) w.push_back(r);
    return w;
  };

  if (level == kSrc || level == kDst) {
    // Candidates by exact prefix. len-0 filters (either family) are hoisted
    // onto the wild edge instead of being replicated into every subtree:
    // lookup descends both and keeps the more specific result.
    std::vector<std::pair<EdgeKey, const FilterRecord*>> keyed;
    for (const FilterRecord* r : c) {
      const netbase::IpPrefix& p = address(r->filter, level);
      if (p.len != 0) keyed.push_back({{p.addr.ver, p.addr.key(), p.len}, r});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    struct Group {
      EdgeKey key;
      std::size_t begin, end;
    };
    std::vector<Group> groups;
    for (std::size_t i = 0; i < keyed.size();) {
      std::size_t j = i + 1;
      while (j < keyed.size() && keyed[j].first == keyed[i].first) ++j;
      groups.push_back({keyed[i].first, i, j});
      i = j;
    }
    // Distinct (family, length) pairs present.
    std::vector<std::uint16_t> codes;
    codes.reserve(groups.size());
    for (const Group& g : groups) codes.push_back(length_code(g.key.ver, g.key.len));
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());

    for (const Group& g : groups) {
      // Set-pruning replication: the subtree under edge `p` holds every
      // filter whose prefix covers p (matches at least everything p does) —
      // wildcards excepted, they live on the wild edge. One probe per
      // length present finds them.
      Cands sub;
      for (std::uint16_t code : codes) {
        if (code != length_code(g.key.ver, static_cast<std::uint8_t>(code & 255)))
          continue;  // other family
        const auto l = static_cast<std::uint8_t>(code & 255);
        if (l > g.key.len) break;
        const EdgeKey probe{g.key.ver, g.key.key & U128::prefix_mask(l), l};
        auto it = std::lower_bound(
            groups.begin(), groups.end(), probe,
            [](const Group& a, const EdgeKey& k) { return a.key < k; });
        if (it == groups.end() || !(it->key == probe)) continue;
        for (std::size_t i = it->begin; i < it->end; ++i)
          sub.push_back(keyed[i].second);
      }
      std::sort(sub.begin(), sub.end(), by_id);
      const std::int32_t target = child(std::move(sub));
      add_edge(me, g.key, target, static_cast<std::uint32_t>(g.end - g.begin));
    }
    if (in.constrained != c.size()) {
      const std::int32_t w = child(wild_set());
      nodes_[mi].wild = w;
    }
    return acquire(me);
  }

  if (level == kProto || level == kIface) {
    std::vector<std::uint32_t> vals;
    for (const FilterRecord* r : c) {
      if (!constrains(r->filter, level)) continue;
      const std::uint32_t v = exact_value(r->filter, level);
      if (std::find(vals.begin(), vals.end(), v) == vals.end()) vals.push_back(v);
    }
    for (std::uint32_t v : vals) {
      // Wild filters are on the wild edge, not replicated under each value.
      Cands sub;
      for (const FilterRecord* r : c)
        if (constrains(r->filter, level) && exact_value(r->filter, level) == v)
          sub.push_back(r);
      const std::int32_t target = child(std::move(sub));
      nodes_[mi].exact[v] = target;
    }
    if (in.constrained != c.size()) {
      const std::int32_t w = child(wild_set());
      nodes_[mi].wild = w;
    }
    return acquire(me);
  }

  // Port levels: close the distinct specs under pairwise intersection so
  // that for any key the most specific matching edge is unique (this is the
  // filter-ambiguity resolution of §5.1.2 applied to ranges).
  std::vector<PortSpec> specs;
  for (const FilterRecord* r : c) {
    const PortSpec& p = port(r->filter, level);
    if (p.is_wild()) continue;  // hoisted onto the wild edge below
    if (std::find(specs.begin(), specs.end(), p) == specs.end())
      specs.push_back(p);
  }
  // (j restarts from 0 so intersections involving appended specs are also
  // closed — the loop reaches a fixpoint because each addition is narrower.)
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (specs[i].overlaps(specs[j])) {
        PortSpec x = specs[i].intersect(specs[j]);
        if (std::find(specs.begin(), specs.end(), x) == specs.end())
          specs.push_back(x);
      }
    }
  }
  // Narrowest-first: lookup scans in this order and stops at the first hit.
  std::sort(specs.begin(), specs.end(), [](const PortSpec& a, const PortSpec& b) {
    if (a.width() != b.width()) return a.width() < b.width();
    return a.lo < b.lo;
  });
  for (const auto& s : specs) {
    Cands sub;
    for (const FilterRecord* r : c) {
      const PortSpec& p = port(r->filter, level);
      if (!p.is_wild() && p.covers(s)) sub.push_back(r);
    }
    const std::int32_t target = child(std::move(sub));
    Node& n = nodes_[mi];
    if (s.is_exact())
      n.port_exact[s.lo] = target;
    else
      n.ranges.emplace_back(s, target);
  }
  if (in.constrained != c.size()) {
    const std::int32_t w = child(wild_set());
    nodes_[mi].wild = w;
  }
  return acquire(me);
}

// ---- in-place ops ------------------------------------------------------------

void DagFilterTable::apply_root(const FilterRecord* f, bool add) const {
  ++stats_.ops;
  const std::int32_t old = root_;
  root_ = apply(kSrc, old, f, add);
  release(old);
}

std::int32_t DagFilterTable::apply(int level, std::int32_t n,
                                   const FilterRecord* f, bool add) const {
  ++stats_.work;
  if (n < 0) return add ? build(level, {f}, id_hash(f)) : -1;
  const auto i = static_cast<std::size_t>(n);
  const int at = nodes_[i].level;
  const Filter& ff = f->filter;
  if (add && opt_.collapse) {
    // A collapsed position whose first constrained field f constrains gets
    // a node of its own.
    for (int l = level; l < at; ++l)
      if (constrains(ff, l)) return split(l, n, f);
  }
  if (!add) {
    if (info_[i].cands.size() == 1) return -1;  // f was the only candidate
    // The last filter constraining this field leaves: the position
    // collapses to the wild child, whose set is everything else (§5.1.2).
    if (opt_.collapse && at < kLeaf && info_[i].constrained == 1 &&
        constrains(ff, at))
      return acquire(nodes_[i].wild);
  }
  const std::uint64_t h =
      add ? info_[i].hash + id_hash(f) : info_[i].hash - id_hash(f);
  if (const std::int32_t hit = memo_find(at, h, info_[i].cands, f, add ? 1 : -1);
      hit >= 0)
    return acquire(hit);
  if ((at == kSport || at == kDport) && constrains(ff, at)) {
    // Port levels close their specs under intersection: re-derive the node
    // from its (small) candidate set; the memo supplies every child whose
    // set did not change.
    Cands next = info_[i].cands;
    if (add)
      next.push_back(f);
    else
      next.erase(std::lower_bound(next.begin(), next.end(), f, by_id));
    return build(at, std::move(next), h);
  }

  // Change the node itself when the caller's edge is its only reference;
  // copy it first when it is shared.
  const std::int32_t t = info_[i].refs == 1 ? n : copy(n);
  const auto ti = static_cast<std::size_t>(t);
  NodeInfo& in = info_[ti];
  if (t == n) {
    memo_erase(n);
    ++stats_.nodes_changed;
  }
  if (add)
    in.cands.push_back(f);
  else
    in.cands.erase(std::lower_bound(in.cands.begin(), in.cands.end(), f, by_id));
  in.hash = h;
  if (constrains(ff, at)) add ? ++in.constrained : --in.constrained;
  memo_insert(t);

  switch (at) {
    case kLeaf: {
      Node& node = nodes_[ti];
      if (add) {
        node.leaf = more_specific(node.leaf, f);
      } else if (node.leaf == f) {
        node.leaf = nullptr;
        for (const FilterRecord* r : in.cands) node.leaf = more_specific(node.leaf, r);
      }
      break;
    }
    case kSrc:
    case kDst:
      patch_addr(t, f, add);
      break;
    case kProto:
    case kIface:
      patch_exact(t, f, add);
      break;
    default:  // a port level f leaves wild
      patch_wild(t, f, add);
      break;
  }
  return acquire(t);
}

std::int32_t DagFilterTable::split(int level, std::int32_t n,
                                   const FilterRecord* f) const {
  // The position's set S leaves `level` unconstrained and f is the first
  // candidate to constrain it: the new node keeps S on its wild edge (whose
  // node is `n`, S being wild down to n's level) and f on a specific edge.
  const auto i = static_cast<std::size_t>(n);
  const std::uint64_t h = info_[i].hash + id_hash(f);
  if (const std::int32_t hit = memo_find(level, h, info_[i].cands, f, 1); hit >= 0)
    return acquire(hit);
  const std::int32_t me = alloc_node(level);
  NodeInfo& in = info_[static_cast<std::size_t>(me)];
  in.cands = info_[i].cands;
  in.cands.push_back(f);
  in.hash = h;
  in.constrained = 1;
  memo_insert(me);
  nodes_[static_cast<std::size_t>(me)].wild = acquire(n);
  const std::int32_t target = build(level + 1, {f}, id_hash(f));
  link_specific(me, f, target);
  return acquire(me);
}

std::int32_t DagFilterTable::copy(std::int32_t n) const {
  const std::int32_t c = alloc_node(nodes_[static_cast<std::size_t>(n)].level);
  const Node& src = nodes_[static_cast<std::size_t>(n)];
  Node& dst = nodes_[static_cast<std::size_t>(c)];
  dst.addr_targets = src.addr_targets;
  dst.port_exact = src.port_exact;
  dst.ranges = src.ranges;
  dst.exact = src.exact;
  dst.wild = src.wild;
  dst.leaf = src.leaf;
  std::size_t edges = 0;
  auto share = [&](std::int32_t t) {
    acquire(t);
    ++edges;
  };
  for (std::int32_t t : dst.addr_targets) share(t);
  for (const auto& [v, t] : dst.exact) share(t);
  for (const auto& [v, t] : dst.port_exact) share(t);
  for (const auto& [s, t] : dst.ranges) share(t);
  acquire(dst.wild);
  const NodeInfo& from = info_[static_cast<std::size_t>(n)];
  NodeInfo& in = info_[static_cast<std::size_t>(c)];
  in.cands = from.cands;
  in.hash = from.hash;
  in.constrained = from.constrained;
  in.edges = from.edges;
  in.lengths = from.lengths;
  in.free_slots = from.free_slots;
  // A copied node's engines are filled from its edge index.
  for (const auto& [k, e] : in.edges)
    engine(dst, k.ver).insert(k.key, k.len, static_cast<bmp::LpmValue>(e.slot));
  if (!in.edges.empty()) pending_.push_back(c);
  stats_.work += edges;
  return c;  // unreferenced: the caller links it
}

void DagFilterTable::patch_wild(std::int32_t t, const FilterRecord* f,
                                bool add) const {
  const auto ti = static_cast<std::size_t>(t);
  const std::int32_t old = nodes_[ti].wild;
  const std::int32_t next = apply(nodes_[ti].level + 1, old, f, add);
  nodes_[ti].wild = next;
  release(old);
}

void DagFilterTable::patch_exact(std::int32_t t, const FilterRecord* f,
                                 bool add) const {
  const auto ti = static_cast<std::size_t>(t);
  const int level = nodes_[ti].level;
  if (!constrains(f->filter, level)) return patch_wild(t, f, add);
  const std::uint32_t v = exact_value(f->filter, level);
  ++stats_.work;
  auto it = nodes_[ti].exact.find(v);
  if (it == nodes_[ti].exact.end()) {  // an add with a new value
    const std::int32_t target = build(level + 1, {f}, id_hash(f));
    nodes_[ti].exact.emplace(v, target);
    return;
  }
  const std::int32_t old = it->second;
  if (!add && info_[static_cast<std::size_t>(old)].cands.size() == 1) {
    nodes_[ti].exact.erase(it);  // the value's last filter leaves
    release(old);
    return;
  }
  const std::int32_t next = apply(level + 1, old, f, add);
  nodes_[ti].exact[v] = next;
  release(old);
}

void DagFilterTable::patch_addr(std::int32_t t, const FilterRecord* f,
                                bool add) const {
  const auto ti = static_cast<std::size_t>(t);
  const int level = nodes_[ti].level;
  const netbase::IpPrefix& p = address(f->filter, level);
  if (p.len == 0) return patch_wild(t, f, add);
  const EdgeKey k{p.addr.ver, p.addr.key(), p.len};
  NodeInfo& in = info_[ti];
  // The edges p covers, its own included, are the keys in [p, last] that
  // are at least as long as p.
  const U128 last = k.key | ~U128::prefix_mask(k.len);
  bool own = false;
  for (auto it = in.edges.lower_bound({k.ver, k.key, 0});
       it != in.edges.end() && it->first.ver == k.ver && it->first.key <= last;) {
    if (it->first.len < k.len) {  // covers p
      ++it;
      continue;
    }
    ++stats_.work;
    if (it->first.len == k.len) {
      own = true;
      if (add) {
        ++it->second.filters;
      } else if (--it->second.filters == 0) {
        remove_edge(t, it++);
        continue;
      }
    }
    const std::int32_t slot = it->second.slot;
    const std::int32_t old = nodes_[ti].addr_targets[static_cast<std::size_t>(slot)];
    const std::int32_t next = apply(level + 1, old, f, add);
    nodes_[ti].addr_targets[static_cast<std::size_t>(slot)] = next;
    release(old);
    ++it;
  }
  if (add && !own) {
    // A new edge's child set is its longest covering edge's plus f: no
    // filter's prefix lies strictly between the two. That child stays
    // linked under the covering edge, so hold it to have it copied, not
    // changed.
    const std::int32_t base = acquire(covering_child(t, k));
    const std::int32_t target = apply(level + 1, base, f, true);
    release(base);
    add_edge(t, k, target, 1);
  }
}

std::int32_t DagFilterTable::covering_child(std::int32_t t,
                                            const EdgeKey& k) const {
  const NodeInfo& in = info_[static_cast<std::size_t>(t)];
  const std::uint16_t below = length_code(k.ver, k.len);
  const std::uint16_t floor = length_code(k.ver, 0);
  for (auto l = in.lengths.rbegin(); l != in.lengths.rend(); ++l) {
    if (l->first >= below) continue;
    if (l->first <= floor) break;  // the other family's lengths
    const auto len = static_cast<std::uint8_t>(l->first & 255);
    auto e = in.edges.find({k.ver, k.key & U128::prefix_mask(len), len});
    if (e != in.edges.end())
      return nodes_[static_cast<std::size_t>(t)]
          .addr_targets[static_cast<std::size_t>(e->second.slot)];
  }
  return -1;
}

bmp::LpmEngine& DagFilterTable::engine(Node& n, IpVersion ver) const {
  auto& lpm = ver == IpVersion::v4 ? n.lpm4 : n.lpm6;
  if (!lpm)
    lpm = bmp::make_lpm_engine(opt_.bmp_engine, ver == IpVersion::v4 ? 32 : 128);
  return *lpm;
}

void DagFilterTable::add_edge(std::int32_t t, const EdgeKey& k,
                              std::int32_t child, std::uint32_t filters) const {
  const auto ti = static_cast<std::size_t>(t);
  NodeInfo& in = info_[ti];
  Node& n = nodes_[ti];
  std::int32_t slot;
  if (!in.free_slots.empty()) {
    slot = in.free_slots.back();
    in.free_slots.pop_back();
    n.addr_targets[static_cast<std::size_t>(slot)] = child;
  } else {
    slot = static_cast<std::int32_t>(n.addr_targets.size());
    n.addr_targets.push_back(child);
  }
  engine(n, k.ver).insert(k.key, k.len, static_cast<bmp::LpmValue>(slot));
  // The build adds edges in key order, so the end is the right hint there.
  in.edges.emplace_hint(in.edges.end(), k, AddrEdge{slot, filters});
  const std::uint16_t code = length_code(k.ver, k.len);
  auto l = std::lower_bound(in.lengths.begin(), in.lengths.end(), code,
                            [](const auto& e, std::uint16_t c) { return e.first < c; });
  if (l == in.lengths.end() || l->first != code)
    in.lengths.insert(l, {code, 1});
  else
    ++l->second;
  if (pending_.empty() || pending_.back() != t) pending_.push_back(t);
  ++stats_.work;
}

void DagFilterTable::remove_edge(std::int32_t t,
                                 std::map<EdgeKey, AddrEdge>::iterator it) const {
  const auto ti = static_cast<std::size_t>(t);
  NodeInfo& in = info_[ti];
  Node& n = nodes_[ti];
  const EdgeKey k = it->first;
  const std::int32_t slot = it->second.slot;
  in.edges.erase(it);
  auto& lpm = k.ver == IpVersion::v4 ? n.lpm4 : n.lpm6;
  lpm->remove(k.key, k.len);
  // A fresh build gives a family without edges no engine at all.
  if (lpm->size() == 0) lpm.reset();
  const std::int32_t child = n.addr_targets[static_cast<std::size_t>(slot)];
  n.addr_targets[static_cast<std::size_t>(slot)] = -1;
  in.free_slots.push_back(slot);
  const std::uint16_t code = length_code(k.ver, k.len);
  auto l = std::lower_bound(in.lengths.begin(), in.lengths.end(), code,
                            [](const auto& e, std::uint16_t c) { return e.first < c; });
  if (--l->second == 0) in.lengths.erase(l);
  if (pending_.empty() || pending_.back() != t) pending_.push_back(t);
  ++stats_.work;
  release(child);
}

void DagFilterTable::link_specific(std::int32_t t, const FilterRecord* f,
                                   std::int32_t child) const {
  const auto ti = static_cast<std::size_t>(t);
  const int level = nodes_[ti].level;
  const Filter& ff = f->filter;
  if (level == kSrc || level == kDst) {
    const netbase::IpPrefix& p = address(ff, level);
    add_edge(t, {p.addr.ver, p.addr.key(), p.len}, child, 1);
  } else if (level == kProto || level == kIface) {
    nodes_[ti].exact.emplace(exact_value(ff, level), child);
  } else if (const PortSpec& s = port(ff, level); s.is_exact()) {
    nodes_[ti].port_exact.emplace(s.lo, child);
  } else {
    nodes_[ti].ranges.emplace_back(s, child);
  }
}

// ---- arena and memo --------------------------------------------------------

std::int32_t DagFilterTable::alloc_node(int level) const {
  std::int32_t n;
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
  } else {
    n = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    info_.emplace_back();
  }
  nodes_[static_cast<std::size_t>(n)].level = static_cast<std::uint8_t>(level);
  ++stats_.nodes_changed;
  return n;
}

std::int32_t DagFilterTable::acquire(std::int32_t n) const {
  if (n >= 0) ++info_[static_cast<std::size_t>(n)].refs;
  return n;
}

void DagFilterTable::release(std::int32_t n) const {
  if (n < 0) return;
  const auto i = static_cast<std::size_t>(n);
  if (--info_[i].refs != 0) return;
  memo_erase(n);
  ++stats_.nodes_changed;
  Node& node = nodes_[i];  // releasing children frees, never allocates
  for (std::int32_t t : node.addr_targets) release(t);
  for (const auto& [v, t] : node.exact) release(t);
  for (const auto& [v, t] : node.port_exact) release(t);
  for (const auto& [s, t] : node.ranges) release(t);
  release(node.wild);
  node = Node{};
  info_[i] = NodeInfo{};
  free_.push_back(n);
}

std::int32_t DagFilterTable::memo_find(int level, std::uint64_t hash,
                                       const Cands& base, const FilterRecord* f,
                                       int delta) const {
  const auto [lo, hi] = memo_.equal_range(memo_key(level, hash));
  for (auto it = lo; it != hi; ++it) {
    const auto i = static_cast<std::size_t>(it->second);
    if (nodes_[i].level == level && info_[i].hash == hash &&
        same_set(info_[i].cands, base, f, delta))
      return it->second;
  }
  return -1;
}

void DagFilterTable::memo_insert(std::int32_t n) const {
  const auto i = static_cast<std::size_t>(n);
  memo_.emplace(memo_key(nodes_[i].level, info_[i].hash), n);
}

void DagFilterTable::memo_erase(std::int32_t n) const {
  const auto i = static_cast<std::size_t>(n);
  const auto [lo, hi] = memo_.equal_range(memo_key(nodes_[i].level, info_[i].hash));
  for (auto it = lo; it != hi; ++it)
    if (it->second == n) {
      memo_.erase(it);
      return;
    }
}

std::size_t DagFilterTable::node_count() const {
  if (!built_) prepare();
  return nodes_.size() - free_.size();
}

std::size_t DagFilterTable::reachable_node_count() const {
  if (root_ < 0) return 0;
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<std::int32_t> stack;
  auto push = [&](std::int32_t t) {
    if (t >= 0 && !seen[static_cast<std::size_t>(t)]) {
      seen[static_cast<std::size_t>(t)] = 1;
      stack.push_back(t);
    }
  };
  push(root_);
  std::size_t count = 0;
  while (!stack.empty()) {
    const Node& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    ++count;
    for (std::int32_t t : n.addr_targets) push(t);
    for (const auto& [v, t] : n.exact) push(t);
    for (const auto& [v, t] : n.port_exact) push(t);
    for (const auto& [s, t] : n.ranges) push(t);
    push(n.wild);
  }
  return count;
}

// ---- lookup ----------------------------------------------------------------

std::int32_t DagFilterTable::walk(const Node& n, const pkt::FlowKey& key) const {
  MemAccess::count();  // fetch of this node's edge structure
  switch (n.level) {
    case kSrc:
    case kDst: {
      const netbase::IpAddr& a = n.level == kSrc ? key.src : key.dst;
      const auto& lpm = a.ver == IpVersion::v4 ? n.lpm4 : n.lpm6;
      if (!lpm) return -1;
      bmp::LpmMatch m;
      if (!lpm->lookup(a.key(), m)) return -1;  // engine counts its probes
      return n.addr_targets[m.value];
    }
    case kProto:
    case kIface: {
      const std::uint32_t v =
          n.level == kProto ? key.proto : std::uint32_t{key.in_iface};
      if (!n.exact.empty()) {
        MemAccess::count();  // exact hash probe
        auto it = n.exact.find(v);
        if (it != n.exact.end()) return it->second;
      }
      return -1;  // the wild edge is descended separately by match_from
    }
    case kSport:
    case kDport: {
      const std::uint16_t v = n.level == kSport ? key.sport : key.dport;
      if (!n.port_exact.empty()) {
        MemAccess::count();  // exact hash probe
        auto it = n.port_exact.find(v);
        if (it != n.port_exact.end()) return it->second;
      }
      for (const auto& [spec, target] : n.ranges) {
        MemAccess::count();  // range entry inspection
        if (spec.matches(v)) return target;
      }
      return -1;
    }
    default:
      return -1;
  }
}


const FilterRecord* DagFilterTable::match_from(std::int32_t idx,
                                               const pkt::FlowKey& key) const {
  const FilterRecord* best = nullptr;
  while (idx >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.level == kLeaf) return more_specific(best, n.leaf);
    // Two-way descent: the field-specific edge and the wild edge are
    // disjoint candidate sets; keep the better of both leaves.
    if (n.wild >= 0) best = more_specific(best, match_from(n.wild, key));
    idx = walk(n, key);
  }
  return best;
}

const FilterRecord* DagFilterTable::lookup(const pkt::FlowKey& key) const {
  if (!built_) prepare();  // the one-pass build of a table never built
  return match_from(root_, key);
}

std::string DagFilterTable::dump_dot() const {
  if (!built_) prepare();
  static constexpr const char* kLevelNames[] = {"src",   "dst",   "proto",
                                                "sport", "dport", "iface",
                                                "leaf"};
  std::string out = "digraph filter_dag {\n  rankdir=TB;\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (info_[i].refs == 0) continue;  // on the free list
    const Node& n = nodes_[i];
    if (n.level == kLeaf) {
      out += "  n" + std::to_string(i) + " [shape=box,label=\"" +
             (n.leaf ? n.leaf->filter.to_string() : "-") + "\"];\n";
      continue;
    }
    out += "  n" + std::to_string(i) + " [label=\"" +
           kLevelNames[n.level] + "\"];\n";
    auto edge = [&](std::int32_t target, const std::string& label) {
      if (target < 0) return;
      out += "  n" + std::to_string(i) + " -> n" + std::to_string(target) +
             " [label=\"" + label + "\"];\n";
    };
    for (std::size_t e = 0; e < n.addr_targets.size(); ++e)
      edge(n.addr_targets[e], "p" + std::to_string(e));
    for (const auto& [v, t] : n.exact) edge(t, std::to_string(v));
    for (const auto& [v, t] : n.port_exact) edge(t, std::to_string(v));
    for (const auto& [spec, t] : n.ranges) edge(t, spec.to_string());
    edge(n.wild, "*");
  }
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------

FilterRecord* LinearFilterTable::insert(const Filter& f,
                                        plugin::PluginInstance* inst) {
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
  return out;
}

Status LinearFilterTable::remove(const Filter& f) {
  auto before = records_.size();
  std::erase_if(records_, [&](auto& r) { return r->filter == f; });
  return records_.size() != before ? Status::ok : Status::not_found;
}

const FilterRecord* LinearFilterTable::lookup(const pkt::FlowKey& key) const {
  const FilterRecord* best = nullptr;
  for (const auto& r : records_) {
    MemAccess::count();  // every record is inspected: the O(n) baseline
    if (!r->filter.matches(key)) continue;
    if (!best || compare_specificity(r->filter, best->filter) > 0 ||
        (compare_specificity(r->filter, best->filter) == 0 && r->id < best->id))
      best = r.get();
  }
  return best;
}

std::size_t LinearFilterTable::purge_instance(const plugin::PluginInstance* inst) {
  auto before = records_.size();
  std::erase_if(records_, [&](auto& r) { return r->instance == inst; });
  return before - records_.size();
}

std::size_t LinearFilterTable::rebind_instance(plugin::PluginInstance* from,
                                               plugin::PluginInstance* to) {
  std::size_t n = 0;
  for (auto& r : records_) {
    if (r->instance == from) {
      r->instance = to;
      ++n;
    }
  }
  return n;
}

const FilterRecord* LinearFilterTable::find(const Filter& f) const {
  for (const auto& r : records_)
    if (r->filter == f) return r.get();
  return nullptr;
}

std::unique_ptr<FilterTableBase> make_filter_table(
    std::string_view kind, const DagFilterTable::Options& dag_opt) {
  if (kind == "dag") return std::make_unique<DagFilterTable>(dag_opt);
  if (kind == "linear") return std::make_unique<LinearFilterTable>();
  return nullptr;
}

}  // namespace rp::aiu
