#include "tgen/churn.hpp"

#include <set>
#include <unordered_map>
#include <utility>

namespace rp::tgen {

using netbase::IpAddr;
using netbase::IpPrefix;
using netbase::IpVersion;
using netbase::Rng;
using netbase::U128;

namespace {

IpAddr churn_addr(Rng& rng, IpVersion ver) {
  if (ver == IpVersion::v4)
    return IpAddr(netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())));
  return IpAddr(netbase::Ipv6Addr(U128{rng.next(), rng.next()}));
}

route::NextHop random_hop(Rng& rng, std::uint32_t ifaces) {
  route::NextHop hop;
  hop.out_iface = static_cast<pkt::IfIndex>(rng.below(ifaces ? ifaces : 1));
  return hop;
}

}  // namespace

RouteChurn route_churn(const RouteChurnSpec& spec) {
  Rng rng(spec.seed);
  RouteChurn out;

  // Live-set tracking so withdraws always hit and fresh adds never alias an
  // existing prefix (an aliasing add would silently be a next-hop change and
  // skew the op mix). The index only answers membership and positions, so
  // a hash map serves; the emitted stream never depends on its order.
  struct Key {
    U128 addr;
    std::uint8_t len;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = (k.addr.hi ^ (k.addr.lo * 0x9e3779b97f4a7c15ULL)) +
                        k.len;
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  std::unordered_map<Key, std::size_t, KeyHash> index;  // -> position in live
  index.reserve(spec.base_prefixes + spec.ops);
  std::vector<IpPrefix> live;

  auto fresh_prefix = [&] {
    for (;;) {
      const unsigned len =
          static_cast<unsigned>(rng.range(spec.min_len, spec.max_len));
      IpPrefix p(churn_addr(rng, spec.ver), len);
      if (!index.contains({p.addr.key(), p.len})) return p;
    }
  };
  auto add_live = [&](const IpPrefix& p) {
    index[{p.addr.key(), p.len}] = live.size();
    live.push_back(p);
  };
  auto drop_live = [&](std::size_t i) {
    index.erase({live[i].addr.key(), live[i].len});
    if (i + 1 != live.size()) {
      live[i] = live.back();
      index[{live[i].addr.key(), live[i].len}] = i;
    }
    live.pop_back();
  };

  out.base.reserve(spec.base_prefixes);
  out.base_hops.reserve(spec.base_prefixes);
  while (out.base.size() < spec.base_prefixes) {
    IpPrefix p = fresh_prefix();
    add_live(p);
    out.base.push_back(p);
    out.base_hops.push_back(random_hop(rng, spec.ifaces));
  }

  std::vector<route::RouteOp> batch;
  const std::size_t batch_size = spec.batch_size ? spec.batch_size : 1;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < spec.ops; ++i) {
    route::RouteOp op;
    const double r = rng.uniform01();
    if (r < spec.p_withdraw && !live.empty()) {
      const std::size_t victim = rng.below(live.size());
      op.kind = route::RouteOp::Kind::withdraw;
      op.prefix = live[victim];
      drop_live(victim);
    } else if (r < spec.p_withdraw + spec.p_nexthop_change && !live.empty()) {
      op.kind = route::RouteOp::Kind::add;  // re-add = next-hop change
      op.prefix = live[rng.below(live.size())];
      op.hop = random_hop(rng, spec.ifaces);
    } else {
      op.kind = route::RouteOp::Kind::add;
      op.prefix = fresh_prefix();
      op.hop = random_hop(rng, spec.ifaces);
      add_live(op.prefix);
    }
    batch.push_back(op);
    if (batch.size() == batch_size) {
      out.batches.push_back(std::move(batch));
      batch = {};
      batch.reserve(batch_size);
    }
  }
  if (!batch.empty()) out.batches.push_back(std::move(batch));
  return out;
}

FilterChurn filter_churn(const FilterChurnSpec& spec) {
  FilterChurn out;
  out.base = random_filters(spec.base);

  // Track liveness by filter value (textual form is the stable identity the
  // management plane uses, too).
  std::set<std::string> live_keys;
  std::vector<aiu::Filter> live;
  auto add_live = [&](const aiu::Filter& f) {
    if (!live_keys.insert(f.to_string()).second) return false;
    live.push_back(f);
    return true;
  };
  for (const auto& f : out.base) add_live(f);

  // Fresh filters come from an independent stream with a derived seed so
  // base and churn sets overlap only by chance-of-construction (dedup below
  // keeps adds genuinely fresh either way).
  FilterSetSpec fresh_spec = spec.base;
  fresh_spec.count = spec.ops;  // upper bound on fresh adds needed
  fresh_spec.seed = spec.seed * 0x9e3779b97f4a7c15ULL + 1;
  std::vector<aiu::Filter> fresh = random_filters(fresh_spec);
  std::size_t fresh_next = 0;

  Rng rng(spec.seed);
  std::vector<FilterChurnOp> batch;
  const std::size_t batch_size = spec.batch_size ? spec.batch_size : 1;
  for (std::size_t i = 0; i < spec.ops; ++i) {
    FilterChurnOp op;
    if (rng.chance(spec.p_remove) && !live.empty()) {
      const std::size_t victim = rng.below(live.size());
      op.remove = true;
      op.filter = live[victim];
      live_keys.erase(op.filter.to_string());
      live[victim] = live.back();
      live.pop_back();
    } else {
      while (fresh_next < fresh.size() && !add_live(fresh[fresh_next]))
        ++fresh_next;
      if (fresh_next >= fresh.size()) continue;  // stream exhausted by dups
      op.remove = false;
      op.filter = fresh[fresh_next++];
    }
    batch.push_back(std::move(op));
    if (batch.size() == batch_size) {
      out.batches.push_back(std::move(batch));
      batch = {};
    }
  }
  if (!batch.empty()) out.batches.push_back(std::move(batch));
  return out;
}

}  // namespace rp::tgen
