#include "route/routing_table.hpp"

namespace rp::route {

using netbase::Status;

RoutingTable::RoutingTable(std::string_view engine)
    : v4_(bmp::make_lpm_engine(engine, 32)),
      v6_(bmp::make_lpm_engine(engine, 128)) {
  if (!v4_ || !v6_) {  // unknown engine name: fall back to the default
    v4_ = bmp::make_lpm_engine("bsl", 32);
    v6_ = bmp::make_lpm_engine("bsl", 128);
  }
}

std::uint32_t RoutingTable::alloc_hop(NextHop hop) {
  if (!free_hops_.empty()) {
    const std::uint32_t id = free_hops_.back();
    free_hops_.pop_back();
    hops_[id] = hop;
    return id;
  }
  hops_.push_back(hop);
  return static_cast<std::uint32_t>(hops_.size() - 1);
}

Status RoutingTable::add(const netbase::IpPrefix& prefix, NextHop hop) {
  bool existed = false;
  return add(prefix, hop, existed);
}

Status RoutingTable::add(const netbase::IpPrefix& prefix, NextHop hop,
                         bool& existed) {
  bmp::LpmEngine& e = engine_for(prefix.addr.ver);
  bmp::LpmValue id = 0;
  existed = e.find(prefix.addr.key(), prefix.len, id);
  if (existed) {
    // Existing prefix: a next-hop change. Rewrite the hop record in place;
    // the engine still maps the prefix to the same hop id, so no trie or
    // hash structure is touched at all.
    hops_[id] = hop;
    return Status::ok;
  }
  id = alloc_hop(hop);
  const Status st = e.insert(prefix.addr.key(), prefix.len, id);
  if (st != Status::ok) free_hops_.push_back(id);
  return st;
}

Status RoutingTable::remove(const netbase::IpPrefix& prefix) {
  bmp::LpmEngine& e = engine_for(prefix.addr.ver);
  bmp::LpmValue id = 0;
  const bool live = e.find(prefix.addr.key(), prefix.len, id);
  const Status st = e.remove(prefix.addr.key(), prefix.len);
  if (st == Status::ok && live) free_hops_.push_back(id);
  return st;
}

RouteBatchResult RoutingTable::apply_batch(const RouteOp* ops, std::size_t n) {
  RouteBatchResult res;
  for (std::size_t i = 0; i < n; ++i) {
    const RouteOp& op = ops[i];
    if (op.kind == RouteOp::Kind::add) {
      bool existed = false;
      if (add(op.prefix, op.hop, existed) != Status::ok)
        ++res.failed;
      else if (existed)
        ++res.updated;
      else
        ++res.added;
    } else {
      if (remove(op.prefix) != Status::ok)
        ++res.failed;
      else
        ++res.withdrawn;
    }
  }
  prepare();
  return res;
}

void RoutingTable::prepare() {
  v4_->prepare();
  v6_->prepare();
}

const NextHop* RoutingTable::lookup(const netbase::IpAddr& dst) const {
  bmp::LpmMatch m;
  if (!engine_for(dst.ver).lookup(dst.key(), m)) return nullptr;
  return &hops_[m.value];
}

std::size_t RoutingTable::size() const noexcept {
  return v4_->size() + v6_->size();
}

}  // namespace rp::route
