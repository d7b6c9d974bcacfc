// Routing table built on a pluggable BMP engine.
//
// In the paper's core, the route lookup is one of the per-packet costs the
// gates sit alongside; routing-as-classification (L4 switching) is the
// future-work item covered by route::RoutePlugin instead. This table is the
// classic destination-prefix lookup: prefix -> (output interface, gateway).
//
// Built for control-plane churn (docs/control_plane.md): a next-hop change
// for an existing prefix — the common case in a BGP update stream — rewrites
// the hop record in place without touching the BMP engine, withdrawn
// prefixes recycle their hop slots through a free list so the table stays
// flat under add/withdraw cycling, and apply_batch() applies a whole update
// burst followed by one prepare(), so an engine's deferred build (bsl, after
// an update that adds or empties a prefix length) never stalls the packet
// path. The engines' own prefix stores are the only copy of the prefix set:
// a prefix's hop id is the value its engine holds for it.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bmp/lpm.hpp"
#include "netbase/ip.hpp"
#include "pkt/flow_key.hpp"

namespace rp::route {

struct NextHop {
  pkt::IfIndex out_iface{pkt::kAnyIface};
  netbase::IpAddr gateway{};  // unused when directly connected
  bool valid() const noexcept { return out_iface != pkt::kAnyIface; }
};

// One element of a control-plane route batch.
struct RouteOp {
  enum class Kind : std::uint8_t { add, withdraw };
  Kind kind{Kind::add};
  netbase::IpPrefix prefix{};
  NextHop hop{};  // ignored for withdraw
};

// Per-batch accounting returned by apply_batch().
struct RouteBatchResult {
  std::size_t added{0};      // new prefixes inserted into the engine
  std::size_t updated{0};    // in-place next-hop rewrites (engine untouched)
  std::size_t withdrawn{0};  // prefixes removed
  std::size_t failed{0};     // withdraw of an unknown prefix, bad plen, ...
};

class RoutingTable {
 public:
  // `engine` selects the BMP plugin: "patricia" | "bsl" | "cpe".
  explicit RoutingTable(std::string_view engine = "bsl");

  netbase::Status add(const netbase::IpPrefix& prefix, NextHop hop);
  netbase::Status remove(const netbase::IpPrefix& prefix);

  // Applies a batch of adds/withdraws, then prepare()s both engines so any
  // deferred rebuild runs here — on the control path — not on the next
  // packet's lookup.
  RouteBatchResult apply_batch(const RouteOp* ops, std::size_t n);
  RouteBatchResult apply_batch(const std::vector<RouteOp>& ops) {
    return apply_batch(ops.data(), ops.size());
  }

  // Runs any deferred engine build now: a no-op unless a bsl engine was
  // never built or an update changed its set of prefix lengths.
  void prepare();

  // Longest-prefix-match route lookup.
  const NextHop* lookup(const netbase::IpAddr& dst) const;

  std::size_t size() const noexcept;

  // Diagnostics for churn tests/benches: total hop slots ever allocated and
  // how many are currently on the free list. Steady-state churn should keep
  // hop_slots() flat while free_hop_count() oscillates.
  std::size_t hop_slots() const noexcept { return hops_.size(); }
  std::size_t free_hop_count() const noexcept { return free_hops_.size(); }
  std::string_view engine_name() const { return v4_->name(); }
  const bmp::LpmEngine& engine(netbase::IpVersion v) const {
    return engine_for(v);
  }

 private:
  // add() that also reports whether the prefix was already present.
  netbase::Status add(const netbase::IpPrefix& prefix, NextHop hop,
                      bool& existed);

  bmp::LpmEngine& engine_for(netbase::IpVersion v) const {
    return v == netbase::IpVersion::v4 ? *v4_ : *v6_;
  }

  std::uint32_t alloc_hop(NextHop hop);

  std::unique_ptr<bmp::LpmEngine> v4_;
  std::unique_ptr<bmp::LpmEngine> v6_;
  std::vector<NextHop> hops_;
  std::vector<std::uint32_t> free_hops_;
};

}  // namespace rp::route
