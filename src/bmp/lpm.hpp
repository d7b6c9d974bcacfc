// Best-matching-prefix (BMP) engine interface.
//
// The paper treats BMP lookup itself as a plugin type: the DAG classifier's
// address levels call into whichever BMP plugin is configured (Section 5.1.1
// — "the matching function itself ... is implemented as a plugin"). All
// engines work on left-aligned 128-bit keys so one implementation serves
// IPv4 (width 32) and IPv6 (width 128).
//
// Engines call netbase::MemAccess::count() at every dependent memory access
// (node hop / hash probe) so benches can reproduce the paper's Table 2
// memory-access accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "netbase/status.hpp"
#include "netbase/u128.hpp"

namespace rp::bmp {

using netbase::Status;
using netbase::U128;

// Value associated with a prefix (opaque to the engine; the classifier
// stores edge ids, the routing table stores next-hop ids).
using LpmValue = std::uint32_t;

struct LpmMatch {
  LpmValue value{0};
  std::uint8_t plen{0};
};

class LpmEngine {
 public:
  virtual ~LpmEngine() = default;

  // Key is left-aligned: bit 0 of the prefix is the MSB of `key`.
  virtual Status insert(U128 key, std::uint8_t plen, LpmValue value) = 0;
  virtual Status remove(U128 key, std::uint8_t plen) = 0;

  // Longest matching prefix for `key`; false if none matches.
  virtual bool lookup(U128 key, LpmMatch& out) const = 0;

  // Exact match: the value stored for (key, plen), host bits of `key`
  // ignored; false if that prefix is absent. Answered from the engine's
  // own prefix store, so callers keep no second copy of the prefix set.
  virtual bool find(U128 key, std::uint8_t plen, LpmValue& out) const = 0;

  // Run any deferred build now, on the control path, so the next lookup
  // pays nothing. Engines that apply every update in place keep the
  // default no-op. bsl overrides it: it updates in place while its set of
  // prefix lengths stays the same, and defers a full build to its next
  // lookup when that set changes or it was never built.
  // RoutingTable::apply_batch calls it, and so does the DAG classifier for
  // every node engine its build or its in-place ops create or change.
  virtual void prepare() {}

  virtual std::string_view name() const = 0;
  virtual unsigned width() const = 0;
  virtual std::size_t size() const = 0;
};

// Engines registered by name: "patricia", "bsl" (binary search on prefix
// lengths), "cpe" (controlled prefix expansion). Returns nullptr for an
// unknown name. `width` is 32 or 128.
std::unique_ptr<LpmEngine> make_lpm_engine(std::string_view name,
                                           unsigned width);

}  // namespace rp::bmp
