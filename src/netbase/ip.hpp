// IPv4/IPv6 address and prefix value types.
//
// Addresses are stored in host-order integer form (IPv4 in a uint32_t, IPv6
// in a U128, both most-significant-byte-first) so that prefix masking and
// longest-prefix-match comparisons are plain integer operations.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netbase/u128.hpp"

namespace rp::netbase {

struct Ipv4Addr {
  std::uint32_t v{0};

  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t raw) : v(raw) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : v((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
          (std::uint32_t{c} << 8) | d) {}

  friend constexpr auto operator<=>(const Ipv4Addr&, const Ipv4Addr&) = default;

  std::string to_string() const;
  static std::optional<Ipv4Addr> parse(std::string_view s);
};

struct Ipv6Addr {
  U128 v{};

  constexpr Ipv6Addr() = default;
  constexpr explicit Ipv6Addr(U128 raw) : v(raw) {}

  static Ipv6Addr from_bytes(const std::uint8_t* b);
  void to_bytes(std::uint8_t* out) const;

  friend constexpr auto operator<=>(const Ipv6Addr&, const Ipv6Addr&) = default;

  std::string to_string() const;
  static std::optional<Ipv6Addr> parse(std::string_view s);
};

enum class IpVersion : std::uint8_t { v4 = 4, v6 = 6 };

// An address of either family. The 6-tuple filter machinery and LPM engines
// treat both families through this one type.
struct IpAddr {
  IpVersion ver{IpVersion::v4};
  U128 v{};  // IPv4 addresses live in the low 32 bits.

  constexpr IpAddr() = default;
  constexpr IpAddr(Ipv4Addr a) : ver(IpVersion::v4), v(std::uint64_t{a.v}) {}
  constexpr IpAddr(Ipv6Addr a) : ver(IpVersion::v6), v(a.v) {}

  constexpr unsigned width() const { return ver == IpVersion::v4 ? 32 : 128; }

  // The address as a left-aligned (MSB-first) 128-bit key: IPv4 addresses
  // are shifted into the top 32 bits so prefix masks apply uniformly.
  constexpr U128 key() const {
    return ver == IpVersion::v4 ? (v << 96) : v;
  }

  constexpr Ipv4Addr v4() const { return Ipv4Addr(static_cast<std::uint32_t>(v.lo)); }
  constexpr Ipv6Addr v6() const { return Ipv6Addr(v); }

  friend constexpr bool operator==(const IpAddr&, const IpAddr&) = default;

  std::string to_string() const;
  static std::optional<IpAddr> parse(std::string_view s);
};

// Address prefix (addr/len). `len` counts from the most significant bit;
// bits past `len` are guaranteed zero (normalized on construction).
struct IpPrefix {
  IpAddr addr{};
  std::uint8_t len{0};

  constexpr IpPrefix() = default;
  IpPrefix(IpAddr a, unsigned l);

  bool contains(const IpAddr& a) const {
    if (len == 0) return true;  // a full wildcard matches either family
    if (a.ver != addr.ver) return false;
    return (a.key() & U128::prefix_mask(len)) == addr.key();
  }
  // True if *this contains every address `other` contains.
  bool covers(const IpPrefix& other) const;

  friend bool operator==(const IpPrefix&, const IpPrefix&) = default;

  std::string to_string() const;
  // Parses "a.b.c.d/len", "a.b.c.d" (len=32), v6 equivalents, or "*" (len 0,
  // family given by `family_hint`).
  static std::optional<IpPrefix> parse(std::string_view s,
                                       IpVersion family_hint = IpVersion::v4);
};

}  // namespace rp::netbase
