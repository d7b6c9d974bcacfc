#include "netbase/ip.hpp"

#include <charconv>
#include <cstdio>
#include <vector>

namespace rp::netbase {

namespace {

bool parse_u16(std::string_view s, unsigned base, std::uint32_t max,
               std::uint32_t& out) {
  if (s.empty()) return false;
  std::uint32_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc{} || p != s.data() + s.size() || v > max) return false;
  out = v;
  return true;
}

}  // namespace

std::string Ipv4Addr::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (v >> 24) & 0xff,
                (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff);
  return buf;
}

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view s) {
  std::uint32_t parts[4];
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    std::size_t dot = (i < 3) ? s.find('.', pos) : s.size();
    if (dot == std::string_view::npos) return std::nullopt;
    if (!parse_u16(s.substr(pos, dot - pos), 10, 255, parts[i]))
      return std::nullopt;
    pos = dot + 1;
  }
  return Ipv4Addr(static_cast<std::uint8_t>(parts[0]),
                  static_cast<std::uint8_t>(parts[1]),
                  static_cast<std::uint8_t>(parts[2]),
                  static_cast<std::uint8_t>(parts[3]));
}

Ipv6Addr Ipv6Addr::from_bytes(const std::uint8_t* b) {
  U128 v;
  for (int i = 0; i < 8; ++i) v.hi = (v.hi << 8) | b[i];
  for (int i = 8; i < 16; ++i) v.lo = (v.lo << 8) | b[i];
  return Ipv6Addr(v);
}

void Ipv6Addr::to_bytes(std::uint8_t* out) const {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(v.hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i)
    out[8 + i] = static_cast<std::uint8_t>(v.lo >> (56 - 8 * i));
}

std::string Ipv6Addr::to_string() const {
  // Canonical-ish form: longest run of zero groups compressed to "::".
  std::uint16_t g[8];
  for (int i = 0; i < 4; ++i)
    g[i] = static_cast<std::uint16_t>(v.hi >> (48 - 16 * i));
  for (int i = 0; i < 4; ++i)
    g[4 + i] = static_cast<std::uint16_t>(v.lo >> (48 - 16 * i));

  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (g[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && g[j] == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  char buf[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";  // the preceding group suppressed its trailing ':'
      i += best_len;
      continue;
    }
    std::snprintf(buf, sizeof buf, "%x", g[i]);
    out += buf;
    if (++i < 8 && i != best_start) out += ':';
  }
  if (out.empty()) out = "::";
  return out;
}

std::optional<Ipv6Addr> Ipv6Addr::parse(std::string_view s) {
  // Split on "::" first.
  std::vector<std::uint16_t> head, tail;
  auto parse_groups = [](std::string_view part,
                         std::vector<std::uint16_t>& out) {
    if (part.empty()) return true;
    std::size_t pos = 0;
    while (true) {
      std::size_t colon = part.find(':', pos);
      std::string_view grp = part.substr(
          pos, colon == std::string_view::npos ? colon : colon - pos);
      std::uint32_t v = 0;
      if (!parse_u16(grp, 16, 0xffff, v)) return false;
      out.push_back(static_cast<std::uint16_t>(v));
      if (colon == std::string_view::npos) break;
      pos = colon + 1;
    }
    return true;
  };

  std::size_t dc = s.find("::");
  bool ok;
  if (dc == std::string_view::npos) {
    ok = parse_groups(s, head) && head.size() == 8;
  } else {
    ok = parse_groups(s.substr(0, dc), head) &&
         parse_groups(s.substr(dc + 2), tail) &&
         head.size() + tail.size() < 8;
  }
  if (!ok) return std::nullopt;

  std::uint16_t g[8] = {};
  for (std::size_t i = 0; i < head.size(); ++i) g[i] = head[i];
  for (std::size_t i = 0; i < tail.size(); ++i)
    g[8 - tail.size() + i] = tail[i];

  U128 v;
  for (int i = 0; i < 4; ++i) v.hi = (v.hi << 16) | g[i];
  for (int i = 0; i < 4; ++i) v.lo = (v.lo << 16) | g[4 + i];
  return Ipv6Addr(v);
}

std::string IpAddr::to_string() const {
  return ver == IpVersion::v4 ? v4().to_string() : v6().to_string();
}

std::optional<IpAddr> IpAddr::parse(std::string_view s) {
  if (s.find(':') != std::string_view::npos) {
    if (auto a = Ipv6Addr::parse(s)) return IpAddr(*a);
    return std::nullopt;
  }
  if (auto a = Ipv4Addr::parse(s)) return IpAddr(*a);
  return std::nullopt;
}

IpPrefix::IpPrefix(IpAddr a, unsigned l) : addr(a), len(static_cast<std::uint8_t>(l)) {
  if (l > a.width()) len = static_cast<std::uint8_t>(a.width());
  // Normalize: zero the bits past the prefix length.
  U128 key = a.key() & U128::prefix_mask(len);
  addr.v = a.ver == IpVersion::v4 ? (key >> 96) : key;
}

bool IpPrefix::covers(const IpPrefix& other) const {
  if (len == 0) return true;  // a full wildcard covers either family
  if (other.addr.ver != addr.ver || other.len < len) return false;
  return (other.addr.key() & U128::prefix_mask(len)) == addr.key();
}

std::string IpPrefix::to_string() const {
  return addr.to_string() + "/" + std::to_string(len);
}

std::optional<IpPrefix> IpPrefix::parse(std::string_view s,
                                        IpVersion family_hint) {
  if (s == "*") {
    IpAddr a;
    a.ver = family_hint;
    return IpPrefix(a, 0);
  }
  std::size_t slash = s.find('/');
  auto addr = IpAddr::parse(slash == std::string_view::npos
                                ? s
                                : s.substr(0, slash));
  if (!addr) return std::nullopt;
  unsigned len = addr->width();
  if (slash != std::string_view::npos) {
    std::uint32_t l = 0;
    if (!parse_u16(s.substr(slash + 1), 10, addr->width(), l))
      return std::nullopt;
    len = l;
  }
  return IpPrefix(*addr, len);
}

}  // namespace rp::netbase
