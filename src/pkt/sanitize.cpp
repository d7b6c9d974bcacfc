#include "pkt/sanitize.hpp"

#include "netbase/byteorder.hpp"
#include "pkt/headers.hpp"

namespace rp::pkt {

using netbase::load_be16;

namespace {

// L4 sanity for an unfragmented datagram: `l4` is the transport offset,
// `limit` the end of the L3 datagram (both within the capture).
SanitizeCheck check_l4(std::span<const std::uint8_t> b, std::uint8_t proto,
                       std::size_t l4, std::size_t limit) noexcept {
  if (proto == static_cast<std::uint8_t>(IpProto::tcp)) {
    if (l4 + TcpHeader::kMinSize > limit) return SanitizeCheck::l4_tcp;
    const std::size_t doff = static_cast<std::size_t>(b[l4 + 12] >> 4) * 4;
    if (doff < TcpHeader::kMinSize || l4 + doff > limit)
      return SanitizeCheck::l4_tcp;
  } else if (proto == static_cast<std::uint8_t>(IpProto::udp)) {
    if (l4 + UdpHeader::kSize > limit) return SanitizeCheck::l4_udp;
    const std::size_t ulen = load_be16(&b[l4 + 4]);
    if (ulen < UdpHeader::kSize || l4 + ulen > limit)
      return SanitizeCheck::l4_udp;
  }
  return SanitizeCheck::ok;
}

}  // namespace

std::string_view to_string(SanitizeCheck c) noexcept {
  switch (c) {
    case SanitizeCheck::ok: return "ok";
    case SanitizeCheck::runt: return "runt";
    case SanitizeCheck::bad_version: return "bad-version";
    case SanitizeCheck::v4_header: return "v4-header";
    case SanitizeCheck::v4_total_len: return "v4-total-len";
    case SanitizeCheck::v4_frag_range: return "v4-frag-range";
    case SanitizeCheck::l4_tcp: return "l4-tcp";
    case SanitizeCheck::l4_udp: return "l4-udp";
    case SanitizeCheck::v6_header: return "v6-header";
    case SanitizeCheck::v6_payload_len: return "v6-payload-len";
    case SanitizeCheck::v6_ext_chain: return "v6-ext-chain";
    case SanitizeCheck::kCount: break;
  }
  return "?";
}

SanitizeCheck sanitize_packet(Packet& p, bool& trimmed) noexcept {
  trimmed = false;
  auto b = p.bytes();
  if (b.empty()) return SanitizeCheck::runt;

  std::size_t datagram_len = 0;
  const unsigned ver = b[0] >> 4;
  if (ver == 4) {
    if (b.size() < Ipv4Header::kMinSize) return SanitizeCheck::v4_header;
    const std::size_t hlen = static_cast<std::size_t>(b[0] & 0x0f) * 4;
    if (hlen < Ipv4Header::kMinSize || hlen > b.size())
      return SanitizeCheck::v4_header;
    const std::size_t total_len = load_be16(&b[2]);
    if (total_len < hlen || total_len > b.size())
      return SanitizeCheck::v4_total_len;
    const std::uint16_t ff = load_be16(&b[6]);
    const std::size_t frag_off = std::size_t{ff} & 0x1fff;
    const bool more = (ff & 0x2000) != 0;
    if (frag_off != 0 || more) {
      // The reassembled datagram must still fit a 16-bit total length.
      if (hlen + frag_off * 8 + (total_len - hlen) > 65535)
        return SanitizeCheck::v4_frag_range;
    } else {
      auto c = check_l4(b, b[9], hlen, total_len);
      if (c != SanitizeCheck::ok) return c;
    }
    datagram_len = total_len;
  } else if (ver == 6) {
    if (b.size() < Ipv6Header::kSize) return SanitizeCheck::v6_header;
    const std::size_t payload_len = load_be16(&b[4]);
    if (Ipv6Header::kSize + payload_len > b.size())
      return SanitizeCheck::v6_payload_len;
    Ipv6ExtWalk walk;
    if (!walk_ipv6_ext_headers(
            b.subspan(Ipv6Header::kSize, payload_len), b[6], walk))
      return SanitizeCheck::v6_ext_chain;
    datagram_len = Ipv6Header::kSize + payload_len;
    if (!walk.has_fragment) {
      auto c = check_l4(b, walk.l4_proto, Ipv6Header::kSize + walk.l4_offset,
                        datagram_len);
      if (c != SanitizeCheck::ok) return c;
    }
  } else {
    return SanitizeCheck::bad_version;
  }

  // Canonicalize: drop capture padding (e.g. Ethernet minimum-frame pad)
  // beyond the L3 datagram so every later stage sees exactly the datagram.
  if (b.size() > datagram_len) {
    p.trim(b.size() - datagram_len);
    trimmed = true;
  }
  return SanitizeCheck::ok;
}

}  // namespace rp::pkt
