// Ingress sanitization: canonical validation of untrusted wire bytes before
// the packet reaches classification or any plugin. Every check has its own
// counter slot so telemetry can say *which* invariant adversarial traffic is
// probing (see docs/wire_hardening.md for the threat model).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "netbase/byteorder.hpp"
#include "pkt/headers.hpp"
#include "pkt/packet.hpp"

namespace rp::pkt {

// One slot per validation rule. Order is stable: counters are exported by
// index (CoreCounters::sanitize_drops, pmgr `sanitize`).
enum class SanitizeCheck : std::uint8_t {
  ok = 0,
  runt,            // empty / too short to carry a version nibble
  bad_version,     // version nibble is neither 4 nor 6
  v4_header,       // capture < 20B, IHL < 5, or options run past capture
  v4_total_len,    // total_len < header or > capture (length-field lie)
  v4_frag_range,   // fragment's reassembled end would pass 64KiB
  l4_tcp,          // TCP data offset < 5 or header past the datagram end
  l4_udp,          // UDP length < 8 or past the datagram end
  v6_header,       // capture < 40B
  v6_payload_len,  // payload_len claims more bytes than were captured
  v6_ext_chain,    // ext-header chain truncated, looping, or too deep
  kCount
};

std::string_view to_string(SanitizeCheck c) noexcept;

// Validates `p` against every check above. Returns SanitizeCheck::ok and
// canonicalizes the packet (trailing capture padding beyond the L3 datagram
// length is trimmed, `trimmed` set) on success; returns the first failing
// check otherwise, leaving the packet untouched. L4 length checks apply only
// to unfragmented datagrams — a first fragment's UDP length legitimately
// describes the reassembled datagram, not the piece in hand.
SanitizeCheck sanitize_packet(Packet& p, bool& trimmed) noexcept;

inline SanitizeCheck sanitize_packet(Packet& p) noexcept {
  bool trimmed = false;
  return sanitize_packet(p, trimmed);
}

// Single-pass check for the common shape: IPv4 without options, not a
// fragment, TCP or UDP, good header checksum, TTL above 1. One set of header
// loads feeds the checksum and every length check. Returns true only for a
// packet that sanitize_packet, extract_flow_key, Ipv4Header::verify_checksum
// and the forwarding TTL check would all accept, and then applies exactly
// their side effects: the capture padding trim (`trimmed` set) and the flow
// key fill. Anything else returns false with the packet untouched, and the
// caller runs those generic checks, which own every drop. Forced inline: it
// runs once per received packet, and GCC otherwise keeps it out of line in
// a caller as large as IpCore::validate, a second call per packet.
[[gnu::always_inline]] inline bool accept_common_ipv4(Packet& p,
                                                      bool& trimmed) noexcept {
  using netbase::load_be16;
  const auto b = p.bytes();
  if (b.size() < 28 || b[0] != 0x45) return false;
  const std::uint8_t* h = b.data();
  // RFC 1071 sum over the 20-byte header in three wide loads. The one's-
  // complement sum is byte-order independent up to a final swap, so the
  // verdict is identical to summing big-endian 16-bit words.
  std::uint64_t q0, q1;
  std::uint32_t q2;
  std::memcpy(&q0, h, 8);
  std::memcpy(&q1, h + 8, 8);
  std::memcpy(&q2, h + 16, 4);
  const unsigned __int128 acc = static_cast<unsigned __int128>(q0) + q1 + q2;
  std::uint64_t sum =
      static_cast<std::uint64_t>(acc) + static_cast<std::uint64_t>(acc >> 64);
  sum += sum < static_cast<std::uint64_t>(acc);  // end-around carry
  sum = (sum & 0xffffffff) + (sum >> 32);
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  if constexpr (std::endian::native == std::endian::little)
    sum = ((sum & 0xff) << 8) | (sum >> 8);
  const std::size_t total_len = load_be16(&h[2]);
  if (total_len > b.size() || (load_be16(&h[6]) & 0x3fff) != 0) return false;
  const std::uint8_t proto = h[9];
  if (proto == static_cast<std::uint8_t>(IpProto::udp)) {
    if (total_len < 20 + UdpHeader::kSize) return false;
    const std::size_t ulen = load_be16(&h[24]);
    if (ulen < UdpHeader::kSize || 20 + ulen > total_len) return false;
  } else if (proto == static_cast<std::uint8_t>(IpProto::tcp)) {
    if (total_len < 20 + TcpHeader::kMinSize) return false;
    const std::size_t doff = static_cast<std::size_t>(h[32] >> 4) * 4;
    if (doff < TcpHeader::kMinSize || 20 + doff > total_len) return false;
  } else {
    return false;
  }
  if (sum != 0xffff || h[8] <= 1) return false;

  trimmed = b.size() > total_len;
  if (trimmed) p.trim(b.size() - total_len);
  if (!p.key_valid) {
    p.invalidate_flow_hash();
    p.ip_version = netbase::IpVersion::v4;
    p.key.src = netbase::IpAddr(netbase::Ipv4Addr(netbase::load_be32(&h[12])));
    p.key.dst = netbase::IpAddr(netbase::Ipv4Addr(netbase::load_be32(&h[16])));
    p.key.proto = proto;
    p.key.sport = load_be16(&h[20]);
    p.key.dport = load_be16(&h[22]);
    p.key.in_iface = p.in_iface;
    p.l4_offset = 20;
    p.key_valid = true;
  }
  return true;
}

}  // namespace rp::pkt
