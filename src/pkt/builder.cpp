#include "pkt/builder.hpp"

#include <cassert>
#include <cstring>

#include "netbase/byteorder.hpp"
#include "netbase/checksum.hpp"

namespace rp::pkt {

using netbase::IpVersion;
using netbase::load_be16;
using netbase::store_be16;

namespace {

// One's-complement sum of the v4/v6 pseudo header.
std::uint32_t pseudo_header_sum(const Packet& p, std::uint8_t proto,
                                std::size_t l4_len) noexcept {
  std::uint32_t sum = 0;
  if (p.ip_version == IpVersion::v4) {
    std::uint8_t ph[12];
    netbase::store_be32(&ph[0], static_cast<std::uint32_t>(p.key.src.v.lo));
    netbase::store_be32(&ph[4], static_cast<std::uint32_t>(p.key.dst.v.lo));
    ph[8] = 0;
    ph[9] = proto;
    store_be16(&ph[10], static_cast<std::uint16_t>(l4_len));
    sum = netbase::checksum_partial(ph, sizeof ph);
  } else {
    std::uint8_t ph[40];
    netbase::Ipv6Addr(p.key.src.v).to_bytes(&ph[0]);
    netbase::Ipv6Addr(p.key.dst.v).to_bytes(&ph[16]);
    netbase::store_be32(&ph[32], static_cast<std::uint32_t>(l4_len));
    ph[36] = ph[37] = ph[38] = 0;
    ph[39] = proto;
    sum = netbase::checksum_partial(ph, sizeof ph);
  }
  return sum;
}

void write_ip_header(Packet& p, const netbase::IpAddr& src,
                     const netbase::IpAddr& dst, std::uint8_t proto,
                     std::uint8_t ttl, std::uint8_t tos,
                     std::size_t l4_and_payload, std::uint32_t flow_label = 0) {
  if (src.ver == IpVersion::v4) {
    Ipv4Header ip;
    ip.tos = tos;
    ip.total_len =
        static_cast<std::uint16_t>(Ipv4Header::kMinSize + l4_and_payload);
    ip.ttl = ttl;
    ip.proto = proto;
    ip.src = src.v4();
    ip.dst = dst.v4();
    ip.write(p.data());
    Ipv4Header::finalize_checksum(p.data(), Ipv4Header::kMinSize);
    p.ip_version = IpVersion::v4;
    p.l4_offset = Ipv4Header::kMinSize;
  } else {
    Ipv6Header ip;
    ip.traffic_class = tos;
    ip.flow_label = flow_label & 0xfffff;
    ip.payload_len = static_cast<std::uint16_t>(l4_and_payload);
    ip.next_header = proto;
    ip.hop_limit = ttl;
    ip.src = src.v6();
    ip.dst = dst.v6();
    ip.write(p.data());
    p.ip_version = IpVersion::v6;
    p.l4_offset = Ipv6Header::kSize;
  }
}

}  // namespace

PacketPtr build_udp(const UdpSpec& spec) {
  assert(spec.src.ver == spec.dst.ver);
  const std::size_t l3 = spec.src.ver == IpVersion::v4 ? Ipv4Header::kMinSize
                                                       : Ipv6Header::kSize;
  const std::size_t l4_len = UdpHeader::kSize + spec.payload_len;
  auto p = make_packet(l3 + l4_len);
  write_ip_header(*p, spec.src, spec.dst,
                  static_cast<std::uint8_t>(IpProto::udp), spec.ttl, spec.tos,
                  l4_len, spec.flow_label);

  UdpHeader udp;
  udp.sport = spec.sport;
  udp.dport = spec.dport;
  udp.length = static_cast<std::uint16_t>(l4_len);
  udp.write(p->data() + p->l4_offset);
  std::memset(p->data() + p->l4_offset + UdpHeader::kSize, spec.payload_fill,
              spec.payload_len);

  extract_flow_key(*p);
  store_be16(p->data() + p->l4_offset + 6, l4_checksum(*p));
  return p;
}

PacketPtr build_tcp(const TcpSpec& spec) {
  assert(spec.src.ver == spec.dst.ver);
  const std::size_t l3 = spec.src.ver == IpVersion::v4 ? Ipv4Header::kMinSize
                                                       : Ipv6Header::kSize;
  const std::size_t l4_len = TcpHeader::kMinSize + spec.payload_len;
  auto p = make_packet(l3 + l4_len);
  write_ip_header(*p, spec.src, spec.dst,
                  static_cast<std::uint8_t>(IpProto::tcp), spec.ttl, 0,
                  l4_len);

  TcpHeader tcp;
  tcp.sport = spec.sport;
  tcp.dport = spec.dport;
  tcp.seq = spec.seq;
  tcp.ack = spec.ack;
  tcp.flags = spec.flags;
  tcp.window = 65535;
  tcp.write(p->data() + p->l4_offset);
  if (spec.payload)
    std::memcpy(p->data() + p->l4_offset + TcpHeader::kMinSize, spec.payload,
                spec.payload_len);
  else
    std::memset(p->data() + p->l4_offset + TcpHeader::kMinSize, 0,
                spec.payload_len);

  extract_flow_key(*p);
  store_be16(p->data() + p->l4_offset + 16, l4_checksum(*p));
  return p;
}

PacketPtr build_udp6_hopopts(const UdpSpec& spec,
                             std::span<const std::uint8_t> options) {
  assert(spec.src.ver == IpVersion::v6);
  // Hop-by-hop header: 2 fixed bytes + options, padded to multiple of 8.
  std::size_t opt_area = 2 + options.size();
  std::size_t hbh_len = (opt_area + 7) / 8 * 8;
  const std::size_t l4_len = UdpHeader::kSize + spec.payload_len;
  auto p = make_packet(Ipv6Header::kSize + hbh_len + l4_len);

  Ipv6Header ip;
  ip.traffic_class = spec.tos;
  ip.payload_len = static_cast<std::uint16_t>(hbh_len + l4_len);
  ip.next_header = static_cast<std::uint8_t>(IpProto::hopopt);
  ip.hop_limit = spec.ttl;
  ip.src = spec.src.v6();
  ip.dst = spec.dst.v6();
  ip.write(p->data());

  std::uint8_t* hbh = p->data() + Ipv6Header::kSize;
  hbh[0] = static_cast<std::uint8_t>(IpProto::udp);
  hbh[1] = static_cast<std::uint8_t>(hbh_len / 8 - 1);
  std::memcpy(hbh + 2, options.data(), options.size());
  // Pad with Pad1 (0x00) options.
  std::memset(hbh + 2 + options.size(), 0, hbh_len - 2 - options.size());

  UdpHeader udp;
  udp.sport = spec.sport;
  udp.dport = spec.dport;
  udp.length = static_cast<std::uint16_t>(l4_len);
  udp.write(p->data() + Ipv6Header::kSize + hbh_len);
  std::memset(p->data() + Ipv6Header::kSize + hbh_len + UdpHeader::kSize,
              spec.payload_fill, spec.payload_len);

  extract_flow_key(*p);
  store_be16(p->data() + p->l4_offset + 6, l4_checksum(*p));
  return p;
}

bool extract_flow_key(Packet& p) noexcept {
  if (p.key_valid) return true;
  p.invalidate_flow_hash();
  auto b = p.bytes();
  if (b.empty()) return false;

  std::uint8_t proto = 0;
  std::size_t l4 = 0;
  std::size_t limit = 0;    // end of the L3 datagram within the capture
  bool fragmented = false;  // part of a fragment series (first or later)
  if ((b[0] >> 4) == 4) {
    Ipv4Header ip;
    if (!ip.parse(b)) return false;  // enforces total_len bounds
    p.ip_version = IpVersion::v4;
    p.key.src = netbase::IpAddr(ip.src);
    p.key.dst = netbase::IpAddr(ip.dst);
    proto = ip.proto;
    l4 = ip.header_len();
    limit = ip.total_len;
    fragmented = ip.frag_off != 0 || (ip.flags & 0x1) != 0;
    // Fragments other than the first carry no L4 header.
    if (ip.frag_off != 0) {
      p.key.proto = proto;
      p.key.sport = p.key.dport = 0;
      p.key.in_iface = p.in_iface;
      p.l4_offset = static_cast<std::uint16_t>(l4);
      p.key_valid = true;
      return true;
    }
  } else if ((b[0] >> 4) == 6) {
    Ipv6Header ip;
    if (!ip.parse(b)) return false;
    p.ip_version = IpVersion::v6;
    p.key.src = netbase::IpAddr(ip.src);
    p.key.dst = netbase::IpAddr(ip.dst);
    p.key.flow_label = ip.flow_label;
    // The ext-header walk is bounded by payload_len, not the capture: a
    // lying payload_len must not let the walk read padding bytes.
    if (Ipv6Header::kSize + std::size_t{ip.payload_len} > b.size())
      return false;
    Ipv6ExtWalk walk;
    if (!walk_ipv6_ext_headers(
            b.subspan(Ipv6Header::kSize, ip.payload_len), ip.next_header,
            walk))
      return false;
    proto = walk.l4_proto;
    l4 = Ipv6Header::kSize + walk.l4_offset;
    limit = Ipv6Header::kSize + ip.payload_len;
    fragmented = walk.has_fragment;
    // Non-first v6 fragments carry no L4 header: same treatment as v4.
    if (walk.has_fragment && walk.frag_off != 0) {
      p.key.proto = proto;
      p.key.sport = p.key.dport = 0;
      p.key.in_iface = p.in_iface;
      p.l4_offset = static_cast<std::uint16_t>(l4);
      p.key_valid = true;
      return true;
    }
  } else {
    return false;
  }

  p.key.proto = proto;
  p.key.sport = p.key.dport = 0;
  if (proto == static_cast<std::uint8_t>(IpProto::udp) ||
      proto == static_cast<std::uint8_t>(IpProto::tcp)) {
    // Fail closed: a TCP/UDP packet whose ports don't fit inside the
    // datagram is malformed, not a portless flow.
    if (l4 + 4 > limit) return false;
    p.key.sport = load_be16(&b[l4]);
    p.key.dport = load_be16(&b[l4 + 2]);
    if (!fragmented) {
      if (proto == static_cast<std::uint8_t>(IpProto::udp)) {
        // UDP length must cover its own header and fit in the datagram.
        // Fragments are exempt: the first fragment's UDP length describes
        // the reassembled datagram, not this piece.
        if (l4 + UdpHeader::kSize > limit) return false;
        const std::size_t ulen = load_be16(&b[l4 + 4]);
        if (ulen < UdpHeader::kSize || l4 + ulen > limit) return false;
      } else {
        if (l4 + TcpHeader::kMinSize > limit) return false;
        const std::size_t doff = static_cast<std::size_t>(b[l4 + 12] >> 4) * 4;
        if (doff < TcpHeader::kMinSize || l4 + doff > limit) return false;
      }
    }
  }
  p.key.in_iface = p.in_iface;
  p.l4_offset = static_cast<std::uint16_t>(l4);
  p.key_valid = true;
  return true;
}

std::uint16_t l4_checksum(const Packet& p) noexcept {
  const std::size_t l4 = p.l4_offset;
  if (l4 >= p.size()) return 0;
  const std::size_t l4_len = p.size() - l4;
  std::uint32_t sum = pseudo_header_sum(p, p.key.proto, l4_len);
  // Sum the transport header + payload with the checksum field zeroed.
  const std::uint8_t* d = p.data() + l4;
  std::size_t ck_off;
  if (p.key.proto == static_cast<std::uint8_t>(IpProto::udp)) {
    ck_off = 6;
  } else if (p.key.proto == static_cast<std::uint8_t>(IpProto::tcp)) {
    ck_off = 16;
  } else {
    return 0;
  }
  sum = netbase::checksum_partial(d, ck_off, sum);
  sum = netbase::checksum_partial(d + ck_off + 2, l4_len - ck_off - 2, sum);
  std::uint16_t result = static_cast<std::uint16_t>(~sum);
  return result == 0 ? 0xffff : result;
}

}  // namespace rp::pkt
