#include "common.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "netbase/checksum.hpp"

namespace rb {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

bool pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent && s.end) child_ns[s.parent - 1] += double(s.end - s.start);
  struct Acc {
    std::uint64_t n{0};
    double self{0}, total{0};
  };
  std::map<std::string, Acc> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.end) continue;
    const double d = double(s.end - s.start);
    Acc& a = by_name[s.name];
    ++a.n;
    a.total += d;
    a.self += d - child_ns[i];
  }
  std::vector<SelfTime> out;
  for (const auto& [name, a] : by_name)
    out.push_back({name, a.n, a.self / double(a.n), a.total / double(a.n)});
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%u,\"burst\":%llu}\n",
                 i + 1, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent,
                 static_cast<unsigned long long>(s.burst));
  }
  if (dropped_)
    std::fprintf(f, "{\"dropped\":%llu}\n",
                 static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

void LpmOracle::set(const netbase::IpPrefix& p, pkt::IfIndex iface) {
  const auto a = static_cast<std::uint32_t>(p.addr.v.lo);
  by_len_[p.len].insert_or_assign(masked(a, p.len), iface);
}

void LpmOracle::erase(const netbase::IpPrefix& p) {
  const auto a = static_cast<std::uint32_t>(p.addr.v.lo);
  by_len_[p.len].erase(masked(a, p.len));
}

void LpmOracle::apply(const std::vector<route::RouteOp>& ops) {
  for (const auto& op : ops) {
    if (op.kind == route::RouteOp::Kind::add)
      set(op.prefix, op.hop.out_iface);
    else
      erase(op.prefix);
  }
}

std::optional<pkt::IfIndex> LpmOracle::lookup(std::uint32_t dst) const {
  for (int len = 32; len >= 0; --len) {
    const auto& m = by_len_[static_cast<std::size_t>(len)];
    if (m.empty()) continue;
    const auto it = m.find(masked(dst, static_cast<unsigned>(len)));
    if (it != m.end()) return it->second;
  }
  return std::nullopt;
}

namespace {

void put16(std::uint8_t* b, std::uint16_t v) {
  b[0] = static_cast<std::uint8_t>(v >> 8);
  b[1] = static_cast<std::uint8_t>(v);
}
void put32(std::uint8_t* b, std::uint32_t v) {
  put16(b, static_cast<std::uint16_t>(v >> 16));
  put16(b + 2, static_cast<std::uint16_t>(v));
}

}  // namespace

pkt::PacketPtr build_packet(const Flow& f) {
  pkt::PacketPtr p = pkt::make_packet(kPacketBytes);
  std::uint8_t* b = p->data();
  std::memset(b, 0, kPacketBytes);
  // IPv4: version 4, IHL 5, total length 64, TTL 64, protocol UDP.
  b[0] = 0x45;
  put16(b + 2, kPacketBytes);
  b[8] = 64;
  b[9] = 17;
  put32(b + 12, f.src);
  put32(b + 16, f.dst);
  put16(b + 10, netbase::checksum(b, 20));
  // UDP with checksum 0 ("none", legal for IPv4).
  put16(b + 20, f.sport);
  put16(b + 22, f.dport);
  put16(b + 24, kPacketBytes - 20);
  return p;
}

}  // namespace rb
