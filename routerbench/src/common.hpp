// Shared pieces of the router benchmark: timing, order statistics, the
// metric sink, the in-memory span log, the benchmark-side LPM oracle and the
// 64-byte packet builder. Nothing here is part of the router; every call
// into the router's modules is made from the workload runners.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/ip.hpp"
#include "pkt/packet.hpp"
#include "route/routing_table.hpp"

namespace rb {

// The benchmark names the router's modules (rp::aiu, rp::core, ...) by
// their short names.
using namespace rp;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Every operator new in the binary bumps this (main.cpp); the delta over a
// measured window divided by its packets is pkt.allocs_per_pkt.
extern std::atomic<std::uint64_t> g_allocs;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool short_mode{false};    // small tables and one set-up, for self-tests
  bool oracle_fault{false};  // corrupt one oracle entry (self-test)
  std::string source_id{"unknown"};
  std::string spans_dir{".bench_build/spans"};
  // CPUs threads are pinned to: the main (producer) thread on the first,
  // sharded worker i on the (i+1)-th. Empty = no pinning.
  std::vector<int> pin_cpus;
};

// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
// Pins the calling thread to `cpu`; false when the kernel refuses.
bool pin_this_thread(int cpu);

double median(std::vector<double> v);
// q-quantile by nearest rank of a copy of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and burst id, kept in memory and written
// out as JSON lines when the run ends. Per-burst spans are sampled (one
// burst in kBurstEvery) so long runs stay bounded; control spans are all
// kept. A full log drops further spans and counts them.

struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::uint32_t parent;  // 1-based span id, 0 = root
  std::uint64_t burst;
};

class SpanLog {
 public:
  static constexpr std::uint64_t kBurstEvery = 64;

  explicit SpanLog(bool on, std::size_t cap = 1 << 18) : on_(on), cap_(cap) {
    if (on_) spans_.reserve(cap_);
  }

  bool on() const noexcept { return on_; }
  bool sampled(std::uint64_t burst) const noexcept {
    return on_ && burst % kBurstEvery == 0;
  }
  // Returns the span id (0 when off or full).
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t burst) {
    if (!on_) return 0;
    if (spans_.size() >= cap_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({name, now_ns(), 0, parent, burst});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id) {
    if (id) spans_[id - 1].end = now_ns();
  }

  // Mean self time (duration minus the children's durations) per name.
  struct SelfTime {
    std::string name;
    std::uint64_t count;
    double mean_self_ns;
    double mean_total_ns;
  };
  std::vector<SelfTime> self_times() const;
  bool write(const std::string& path) const;

 private:
  bool on_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_{0};
};

// RAII span for control operations.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint32_t parent = 0,
             std::uint64_t burst = 0)
      : log_(log), id_(log.open(name, parent, burst)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

// What one run measured, by metric name (main.cpp owns the canonical
// metric lists and their units). `e2e` is printed with --trace 0, `layer`
// with --trace 1; `attempted`/`failed` count packets and control ops.
struct Result {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t misroutes{0};
  std::vector<std::string> notes;  // diagnostic lines printed before the JSON
  std::vector<SpanLog::SelfTime> span_self;  // trace mode
  // Trace mode: core.process_ns broken into attributed rows (ns per packet).
  std::vector<std::pair<std::string, double>> ledger;
};

// ---------------------------------------------------------------------------
// Benchmark-side IPv4 longest-prefix-match oracle that follows route churn:
// one hash map per prefix length, probed from /32 down. O(33) probes per
// lookup regardless of table size, so checking a sampled packet never scans
// the table.

class LpmOracle {
 public:
  void set(const netbase::IpPrefix& p, pkt::IfIndex iface);
  void erase(const netbase::IpPrefix& p);
  void apply(const std::vector<route::RouteOp>& ops);
  std::optional<pkt::IfIndex> lookup(std::uint32_t dst) const;

 private:
  static std::uint32_t masked(std::uint32_t a, unsigned len) {
    return len == 0 ? 0 : a & (~std::uint32_t{0} << (32 - len));
  }
  std::array<std::unordered_map<std::uint32_t, pkt::IfIndex>, 33> by_len_;
};

// ---------------------------------------------------------------------------
// Traffic: 64-byte IPv4/UDP packets written straight into a (pooled, when a
// PacketPool::Use scope is active) packet, so building a packet costs a few
// tens of ns and chunks can be rebuilt often without dominating run time.

constexpr std::size_t kPacketBytes = 64;

struct Flow {
  std::uint32_t src{0};
  std::uint32_t dst{0};
  std::uint16_t sport{0};
  std::uint16_t dport{0};
};

pkt::PacketPtr build_packet(const Flow& f);

}  // namespace rb
