// routerbench — the router's end-to-end benchmark.
//
//   routerbench --workload <cached_small|churn_newflows|sharded_multiq>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--short] [--oracle-fault] [--source-id <id>]
//               [--spans-dir <dir>]
//
// Prints diagnostic lines (host/build stamp, correctness checks, and with
// --trace 1 the per-layer ledger), then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. A misroute exits 2
// after printing the result. routerbench/METRICS.md defines every metric.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "stack.hpp"

namespace rb {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  rb::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The canonical lists; BENCHMARK.json names the same metrics.
constexpr MetricDef kEndToEnd[] = {
    {"pps", "1/s"},
    {"lat_p50_us", "us"},
    {"route_update_p50_us", "us"},
    {"filter_ops_per_s", "1/s"},
    {"upgrade_stall_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_share", "share"},
};

constexpr MetricDef kPerLayer[] = {
    {"pkt.validate_ns", "ns"},
    {"pkt.allocs_per_pkt", "count"},
    {"pkt.pool_hit_share", "share"},
    {"aiu.miss_share", "share"},
    {"aiu.classify_ns", "ns"},
    {"aiu.flow_hit_ns", "ns"},
    {"aiu.filter_batch_ns", "ns"},
    {"aiu.flows_invalidated_per_op", "count"},
    {"aiu.flows_rebound_per_upgrade", "count"},
    {"aiu.recycles_per_pkt", "count"},
    {"stats.flow_removed_ns", "ns"},
    {"route.lookup_ns", "ns"},
    {"route.apply_ns", "ns"},
    {"ctrl.overhead_ns", "ns"},
    {"core.process_ns", "ns"},
    {"core.tx_ns", "ns"},
    {"core.unattributed_ns", "ns"},
    {"core.gate_calls_per_pkt", "count"},
    {"core.group_pkts_per_call", "count"},
    {"core.fused_share", "share"},
    {"core.drops", "count"},
    {"core.pipeline_cycles", "cyc"},
    {"gate.ipopt_cycles", "cyc"},
    {"gate.ipsec_cycles", "cyc"},
    {"gate.stats_cycles", "cyc"},
    {"gate.sched_cycles", "cyc"},
    {"sched.enqueue_ns", "ns"},
    {"sched.dequeue_ns", "ns"},
    {"parallel.submit_ns", "ns"},
    {"parallel.quiesce_us", "us"},
    {"parallel.busy_share", "share"},
    {"parallel.busy_ns_per_pkt", "ns"},
    {"parallel.imbalance", "ratio"},
    {"io.rx_waits_per_pkt", "count"},
    {"io.avg_depth", "pkts"},
    {"tgen.build_ns", "ns"},
    {"tgen.late_share", "share"},
    {"tgen.late_p99_us", "us"},
    {"tgen.lat_samples", "count"},
    {"trace.overhead_share", "share"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "routerbench: %s\nusage: routerbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--short] [--oracle-fault] "
               "[--source-id <id>] [--spans-dir <dir>]\n",
               msg);
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val()) != 0;
      else if (k == "--short") a.short_mode = true;
      else if (k == "--oracle-fault") a.oracle_fault = true;
      else if (k == "--source-id") a.source_id = val();
      else if (k == "--spans-dir") a.spans_dir = val();
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 600) usage("--seconds must be in (0, 600]");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out;
}

// Host and build stamp: one line, so every result says where and from
// what it was measured.
void print_stamp(const Args& a, const std::vector<int>& allowed) {
  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"short\":%d,\"nproc\":%ld,\"cpu_model\":\"%s\",\"affinity\":\"%s\","
      "\"pinned\":\"%s\",\"compiler\":\"%s\",\"flags\":\"%s\","
      "\"source\":\"%s\"}\n",
      json_escape(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace ? 1 : 0, a.short_mode ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      cpu_list(allowed).c_str(), cpu_list(a.pin_cpus).c_str(),
      json_escape(__VERSION__).c_str(), json_escape(RB_BUILD_FLAGS).c_str(),
      json_escape(a.source_id).c_str());
}

// The per-layer ledger: core.process_ns broken into attributed rows, and
// the spans' self times.
void print_ledger(const Args& a, const Result& r) {
  auto v = [&](const char* n) {
    const auto it = r.layer.find(n);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  std::printf("ledger %s (ns per packet)\n", a.workload.c_str());
  double sum = 0;
  for (const auto& [row, ns] : r.ledger) {
    std::printf("  %-40s %12.1f\n", row.c_str(), ns);
    sum += ns;
  }
  std::printf("  %-40s %12.1f\n", "sum", sum);
  std::printf("  %-40s %12.1f\n", "core.process_ns (measured)", v("core.process_ns"));
  std::printf("  %-40s %12.1f\n", "core.tx_ns (measured)", v("core.tx_ns"));
  std::printf("  %-40s %12.4f\n", "trace.overhead_share", v("trace.overhead_share"));
  if (!r.span_self.empty()) {
    std::printf("spans %s: name, count, mean self ns, mean total ns\n",
                a.workload.c_str());
    for (const auto& s : r.span_self)
      std::printf("  %-40s %8llu %14.1f %14.1f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.mean_self_ns,
                  s.mean_total_ns);
  }
}

void print_metrics(const std::map<std::string, double>& got,
                   const MetricDef* defs, std::size_t n, std::string& out,
                   bool& complete) {
  char buf[96];
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = got.find(defs[i].name);
    double v = it == got.end() ? NAN : it->second;
    if (!std::isfinite(v)) {
      complete = false;
      v = 0;
    }
    std::snprintf(buf, sizeof buf, "%.9g", v);
    if (!out.empty()) out += ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  using namespace rb;
  Args a = parse(argc, argv);
  WorkloadSpec w;
  try {
    w = workload_spec(a.workload, a.short_mode);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  // One CPU per thread (producer + workers) when the host has them, so the
  // guest scheduler never stacks two of the benchmark's threads on one CPU
  // or migrates them mid-window.
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() >= std::size_t{w.workers} + 1 &&
      pin_this_thread(cpus.front()))
    a.pin_cpus.assign(cpus.begin(), cpus.begin() + w.workers + 1);
  print_stamp(a, cpus);
  std::fflush(stdout);

  const Result r = w.workers ? run_sharded(a, w) : run_single(a, w);

  for (const auto& n : r.notes) std::printf("%s\n", n.c_str());
  if (a.trace) print_ledger(a, r);

  std::string metrics;
  bool complete = true;
  if (a.trace)
    print_metrics(r.layer, kPerLayer, std::size(kPerLayer), metrics, complete);
  else
    print_metrics(r.e2e, kEndToEnd, std::size(kEndToEnd), metrics, complete);
  const bool correct = r.failed == 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  if (r.misroutes) {
    std::fprintf(stderr, "routerbench: %llu misroute(s)\n",
                 static_cast<unsigned long long>(r.misroutes));
    return 2;
  }
  return correct ? 0 : 1;
}
