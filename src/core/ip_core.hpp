// The IPv4/IPv6 core (Section 3.1): the streamlined, stable part of the
// networking subsystem. It interacts with the (simulated) devices, parses
// and validates headers, decrements TTL/hop-limit with an incremental
// checksum update, consults the routing table — and at each extension point
// runs a *gate* that branches to whatever plugin instance the AIU resolves
// for the packet's flow (Section 3.2).
//
// Gates in the current core mirror the paper's: IPv6 option processing,
// IP security, and packet scheduling, plus the routing/L4-switching gate
// (paper §8) and optional stats/congestion/firewall gates. The set and
// order of pre-routing gates is configurable.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aiu/aiu.hpp"
#include "core/datapath.hpp"
#include "core/scheduler_base.hpp"
#include "netdev/iftable.hpp"
#include "pkt/sanitize.hpp"
#include "route/routing_table.hpp"
#include "telemetry/telemetry.hpp"

namespace rp::resilience {
class Supervisor;
}

namespace rp::core {

enum class DropReason : std::uint8_t {
  none = 0,
  malformed,
  bad_checksum,
  ttl_expired,
  no_route,
  policy,        // gate plugin returned Verdict::drop
  queue_full,    // scheduler refused the packet
  too_big,       // exceeds the output MTU and cannot be fragmented
  plugin_fault,  // resilience containment: fault/bypass at a fail-closed gate
  kCount,
};

constexpr std::string_view to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::none: return "none";
    case DropReason::malformed: return "malformed";
    case DropReason::bad_checksum: return "bad_checksum";
    case DropReason::ttl_expired: return "ttl_expired";
    case DropReason::no_route: return "no_route";
    case DropReason::policy: return "policy";
    case DropReason::queue_full: return "queue_full";
    case DropReason::too_big: return "too_big";
    case DropReason::plugin_fault: return "plugin_fault";
    case DropReason::kCount: break;
  }
  return "unknown";
}

struct CoreConfig {
  // Ingress sanitization (pkt/sanitize.hpp): canonical validation of every
  // length field and chain before classification. On by default; the off
  // switch exists for measuring its cost, not for production use. IPv4
  // header checksum verification and the TTL/hop-limit check and decrement
  // always run.
  bool sanitize{true};
  bool emit_icmp_errors{false};
  // Gates run before the route lookup, in order. The routing gate runs with
  // the route lookup and the sched gate at output; they need not be listed.
  // The l7 gate (stateful stream inspection, src/l7/) sits after the policy
  // gates so only admitted traffic is reassembled; unbound it costs one
  // bound_mask bit test per chunk (bench_t10_l7 holds it to <= 2% on T3).
  std::vector<plugin::PluginType> input_gates{
      plugin::PluginType::ipopt, plugin::PluginType::ipsec,
      plugin::PluginType::firewall, plugin::PluginType::l7,
      plugin::PluginType::congestion, plugin::PluginType::stats};
  std::size_t port_fifo_limit{1024};  // default per-port FIFO depth
};

struct CoreCounters {
  std::uint64_t received{0};
  std::uint64_t forwarded{0};  // handed to an output port
  std::uint64_t drops[static_cast<std::size_t>(DropReason::kCount)]{};
  std::uint64_t gate_calls{0};
  std::uint64_t icmp_errors_sent{0};
  std::uint64_t fragments_created{0};
  std::uint64_t bursts{0};         // process_burst chunks entered
  std::uint64_t burst_packets{0};  // packets entering via those chunks
  // Grouped (batch-native) gate dispatch. A "group" is one handle_burst
  // call: all packets of a chunk that resolved to the same instance at one
  // gate, in arrival order (batched scheduler enqueues count too).
  // gate_calls above still counts per packet-dispatch, so its meaning —
  // and the breaker windows anchored to it — is unchanged.
  std::uint64_t gate_groups{0};
  std::uint64_t gate_group_pkts{0};
  // Chunks with two or more survivors, the ones with something to group
  // (every chunk runs the one engine; a lone survivor dispatches per
  // packet). The name predates the engine's single form; routerbench reads
  // it as core.fused_share.
  std::uint64_t fused_bursts{0};
  // Group-size histogram: 1, 2, 3-4, 5-8, 9-16, 17+ packets per group.
  static constexpr std::size_t kGroupHistBuckets = 6;
  std::uint64_t group_size_hist[kGroupHistBuckets]{};
  static constexpr std::size_t group_hist_bucket(std::size_t n) noexcept {
    return n <= 1 ? 0 : n == 2 ? 1 : n <= 4 ? 2 : n <= 8 ? 3 : n <= 16 ? 4 : 5;
  }
  static constexpr std::string_view group_hist_label(std::size_t b) noexcept {
    constexpr std::string_view labels[kGroupHistBuckets] = {
        "1", "2", "3-4", "5-8", "9-16", "17+"};
    return labels[b];
  }
  // Per-check ingress sanitization drops (indexed by pkt::SanitizeCheck;
  // slot 0 / "ok" stays zero) plus packets whose capture padding was
  // trimmed. Sanitize drops are double-counted into drops[malformed] so
  // total_drops() keeps meaning "every packet that went nowhere".
  std::uint64_t sanitize_drops[static_cast<std::size_t>(
      pkt::SanitizeCheck::kCount)]{};
  std::uint64_t sanitize_trimmed{0};

  std::uint64_t dropped(DropReason r) const noexcept {
    return drops[static_cast<std::size_t>(r)];
  }
  std::uint64_t sanitize_dropped(pkt::SanitizeCheck c) const noexcept {
    return sanitize_drops[static_cast<std::size_t>(c)];
  }
  std::uint64_t total_sanitize_drops() const noexcept {
    std::uint64_t n = 0;
    for (auto d : sanitize_drops) n += d;
    return n;
  }
  std::uint64_t total_drops() const noexcept {
    std::uint64_t n = 0;
    for (auto d : drops) n += d;
    return n;
  }

  // Field-wise sum: merges per-stack counters into one router-wide view.
  // A field added above must be added here too (the CoreCounters unit test
  // checks that every 64-bit word is summed).
  CoreCounters& operator+=(const CoreCounters& o) noexcept {
    received += o.received;
    forwarded += o.forwarded;
    for (std::size_t i = 0; i < std::size(drops); ++i) drops[i] += o.drops[i];
    gate_calls += o.gate_calls;
    icmp_errors_sent += o.icmp_errors_sent;
    fragments_created += o.fragments_created;
    bursts += o.bursts;
    burst_packets += o.burst_packets;
    gate_groups += o.gate_groups;
    gate_group_pkts += o.gate_group_pkts;
    fused_bursts += o.fused_bursts;
    for (std::size_t i = 0; i < kGroupHistBuckets; ++i)
      group_size_hist[i] += o.group_size_hist[i];
    for (std::size_t i = 0; i < std::size(sanitize_drops); ++i)
      sanitize_drops[i] += o.sanitize_drops[i];
    sanitize_trimmed += o.sanitize_trimmed;
    return *this;
  }
};

class IpCore final : public DataPath {
 public:
  IpCore(aiu::Aiu& aiu, route::RoutingTable& routes,
         netdev::InterfaceTable& ifs, netbase::SimClock& clock);
  IpCore(aiu::Aiu& aiu, route::RoutingTable& routes,
         netdev::InterfaceTable& ifs, netbase::SimClock& clock,
         CoreConfig cfg);

  // Full EISR input path for one received packet; ends with the packet
  // dropped or queued on an output port (scheduler or port FIFO).
  // Implemented as a burst of one so the two entry points cannot diverge.
  void process(pkt::PacketPtr p) override;

  // Batched input path, in chunks of Aiu::kMaxBurst: validates the whole
  // chunk, resolves every survivor's flow index in one AIU pass (hash-once +
  // bucket/record prefetch + last-flow memo), then hands the survivors to
  // the one gate engine: at each gate they are grouped by instance and each
  // group is one handle_burst call. A lone survivor (process(), paced
  // traffic) has nothing to group: each of its gates is one handle_packet
  // call and its output is enqueued in place. Gate order, verdicts, drops,
  // fragmentation, egress order and counters match feeding the same packets
  // one at a time through process(), with the flow cache on or off, except
  // that a chunk validates before it forwards: its time-exceeded ICMP errors
  // leave ahead of the unreachable and frag-needed errors its tail emits.
  void process_burst(std::span<pkt::PacketPtr> batch) override;

  // Output side, driven by the router kernel when a link goes idle: the
  // port FIFO (control/unscheduled traffic) drains ahead of the scheduler.
  pkt::PacketPtr next_for_tx(pkt::IfIndex iface, netbase::SimTime now) override;
  bool tx_backlog(pkt::IfIndex iface) const override;

  // Earliest future time the port's scheduler may release a packet after
  // next_for_tx returned null while backlogged (non-work-conserving
  // disciplines); -1 if none.
  netbase::SimTime next_tx_wakeup(pkt::IfIndex iface, netbase::SimTime now);

  // Attach a scheduler instance to an output port (pmgr does this after
  // create_instance; per-interface scheduler selection as in §6).
  void set_port_scheduler(pkt::IfIndex iface, OutputScheduler* sched);
  OutputScheduler* port_scheduler(pkt::IfIndex iface);
  // Clears any port still pointing at `inst` (run from the PCU purge hook
  // so freeing an attached scheduler cannot leave a dangling pointer).
  void detach_scheduler(const plugin::PluginInstance* inst) {
    for (auto& pt : ports_)
      if (pt.sched == inst) pt.sched = nullptr;
  }

  const CoreCounters& counters() const noexcept { return counters_; }
  // Resets every CoreCounters field — received/forwarded/drops AND the
  // derived-rate counters (gate_calls, bursts, burst_packets, the grouped
  // dispatch stats) — so a measurement window started after reset is
  // consistent across the process() and process_burst() entry points.
  void reset_counters() noexcept { counters_ = CoreCounters{}; }
  CoreConfig& config() noexcept { return cfg_; }

  // Attach the telemetry subsystem (histograms + sampled tracing recorded
  // around gate dispatch). Null detaches; with RP_TELEMETRY=0 the
  // instrumentation is compiled out and this is inert.
  void set_telemetry(telemetry::Telemetry* t) noexcept { tel_ = t; }
  telemetry::Telemetry* telemetry_sink() const noexcept { return tel_; }

  // Attach the resilience supervisor: gate dispatch then runs through its
  // guard (exception containment, verdict validation, cycle budgets, circuit
  // breakers, fallback policies). Null detaches — plugins run bare, exactly
  // the pre-resilience code path.
  // Attaches the supervisor and points its breaker-window clock at this
  // core's gate-dispatch counter (defined in ip_core.cpp: Supervisor is
  // only forward-declared here).
  void set_resilience(resilience::Supervisor* s) noexcept;
  resilience::Supervisor* resilience_sink() const noexcept { return res_; }

 private:
  struct Port {
    OutputScheduler* sched{nullptr};
    std::deque<pkt::PacketPtr> fifo;
  };

  // Stage 1 of the input path: sanitize, parse the flow key, verify the
  // IPv4 header checksum, check TTL/hop limit. With cfg_.sanitize on it
  // tries pkt::accept_common_ipv4 first, which accepts the common IPv4
  // shape in one pass; every other packet, and every would-fail one, takes
  // the generic checks. This function owns the counting either way. On
  // failure the packet is dropped (slot nulled) and false returned.
  bool validate(pkt::PacketPtr& p);
  // Single-entry forwarding memo, valid for one chunk: a flow's
  // back-to-back packets share destination and output interface, so the
  // route lookup and interface resolve hit here instead of the tables.
  // Safe because RoutingTable::lookup is const and nothing mutates routes
  // or interfaces mid-chunk (ICMP re-entry only emits packets).
  struct FwdMemo {
    netbase::IpAddr dst{};
    const route::NextHop* hop{nullptr};
    bool dst_valid{false};
    pkt::IfIndex oif{0};
    netdev::SimNic* nic{nullptr};
    // Output-FIFO port memo for the tail's untraced fast path.
    pkt::IfIndex fifo_oif{0};
    Port* fifo_port{nullptr};
  };
  // Raw storage for one packet's copy of a no-cache binding (see
  // uncached_binding); no initializer, so a chunk that copies nothing pays
  // nothing for its array.
  struct BindingSlot {
    alignas(aiu::GateBinding) unsigned char raw[sizeof(aiu::GateBinding)];
  };
  // The per-packet tail of the engine: routing gate, route lookup, TTL
  // decrement, MTU/fragmentation. `emit(p, sched_binding, tr, t_start)`
  // receives each output-bound packet (fragments individually). `frp` is
  // the packet's flow record, looked up when its tail starts; null without
  // the flow cache, when the routing and sched bindings are copied into
  // `nc`. SkipGates is set when the chunk's flow records prove the routing
  // and sched gates unbound for every packet, eliding both lookups.
  template <bool Traced, bool SkipGates, class Emit>
  void finish_packet(pkt::PacketPtr p, telemetry::TraceRecord* tr,
                     std::uint64_t t_start, FwdMemo& memo,
                     aiu::FlowRecord* frp, BindingSlot& nc, Emit&& emit);
  // The binding of a packet with no flow record (the no-cache ablation):
  // Aiu::gate_lookup hands every such packet one shared scratch binding, so
  // the engine keeps a per-packet copy in `slot` — a chunk's bindings are
  // live together. Null when the packet is unparseable.
  aiu::GateBinding* uncached_binding(pkt::Packet& p, plugin::PluginType gate,
                                     BindingSlot& slot);

  // Deferred output op: one packet ready to enqueue, with the sched-gate
  // binding it resolved and its trace state. A chunk's ops flush in order,
  // batching maximal consecutive same-scheduler runs via enqueue_burst.
  struct OutOp {
    pkt::PacketPtr p;
    aiu::GateBinding* b;
    telemetry::TraceRecord* tr;
    std::uint64_t t_start;
  };
  struct OutOpList {
    static constexpr std::size_t kCap = 2 * aiu::Aiu::kMaxBurst;
    OutOp ops[kCap];
    std::size_t n{0};
  };
  // The gate engine (stage 3 of the input path): runs cfg_.input_gates
  // group-at-a-time over a chunk's validated, resolved survivors (`slots`
  // point at the owning PacketPtrs, arrival order), then the per-packet
  // tail, then flushes the output ops. Traced is set when the chunk holds a
  // telemetry-sampled packet (`tr`/`t0`: per-survivor trace record, null if
  // unsampled, and start cycle); both instantiations share one body, and
  // the untraced one carries no trace code.
  template <bool Traced>
  void process_chunk_grouped(pkt::PacketPtr** slots, std::size_t n,
                             telemetry::TraceRecord* const* tr,
                             const std::uint64_t* t0);
  void flush_output_ops();

  void drop(pkt::PacketPtr p, DropReason r);
  void emit_icmp_error(const pkt::Packet& orig, std::uint8_t type,
                       std::uint8_t code);
  // ICMPv6 (RFC 4443) errors: time exceeded (3/0), packet too big (2/0 with
  // the next-hop MTU in the message body).
  void emit_icmpv6_error(const pkt::Packet& orig, std::uint8_t type,
                         std::uint8_t code, std::uint32_t param);
  // RFC 791 fragmentation toward an output MTU; returns the fragments (the
  // original is consumed). Empty on DF or malformed input.
  std::vector<pkt::PacketPtr> fragment_ipv4(pkt::PacketPtr p, std::size_t mtu);
  template <bool Traced>
  void enqueue_output(pkt::PacketPtr p, aiu::GateBinding* b,
                      telemetry::TraceRecord* tr, std::uint64_t t_start);
  Port& port(pkt::IfIndex iface);

  aiu::Aiu& aiu_;
  route::RoutingTable& routes_;
  netdev::InterfaceTable& ifs_;
  netbase::SimClock& clock_;
  CoreConfig cfg_{};
  // deque: resize never relocates existing Ports (their FIFOs are move-only)
  std::deque<Port> ports_;
  CoreCounters counters_;
  telemetry::Telemetry* tel_{nullptr};
  resilience::Supervisor* res_{nullptr};
  // Nesting depth of process_burst (ICMP errors re-enter via process);
  // deferred breaker rebinds apply only when the outermost burst ends.
  unsigned burst_depth_{0};
  // The output ops the current chunk has deferred. emit_icmp_error flushes
  // them before re-entering process(), so an error datagram can never
  // overtake a packet forwarded before it, and a nested chunk always starts
  // on an empty list.
  OutOpList ops_;
};

}  // namespace rp::core
