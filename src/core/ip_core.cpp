#include "core/ip_core.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "netbase/byteorder.hpp"
#include "netbase/checksum.hpp"
#include "pkt/builder.hpp"
#include "pkt/headers.hpp"
#include "resilience/resilience.hpp"

namespace rp::core {

using netbase::IpVersion;
using plugin::PluginType;
using plugin::Verdict;

IpCore::IpCore(aiu::Aiu& aiu, route::RoutingTable& routes,
               netdev::InterfaceTable& ifs, netbase::SimClock& clock)
    : IpCore(aiu, routes, ifs, clock, CoreConfig{}) {}

IpCore::IpCore(aiu::Aiu& aiu, route::RoutingTable& routes,
               netdev::InterfaceTable& ifs, netbase::SimClock& clock,
               CoreConfig cfg)
    : aiu_(aiu), routes_(routes), ifs_(ifs), clock_(clock),
      cfg_(std::move(cfg)) {}

void IpCore::set_resilience(resilience::Supervisor* s) noexcept {
  res_ = s;
  // Breaker error windows are measured against this core's dispatch
  // counter, so the supervisor's hot path never has to count invocations.
  if (s) s->set_invocation_clock(&counters_.gate_calls);
}

IpCore::Port& IpCore::port(pkt::IfIndex iface) {
  if (ports_.size() <= iface) ports_.resize(std::size_t{iface} + 1);
  return ports_[iface];
}

void IpCore::drop(pkt::PacketPtr p, DropReason r) {
  (void)p;  // ownership ends here (mbuf free)
  ++counters_.drops[static_cast<std::size_t>(r)];
}

void IpCore::process(pkt::PacketPtr p) {
  process_burst({&p, 1});
}

void IpCore::process_burst(std::span<pkt::PacketPtr> batch) {
  ++burst_depth_;
  pkt::Packet* live[aiu::Aiu::kMaxBurst];
  pkt::PacketPtr* slots[aiu::Aiu::kMaxBurst];
  for (std::size_t base = 0; base < batch.size();
       base += aiu::Aiu::kMaxBurst) {
    auto chunk = batch.subspan(
        base, std::min(aiu::Aiu::kMaxBurst, batch.size() - base));
    ++counters_.bursts;
    counters_.burst_packets += chunk.size();

    // Warm every header line before the validation loop reads it: the
    // buffers were DMA'd (or, in the harness, built) long enough ago that
    // first touch is typically an L3 round-trip, and issuing the whole
    // chunk's loads up front overlaps those misses instead of serializing
    // them through the validators.
    for (auto& p : chunk)
      if (p) __builtin_prefetch(p->data());

    // Stage 1: header validation for the whole chunk (drops fall out here).
    std::size_t n_live = 0;
    for (auto& p : chunk)
      if (p && validate(p)) {
        slots[n_live] = &p;
        live[n_live++] = p.get();
      }
    if (n_live == 0) continue;

    // Stage 2: one AIU pass resolves every survivor's flow index with
    // precomputed hashes and flow-table prefetch.
    aiu_.resolve_flows_burst({live, n_live});

    // Stage 3: the gate engine; a lone survivor dispatches per packet there.
    // Telemetry samples one packet in N here, one tick per packet in
    // arrival order; a chunk holding a sampled packet takes the traced
    // instantiation, every other chunk runs with no trace checks at all.
    if (n_live > 1) ++counters_.fused_bursts;
#if RP_TELEMETRY
    if (tel_) {
      telemetry::TraceRecord* tr[aiu::Aiu::kMaxBurst];
      std::uint64_t t0[aiu::Aiu::kMaxBurst];
      bool traced = false;
      for (std::size_t i = 0; i < n_live; ++i) {
        tr[i] = tel_->sample_tick() ? tel_->trace_begin(*live[i]) : nullptr;
        t0[i] = tr[i] ? telemetry::cycles() : 0;
        traced |= tr[i] != nullptr;
      }
      if (traced) [[unlikely]] {
        process_chunk_grouped<true>(slots, n_live, tr, t0);
        continue;
      }
    }
#endif
    process_chunk_grouped<false>(slots, n_live, nullptr, nullptr);
  }
  // Apply deferred breaker rebinds only at the outermost burst boundary:
  // ICMP errors re-enter via process(), and purging flow entries while
  // their GateBindings are live would dangle pointers.
  if (--burst_depth_ == 0 && res_) res_->end_of_burst();
}

bool IpCore::validate(pkt::PacketPtr& p) {
  ++counters_.received;

  // ---- ingress sanitization (stable core code, not a plugin) ----
  // Every untrusted length field and chain is checked before the packet can
  // reach classification or any plugin; the per-check counter says which
  // invariant adversarial traffic is probing (docs/wire_hardening.md).
  if (cfg_.sanitize) {
    bool trimmed = false;
    // The common IPv4 shape passes every check below in one pass; anything
    // else, including every packet a check would drop, falls through.
    if (pkt::accept_common_ipv4(*p, trimmed)) [[likely]] {
      if (trimmed) ++counters_.sanitize_trimmed;
      return true;
    }
    const auto check = pkt::sanitize_packet(*p, trimmed);
    if (check != pkt::SanitizeCheck::ok) {
      ++counters_.sanitize_drops[static_cast<std::size_t>(check)];
      drop(std::move(p), DropReason::malformed);
      return false;
    }
    if (trimmed) ++counters_.sanitize_trimmed;
  }

  // ---- header validation ----
  if (!pkt::extract_flow_key(*p)) {
    drop(std::move(p), DropReason::malformed);
    return false;
  }

  std::uint8_t* h = p->data();
  if (p->ip_version == IpVersion::v4) {
    const std::size_t hlen = std::size_t{static_cast<std::size_t>(h[0] & 0x0f)} * 4;
    if (!pkt::Ipv4Header::verify_checksum({h, hlen})) {
      drop(std::move(p), DropReason::bad_checksum);
      return false;
    }
    if (h[8] <= 1) {
      if (cfg_.emit_icmp_errors) emit_icmp_error(*p, 11, 0);  // time exceeded
      drop(std::move(p), DropReason::ttl_expired);
      return false;
    }
  } else {
    if (h[7] <= 1) {
      if (cfg_.emit_icmp_errors) emit_icmpv6_error(*p, 3, 0, 0);
      drop(std::move(p), DropReason::ttl_expired);
      return false;
    }
  }
  return true;
}

// Cold and out of line: with the flow cache on every survivor has a record,
// and a copy inlined into the bind loop measurably slows the cached engine.
[[gnu::cold, gnu::noinline]] aiu::GateBinding* IpCore::uncached_binding(
    pkt::Packet& p, PluginType gate, BindingSlot& slot) {
  aiu::GateBinding* b = aiu_.gate_lookup(p, gate);
  return b ? ::new (static_cast<void*>(slot.raw)) aiu::GateBinding(*b)
           : nullptr;
}

// Always inlined into the engine: a lone packet's tail is the whole output
// path of paced traffic, and GCC otherwise calls it out of line there.
template <bool Traced, bool SkipGates, class Emit>
[[gnu::always_inline]] inline void IpCore::finish_packet(
    pkt::PacketPtr p, [[maybe_unused]] telemetry::TraceRecord* tr,
    [[maybe_unused]] std::uint64_t t_start, FwdMemo& memo,
    [[maybe_unused]] aiu::FlowRecord* frp, [[maybe_unused]] BindingSlot& nc,
    Emit&& emit) {
  auto finish_drop = [&](pkt::PacketPtr q, DropReason r) {
    if constexpr (Traced)
      tel_->trace_end(tr, telemetry::Disposition::dropped,
                      static_cast<std::uint8_t>(r), pkt::kAnyIface,
                      telemetry::cycles() - t_start);
    drop(std::move(q), r);
  };

  // ---- forwarding decision ----
  // The routing gate (L4 switching) may pre-empt the destination lookup.
  // It stays per-packet: its verdict gates a per-packet control decision,
  // and it is unbound in every built-in configuration.
  if constexpr (!SkipGates) {
    if (p->out_iface == pkt::kAnyIface) {
      constexpr std::size_t kGiRouting = aiu::gate_index(PluginType::routing);
      aiu::GateBinding* b = frp ? &frp->gates[kGiRouting]
                                : uncached_binding(*p, PluginType::routing, nc);
      if (b && b->instance) {
        ++counters_.gate_calls;
        [[maybe_unused]] std::uint64_t c0 = 0;
        if constexpr (Traced) c0 = telemetry::cycles();
        resilience::Decision d =
            res_ ? res_->dispatch(PluginType::routing, *b, *p)
                 : resilience::Decision{
                       b->instance->handle_packet(*p, &b->soft), false};
        if constexpr (Traced)
          tel_->record_gate(tr, PluginType::routing,
                            static_cast<std::uint8_t>(d.verdict),
                            telemetry::cycles() - c0);
        if (d.verdict == Verdict::drop)
          return finish_drop(std::move(p), d.fault_drop
                                               ? DropReason::plugin_fault
                                               : DropReason::policy);
      }
    }
  }
  if (p->out_iface == pkt::kAnyIface) {
    // Chunk-scoped memo: a flow's train shares one destination, so the trie
    // walk runs once per run of same-dst packets (lookup is const — the
    // cached pointer is exactly what a fresh lookup would return).
    const route::NextHop* hop;
    if (memo.dst_valid && memo.dst == p->key.dst) {
      hop = memo.hop;
    } else {
      hop = routes_.lookup(p->key.dst);
      memo.dst = p->key.dst;
      memo.hop = hop;
      memo.dst_valid = true;
    }
    if (!hop) {
      if (cfg_.emit_icmp_errors && p->ip_version == IpVersion::v4)
        emit_icmp_error(*p, 3, 0);  // destination unreachable
      return finish_drop(std::move(p), DropReason::no_route);
    }
    p->out_iface = hop->out_iface;
  }
  netdev::SimNic* nic;
  if (memo.nic && memo.oif == p->out_iface) {
    nic = memo.nic;
  } else {
    nic = ifs_.by_index(p->out_iface);
    if (!nic) return finish_drop(std::move(p), DropReason::no_route);
    memo.oif = p->out_iface;
    memo.nic = nic;
  }

  // ---- TTL / hop limit, with RFC 1624 incremental checksum update ----
  // Fetch the header pointer only now: gate plugins (AH/ESP) may have
  // prepended headers and moved the packet's data start.
  std::uint8_t* h = p->data();
  if (p->ip_version == IpVersion::v4) {
    const std::uint16_t old_word = netbase::load_be16(&h[8]);
    --h[8];
    const std::uint16_t new_word = netbase::load_be16(&h[8]);
    const std::uint16_t old_ck = netbase::load_be16(&h[10]);
    netbase::store_be16(&h[10],
                        netbase::checksum_update16(old_ck, old_word, new_word));
  } else {
    --h[7];
  }

  // ---- MTU handling (RFC 791 fragmentation) ----
  aiu::GateBinding* b = nullptr;  // SkipGates: sched gate provably unbound
  if constexpr (!SkipGates) {
    constexpr std::size_t kGiSched = aiu::gate_index(PluginType::sched);
    b = frp ? &frp->gates[kGiSched]
            : uncached_binding(*p, PluginType::sched, nc);
  }
  const std::size_t mtu = nic->mtu();
  if (p->size() > mtu) {
    const bool df = p->ip_version == IpVersion::v4 &&
                    (p->data()[6] & 0x40) != 0;  // Don't Fragment
    if (p->ip_version != IpVersion::v4 || df) {
      // Routers never fragment IPv6; DF forbids it for IPv4. Signal path
      // MTU discovery.
      if (cfg_.emit_icmp_errors) {
        if (p->ip_version == IpVersion::v4)
          emit_icmp_error(*p, 3, 4);  // fragmentation needed and DF set
        else
          emit_icmpv6_error(*p, 2, 0, static_cast<std::uint32_t>(mtu));
      }
      return finish_drop(std::move(p), DropReason::too_big);
    }
    auto frags = fragment_ipv4(std::move(p), mtu);
    if (frags.empty())
      return finish_drop(nullptr, DropReason::malformed);
    counters_.fragments_created += frags.size();
    // The trace follows the first fragment through the output stage.
    bool first = true;
    for (auto& f : frags) {
      emit(std::move(f), b, first ? tr : nullptr, t_start);
      first = false;
    }
    return;
  }
  emit(std::move(p), b, tr, t_start);
}

// ---- the gate engine ------------------------------------------------------
//
// The engine never reorders packets: the live list stays in arrival order
// and each group is *gathered* into per-group scratch arrays, so a flow's
// packets — and the chunk's egress — leave in exactly the order process()
// fed one at a time gives. Counter equivalence is exact: gate_calls
// advances once per packet dispatched (the breaker windows are anchored to
// it); the group counters ride alongside. Chunk size selects only how a
// lone survivor is served: its gates dispatch per packet (no group is
// counted) and its output is enqueued in place.
template <bool Traced>
void IpCore::process_chunk_grouped(
    pkt::PacketPtr** slots, std::size_t n,
    [[maybe_unused]] telemetry::TraceRecord* const* tr,
    [[maybe_unused]] const std::uint64_t* t0) {
  constexpr std::size_t kMax = aiu::Aiu::kMaxBurst;

  // Live packets in arrival order: slot indices plus parallel raw-pointer
  // arrays (packet, flow record), compacted together, so the gate loops
  // never chase PacketPtr double indirection and each gate's binding is one
  // indexed load off the hoisted record. The records stay put through the
  // gate stage (plugins never re-enter the core); the tail looks each one
  // up again, because an ICMP error re-entering process() there may grow
  // the flow table and move every record. A packet without a record (the
  // no-cache ablation) gets its bindings copied into nc[] instead, indexed
  // like the live list.
  std::size_t live[kMax];
  pkt::Packet* lp[kMax];
  aiu::FlowRecord* fr[kMax];
  BindingSlot nc[kMax];
  std::size_t n_live = n;
  aiu::FlowTable& flows = aiu_.flow_table();
  // Union of the chunk's bound-gate masks: one test skips a whole gate (or
  // the tail's routing/sched lookups) when no live flow binds it. An
  // unresolved packet contributes all-ones — it must take the full lookups.
  std::uint32_t bound_union = 0;
  for (std::size_t i = 0; i < n; ++i) {
    live[i] = i;
    lp[i] = slots[i]->get();
    const pkt::FlowIndex fix = lp[i]->fix;
    fr[i] = fix != pkt::kNoFlow ? &flows.rec(fix) : nullptr;
    bound_union |= fr[i] ? fr[i]->bound_mask : ~std::uint32_t{0};
  }

  Verdict verdict[kMax];
  bool fdrop[kMax];
  // Ends the packet in slot `s` at an input gate: a drop, or a plugin that
  // consumed it (the core's ownership ends either way).
  auto end_at_gate = [&](std::size_t s, Verdict v, bool fault) {
    const DropReason r = fault ? DropReason::plugin_fault : DropReason::policy;
    if constexpr (Traced)
      if (tr[s])
        tel_->trace_end(tr[s],
                        v == Verdict::drop ? telemetry::Disposition::dropped
                                           : telemetry::Disposition::consumed,
                        v == Verdict::drop ? static_cast<std::uint8_t>(r) : 0,
                        pkt::kAnyIface, telemetry::cycles() - t0[s]);
    if (v == Verdict::drop)
      drop(std::move(*slots[s]), r);
    else
      slots[s]->reset();
  };

  for (PluginType gate : cfg_.input_gates) {
    if (n_live == 0) break;
    const std::size_t gi = aiu::gate_index(gate);
    if (!(bound_union & (std::uint32_t{1} << gi)))
      continue;  // gate unbound for every live flow: provably a no-op

    if (n_live == 1) [[likely]] {
      // A lone survivor has nothing to group: one binding load and one
      // handle_packet call through the supervisor's per-packet guard. Its
      // binding is used before anything else can look one up, so the
      // no-cache scratch needs no copy. Laid out as the fall-through: for
      // paced traffic this is the whole gate stage, while a larger chunk
      // pays one branch per gate.
      aiu::GateBinding* b =
          fr[0] ? &fr[0]->gates[gi] : aiu_.gate_lookup(*lp[0], gate);
      if (!b || !b->instance) continue;
      ++counters_.gate_calls;
      [[maybe_unused]] telemetry::TraceRecord* t = nullptr;
      [[maybe_unused]] std::uint64_t c0 = 0;
      if constexpr (Traced)
        if ((t = tr[live[0]])) c0 = telemetry::cycles();
      const resilience::Decision d =
          res_ ? res_->dispatch(gate, *b, *lp[0])
               : resilience::Decision{
                     b->instance->handle_packet(*lp[0], &b->soft), false};
      if constexpr (Traced)
        if (t)
          tel_->record_gate(t, gate, static_cast<std::uint8_t>(d.verdict),
                            telemetry::cycles() - c0);
      // The bare path reads an out-of-enum verdict as cont, as the batch
      // path does.
      if (d.verdict == Verdict::drop || d.verdict == Verdict::consumed) {
        end_at_gate(live[0], d.verdict, d.fault_drop);
        n_live = 0;
      }
      continue;
    }

    // Bindings for every live packet: resolve_flows_burst already set every
    // FIX, so each lookup is one indexed load off the hoisted flow record,
    // and the binding pointers are stable for the whole chunk. Detect on the
    // fly whether one instance spans the chunk — the common case (one
    // filter's flows arriving in trains) then dispatches with no gather at
    // all.
    aiu::GateBinding* bind[kMax];
    void** gsoft[kMax];
    plugin::PluginInstance* first = nullptr;
    bool mixed = false;
    for (std::size_t k = 0; k < n_live; ++k) {
      aiu::GateBinding* b =
          fr[k] ? &fr[k]->gates[gi] : uncached_binding(*lp[k], gate, nc[k]);
      bind[k] = b;
      // Speculative per-packet state for the no-gather dispatch below; the
      // gather path refills its own scratch, so a mixed chunk just wastes
      // these few stores.
      gsoft[k] = b ? &b->soft : nullptr;
      verdict[k] = Verdict::cont;
      fdrop[k] = false;
      plugin::PluginInstance* inst = b ? b->instance : nullptr;
      if (k == 0)
        first = inst;
      else
        mixed |= inst != first;
    }
    if (!mixed && !first) continue;  // gate unbound for the whole chunk

    // Whether any packet left `cont` at this gate; when none did (by far
    // the common case for filter-style gates) the verdict-apply/compaction
    // pass is skipped outright — the live list is already correct.
    bool any_noncont = false;

    // Dispatches one gathered group through the batch ABI: one breaker
    // consult, one containment frame, one virtual call. `pos` maps group
    // member -> live index (null = identity, the no-gather fast path).
    auto run_group = [&](plugin::PluginInstance& inst, pkt::Packet* const* gp,
                         void** const* gsoft, Verdict* gv, std::size_t m,
                         const std::size_t* pos) {
      counters_.gate_calls += m;
      ++counters_.gate_groups;
      counters_.gate_group_pkts += m;
      ++counters_.group_size_hist[CoreCounters::group_hist_bucket(m)];
      plugin::PacketRun run(gp, gsoft, gv, m);
      [[maybe_unused]] bool timed = false;
      [[maybe_unused]] std::uint64_t c0 = 0;
      if constexpr (Traced) {
        for (std::size_t x = 0; x < m && !timed; ++x)
          timed = tr[live[pos ? pos[x] : x]] != nullptr;
        if (timed) c0 = telemetry::cycles();
      }
      resilience::Decision d{};
      if (res_) {
        d = res_->dispatch_run(gate, inst, [&] { inst.handle_burst(run); });
      } else {
        inst.handle_burst(run);
      }
      // Traced members record the amortized per-packet cost of the group.
      [[maybe_unused]] std::uint64_t dc = 0;
      if constexpr (Traced)
        if (timed) dc = (telemetry::cycles() - c0) / m;
      if (d.fault_drop) {
        // Containment fallback (fail_closed) governs the whole run: a
        // partially-processed run cannot tell which packets the plugin
        // already judged. fail_open comes back as cont and keeps whatever
        // verdicts the run had written before the fault.
        any_noncont = true;
        for (std::size_t x = 0; x < m; ++x) {
          const std::size_t k = pos ? pos[x] : x;
          verdict[k] = Verdict::drop;
          fdrop[k] = true;
        }
      } else {
        for (std::size_t x = 0; x < m; ++x) {
          const std::size_t k = pos ? pos[x] : x;
          Verdict v = gv[x];
          if (static_cast<std::uint8_t>(v) >
              static_cast<std::uint8_t>(Verdict::drop)) [[unlikely]] {
            // Out-of-enum verdict: same fault the per-packet dispatch()
            // raises; the bare (unsupervised) path treats it as cont, like
            // the lone step.
            if (res_) {
              resilience::Decision bd = res_->bad_verdict(gate, inst);
              v = bd.verdict;
              fdrop[k] = bd.fault_drop;
            } else {
              v = Verdict::cont;
            }
          }
          verdict[k] = v;
          any_noncont |= v != Verdict::cont;
        }
      }
      if constexpr (Traced)
        if (timed)
          for (std::size_t x = 0; x < m; ++x) {
            const std::size_t k = pos ? pos[x] : x;
            if (telemetry::TraceRecord* t = tr[live[k]])
              tel_->record_gate(t, gate,
                                static_cast<std::uint8_t>(verdict[k]), dc);
          }
    };

    if (res_ && !res_->quiet()) [[unlikely]] {
      // Injection armed, a budget set, or a breaker non-closed: per-packet
      // dispatch in arrival order keeps those semantics exact — windows,
      // probes, per-packet fallbacks, and each gate's injection rule stream
      // advance exactly as when the packets arrive one at a time.
      for (std::size_t k = 0; k < n_live; ++k) {
        if (!bind[k] || !bind[k]->instance) {
          verdict[k] = Verdict::cont;
          fdrop[k] = false;
          continue;
        }
        ++counters_.gate_calls;
        [[maybe_unused]] telemetry::TraceRecord* t = nullptr;
        [[maybe_unused]] std::uint64_t c0 = 0;
        if constexpr (Traced)
          if ((t = tr[live[k]])) c0 = telemetry::cycles();
        resilience::Decision d = res_->dispatch(gate, *bind[k], *lp[k]);
        if constexpr (Traced)
          if (t)
            tel_->record_gate(t, gate, static_cast<std::uint8_t>(d.verdict),
                              telemetry::cycles() - c0);
        verdict[k] = d.verdict;
        fdrop[k] = d.fault_drop;
        any_noncont |= d.verdict != Verdict::cont;
      }
    } else if (!mixed) {
      // One instance spans the chunk (per-flow soft slots still differ):
      // dispatch the live list as a single group straight out of lp[],
      // writing verdicts in place.
      run_group(*first, lp, gsoft, verdict, n_live, nullptr);
    } else {
      // Mixed instances: gather each group into scratch, in arrival order.
      // Grouping can never split or reorder a flow — all packets of one
      // flow share one binding.
      pkt::Packet* gp[kMax];
      void** gs[kMax];
      Verdict gv[kMax];
      std::size_t gpos[kMax];  // group member -> position in live[]
      bool taken[kMax];
      for (std::size_t k = 0; k < n_live; ++k) taken[k] = false;
      for (std::size_t k = 0; k < n_live; ++k) {
        if (taken[k]) continue;
        plugin::PluginInstance* inst = bind[k] ? bind[k]->instance : nullptr;
        if (!inst) continue;  // unbound for this flow: the gate is a no-op
        std::size_t m = 0;
        for (std::size_t j = k; j < n_live; ++j) {
          if (taken[j] || !bind[j] || bind[j]->instance != inst) continue;
          taken[j] = true;
          gp[m] = lp[j];
          gs[m] = &bind[j]->soft;
          gv[m] = Verdict::cont;
          gpos[m] = j;
          ++m;
        }
        run_group(*inst, gp, gs, gv, m, gpos);
      }
    }

    // Apply dispositions and compact the live list (arrival order kept):
    // survivors re-partition at the next gate.
    if (!any_noncont) continue;  // every verdict cont: nothing to compact
    std::size_t w = 0;
    for (std::size_t k = 0; k < n_live; ++k) {
      if (verdict[k] != Verdict::cont) {
        end_at_gate(live[k], verdict[k], fdrop[k]);
        continue;
      }
      live[w] = live[k];
      lp[w] = lp[k];
      fr[w] = fr[k];
      ++w;
    }
    n_live = w;
  }

  // ---- per-packet tail ----
  // Scheduler-bound outputs defer into the op list so same-scheduler runs
  // batch through enqueue_burst; plain FIFO outputs (no scheduler on the
  // port) have nothing to batch and enqueue in place — each queue still
  // fills in arrival order, so drain order is untouched. So does a lone
  // survivor's output, which has nothing to batch with.
  FwdMemo memo;
  const bool lone = n_live == 1;
  auto emit = [&](pkt::PacketPtr q, aiu::GateBinding* b,
                  telemetry::TraceRecord* t, std::uint64_t ts) {
    if (lone) {
      if (t) [[unlikely]]
        enqueue_output<true>(std::move(q), b, t, ts);
      else
        enqueue_output<false>(std::move(q), b, nullptr, 0);
      return;
    }
    OutputScheduler* sched;
    if (b && b->instance) {
      sched = static_cast<OutputScheduler*>(b->instance);
    } else {
      // Memoized port fetch: a chunk's packets overwhelmingly share one
      // output interface.
      Port* pt;
      if (memo.fifo_port && memo.fifo_oif == q->out_iface) {
        pt = memo.fifo_port;
      } else {
        pt = &port(q->out_iface);
        memo.fifo_oif = q->out_iface;
        memo.fifo_port = pt;
      }
      sched = pt->sched;
      if (!sched) {
        if (t) [[unlikely]] {  // rare traced packet: full path, exact trace
          enqueue_output<true>(std::move(q), b, t, ts);
          return;
        }
        // Untraced, unbound, unscheduled: exactly enqueue_output<false>'s
        // FIFO path, with the Port fetch memoized away.
        ++counters_.forwarded;
        if (pt->fifo.size() >= cfg_.port_fifo_limit) [[unlikely]] {
          --counters_.forwarded;
          drop(std::move(q), DropReason::queue_full);
          return;
        }
        pt->fifo.push_back(std::move(q));
        return;
      }
    }
    if (ops_.n == OutOpList::kCap) flush_output_ops();
    ops_.ops[ops_.n++] = OutOp{std::move(q), b, t, ts};
  };
  const bool skip_rs =
      (bound_union &
       ((std::uint32_t{1} << aiu::gate_index(PluginType::routing)) |
        (std::uint32_t{1} << aiu::gate_index(PluginType::sched)))) == 0;
  for (std::size_t k = 0; k < n_live; ++k) {
    const std::size_t s = live[k];
    const pkt::FlowIndex fix = lp[k]->fix;
    aiu::FlowRecord* frp = fix != pkt::kNoFlow ? &flows.rec(fix) : nullptr;
    if constexpr (Traced)
      if (tr[s]) {
        finish_packet<true, false>(std::move(*slots[s]), tr[s], t0[s], memo,
                                   frp, nc[k], emit);
        continue;
      }
    if (skip_rs)
      finish_packet<false, true>(std::move(*slots[s]), nullptr, 0, memo,
                                 nullptr, nc[k], emit);
    else
      finish_packet<false, false>(std::move(*slots[s]), nullptr, 0, memo, frp,
                                  nc[k], emit);
  }
  if (ops_.n) flush_output_ops();
}

// Flushes deferred output ops in order, batching each maximal consecutive
// same-scheduler run through OutputScheduler::enqueue_burst. FIFO-bound ops
// and runs under a non-quiet supervisor (whose per-packet admission/guard
// semantics must hold exactly) take the per-packet enqueue_output path, in
// place, so relative order is always preserved.
void IpCore::flush_output_ops() {
  OutOpList& l = ops_;
  std::size_t i = 0;
  while (i < l.n) {
    OutOp& op = l.ops[i];
    const bool bound = op.b && op.b->instance;
    OutputScheduler* sched =
        bound ? static_cast<OutputScheduler*>(op.b->instance)
              : port(op.p->out_iface).sched;

    std::size_t j = i + 1;
    if (sched && (!res_ || res_->quiet())) {
      while (j < l.n) {
        const OutOp& nx = l.ops[j];
        const bool nb = nx.b && nx.b->instance;
        OutputScheduler* ns =
            nb ? static_cast<OutputScheduler*>(nx.b->instance)
               : port(nx.p->out_iface).sched;
        if (ns != sched) break;
        ++j;
      }
    }
    const std::size_t m = j - i;
    if (m == 1) {
      if (op.tr)
        enqueue_output<true>(std::move(op.p), op.b, op.tr, op.t_start);
      else
        enqueue_output<false>(std::move(op.p), op.b, nullptr, 0);
      ++i;
      continue;
    }

    // ---- batched enqueue for the run [i, j) ----
    // Quiet (or no supervisor) is guaranteed here, so sched_admit would
    // admit unconditionally — the breaker consult folds into one quiet()
    // read above; a fault below flips quiet off and the next run falls back
    // to the per-packet path.
    pkt::PacketPtr run_pkts[OutOpList::kCap];
    void** run_softs[OutOpList::kCap];
    bool accepted[OutOpList::kCap];
    pkt::IfIndex oifs[OutOpList::kCap];
    for (std::size_t x = 0; x < m; ++x) {
      OutOp& o = l.ops[i + x];
      oifs[x] = o.p->out_iface;
      run_softs[x] = (o.b && o.b->instance) ? &o.b->soft : nullptr;
      accepted[x] = false;
      run_pkts[x] = std::move(o.p);
    }
    counters_.gate_calls += m;
    counters_.forwarded += m;
    ++counters_.gate_groups;
    counters_.gate_group_pkts += m;
    ++counters_.group_size_hist[CoreCounters::group_hist_bucket(m)];

#if RP_TELEMETRY
    bool timed = false;
    if (tel_)
      for (std::size_t x = 0; x < m && !timed; ++x)
        timed = l.ops[i + x].tr != nullptr;
    const std::uint64_t c0 = timed ? telemetry::cycles() : 0;
#endif
    bool ok = true;
    if (res_) {
      ok = res_->guard_enqueue(*sched, [&] {
        sched->enqueue_burst(run_pkts, run_softs, accepted, m, clock_.now());
      });
    } else {
      sched->enqueue_burst(run_pkts, run_softs, accepted, m, clock_.now());
    }
#if RP_TELEMETRY
    const std::uint64_t dc = timed ? (telemetry::cycles() - c0) / m : 0;
#endif

    for (std::size_t x = 0; x < m; ++x) {
      [[maybe_unused]] OutOp& o = l.ops[i + x];
      const bool succeeded = ok && accepted[x];
#if RP_TELEMETRY
      if (o.tr)
        tel_->record_gate(o.tr, PluginType::sched,
                          static_cast<std::uint8_t>(
                              succeeded ? Verdict::consumed : Verdict::drop),
                          dc);
      auto end_trace = [&](telemetry::Disposition disp, DropReason r) {
        if (o.tr)
          tel_->trace_end(o.tr, disp, static_cast<std::uint8_t>(r), oifs[x],
                          telemetry::cycles() - o.t_start);
      };
#else
      auto end_trace = [](telemetry::Disposition, DropReason) {};
#endif
      if (ok) {
        if (accepted[x]) {
          end_trace(telemetry::Disposition::queued, DropReason::none);
        } else {
          --counters_.forwarded;
          end_trace(telemetry::Disposition::dropped, DropReason::queue_full);
          drop(std::move(run_pkts[x]), DropReason::queue_full);
        }
        continue;
      }
      // The burst call threw (real plugin bug on the quiet path — injected
      // throws imply a non-quiet supervisor, which never reaches here).
      if (run_pkts[x]) {
        // Untouched by the plugin: apply the sched fallback, per packet.
        if (res_->fallback(PluginType::sched) !=
            resilience::Fallback::fail_closed) {
          Port& out = port(oifs[x]);
          if (out.fifo.size() >= cfg_.port_fifo_limit) {
            --counters_.forwarded;
            end_trace(telemetry::Disposition::dropped,
                      DropReason::queue_full);
            drop(std::move(run_pkts[x]), DropReason::queue_full);
          } else {
            out.fifo.push_back(std::move(run_pkts[x]));
            end_trace(telemetry::Disposition::queued, DropReason::none);
          }
        } else {
          --counters_.forwarded;
          end_trace(telemetry::Disposition::dropped,
                    DropReason::plugin_fault);
          drop(std::move(run_pkts[x]), DropReason::plugin_fault);
        }
      } else if (accepted[x]) {
        // Queued before the throw; the outcome stands.
        end_trace(telemetry::Disposition::queued, DropReason::none);
      } else {
        // Consumed by the throw — or rejected just before it, which is
        // indistinguishable once the pointer is gone. Account the
        // conservative reading: a containment loss.
        --counters_.forwarded;
        end_trace(telemetry::Disposition::dropped, DropReason::plugin_fault);
        drop(nullptr, DropReason::plugin_fault);
      }
    }
    i = j;
  }
  l.n = 0;
}

template <bool Traced>
void IpCore::enqueue_output(pkt::PacketPtr p, aiu::GateBinding* b,
                            [[maybe_unused]] telemetry::TraceRecord* tr,
                            [[maybe_unused]] std::uint64_t t_start) {
  const pkt::IfIndex oif = p->out_iface;
  Port& out = port(oif);
  const bool bound = b && b->instance;
  OutputScheduler* sched =
      bound ? static_cast<OutputScheduler*>(b->instance) : out.sched;
  ++counters_.forwarded;

  auto end_dropped = [&](pkt::PacketPtr q, DropReason r) {
    --counters_.forwarded;
    if constexpr (Traced)
      if (tr)
        tel_->trace_end(tr, telemetry::Disposition::dropped,
                        static_cast<std::uint8_t>(r), oif,
                        telemetry::cycles() - t_start);
    drop(std::move(q), r);
  };
  auto end_queued = [&] {
    if constexpr (Traced)
      if (tr)
        tel_->trace_end(tr, telemetry::Disposition::queued, 0, oif,
                        telemetry::cycles() - t_start);
  };
  auto fifo_enqueue = [&](pkt::PacketPtr q) {
    if (out.fifo.size() >= cfg_.port_fifo_limit)
      return end_dropped(std::move(q), DropReason::queue_full);
    out.fifo.push_back(std::move(q));
    end_queued();
  };

  if (sched && res_) [[likely]] {
    // Breaker consult before ownership moves into the plugin: an Open
    // scheduler degrades to the port FIFO (best_effort/fail_open) or drops
    // (fail_closed) without being called at all.
    switch (res_->sched_admit(*sched)) {
      case resilience::SchedAdmit::admit:
        break;
      case resilience::SchedAdmit::bypass:
        sched = nullptr;
        break;
      case resilience::SchedAdmit::drop:
        return end_dropped(std::move(p), DropReason::plugin_fault);
    }
  }

  if (sched) {
    ++counters_.gate_calls;
    void** soft = bound ? &b->soft : nullptr;
    bool accepted = false;
    bool ok = true;
    [[maybe_unused]] std::uint64_t c0 = 0;
    if constexpr (Traced) c0 = telemetry::cycles();
    if (res_) [[likely]] {
      ok = res_->guard_enqueue(*sched, [&] {
        accepted = sched->enqueue(std::move(p), soft, clock_.now());
      });
    } else {
      accepted = sched->enqueue(std::move(p), soft, clock_.now());
    }
    if constexpr (Traced)
      if (tr)
        tel_->record_gate(tr, PluginType::sched,
                          static_cast<std::uint8_t>(ok && accepted
                                                        ? Verdict::consumed
                                                        : Verdict::drop),
                          telemetry::cycles() - c0);
    if (!ok) [[unlikely]] {
      // The enqueue threw. An injected throw fires before the call and
      // leaves the packet intact — apply the sched fallback; a real throw
      // consumed the packet mid-move, so there is nothing to salvage and
      // the loss is accounted as a plugin_fault drop.
      if (p && res_->fallback(PluginType::sched) !=
                   resilience::Fallback::fail_closed)
        return fifo_enqueue(std::move(p));
      return end_dropped(std::move(p), DropReason::plugin_fault);
    }
    if (!accepted) return end_dropped(std::move(p), DropReason::queue_full);
    return end_queued();
  }
  fifo_enqueue(std::move(p));
}

std::vector<pkt::PacketPtr> IpCore::fragment_ipv4(pkt::PacketPtr p,
                                                  std::size_t mtu) {
  const std::uint8_t* h = p->data();
  const std::size_t hlen = std::size_t{static_cast<std::size_t>(h[0] & 0x0f)} * 4;
  if (hlen < pkt::Ipv4Header::kMinSize || hlen >= p->size() || mtu <= hlen)
    return {};
  const std::size_t payload_len = p->size() - hlen;
  // Fragment payload sizes must be multiples of 8 (except the last).
  const std::size_t max_chunk = (mtu - hlen) & ~std::size_t{7};
  if (max_chunk == 0) return {};

  const std::uint16_t orig_ff = netbase::load_be16(&h[6]);
  const bool orig_mf = (orig_ff & 0x2000) != 0;
  const std::uint16_t orig_off = orig_ff & 0x1fff;

  std::vector<pkt::PacketPtr> out;
  for (std::size_t off = 0; off < payload_len; off += max_chunk) {
    const std::size_t chunk =
        off + max_chunk < payload_len ? max_chunk : payload_len - off;
    auto frag = pkt::make_packet(hlen + chunk);
    std::memcpy(frag->data(), h, hlen);
    std::memcpy(frag->data() + hlen, h + hlen + off, chunk);

    const bool last = off + chunk >= payload_len;
    std::uint16_t ff = static_cast<std::uint16_t>(
        (orig_off + off / 8) | ((last && !orig_mf) ? 0 : 0x2000));
    netbase::store_be16(frag->data() + 6, ff);
    netbase::store_be16(frag->data() + 2,
                        static_cast<std::uint16_t>(hlen + chunk));
    pkt::Ipv4Header::finalize_checksum(frag->data(), hlen);

    // Carry the forwarding metadata; only the first fragment truly holds
    // the transport header, but the flow was classified at ingress.
    frag->arrival = p->arrival;
    frag->in_iface = p->in_iface;
    frag->out_iface = p->out_iface;
    frag->fix = p->fix;
    frag->key = p->key;
    frag->key_valid = true;
    frag->ip_version = p->ip_version;
    frag->l4_offset = static_cast<std::uint16_t>(hlen);
    out.push_back(std::move(frag));
  }
  return out;
}

pkt::PacketPtr IpCore::next_for_tx(pkt::IfIndex iface, netbase::SimTime now) {
  Port& pt = port(iface);
  if (!pt.fifo.empty()) {
    auto p = std::move(pt.fifo.front());
    pt.fifo.pop_front();
    return p;
  }
  if (pt.sched) return pt.sched->dequeue(now);
  return nullptr;
}

netbase::SimTime IpCore::next_tx_wakeup(pkt::IfIndex iface,
                                        netbase::SimTime now) {
  Port& pt = port(iface);
  if (pt.sched && !pt.sched->empty()) return pt.sched->next_wakeup(now);
  return -1;
}

bool IpCore::tx_backlog(pkt::IfIndex iface) const {
  if (ports_.size() <= iface) return false;
  const Port& pt = ports_[iface];
  return !pt.fifo.empty() || (pt.sched && !pt.sched->empty());
}

void IpCore::set_port_scheduler(pkt::IfIndex iface, OutputScheduler* sched) {
  port(iface).sched = sched;
}

OutputScheduler* IpCore::port_scheduler(pkt::IfIndex iface) {
  return port(iface).sched;
}

void IpCore::emit_icmp_error(const pkt::Packet& orig, std::uint8_t type,
                             std::uint8_t code) {
  // RFC 792: IP header + ICMP header + original IP header + 8 bytes.
  if (orig.ip_version != IpVersion::v4) return;
  if (orig.key.proto == static_cast<std::uint8_t>(pkt::IpProto::icmp)) {
    // Never generate ICMP about ICMP (errors, at least; keep it simple).
    return;
  }
  const std::size_t quote =
      orig.size() < orig.l4_offset + 8u ? orig.size() : orig.l4_offset + 8u;
  auto icmp = pkt::make_packet(pkt::Ipv4Header::kMinSize +
                               pkt::IcmpHeader::kSize + quote);

  pkt::Ipv4Header ip;
  ip.total_len = static_cast<std::uint16_t>(icmp->size());
  ip.ttl = 64;
  ip.proto = static_cast<std::uint8_t>(pkt::IpProto::icmp);
  ip.src = orig.key.dst.v4();  // nominally this router's address
  ip.dst = orig.key.src.v4();
  ip.write(icmp->data());
  pkt::Ipv4Header::finalize_checksum(icmp->data(), pkt::Ipv4Header::kMinSize);

  std::uint8_t* ic = icmp->data() + pkt::Ipv4Header::kMinSize;
  pkt::IcmpHeader ih;
  ih.type = type;
  ih.code = code;
  ih.write(ic);
  std::memcpy(ic + pkt::IcmpHeader::kSize, orig.data(), quote);
  netbase::store_be16(ic + 2, 0);
  netbase::store_be16(
      ic + 2, netbase::checksum(ic, pkt::IcmpHeader::kSize + quote));

  ++counters_.icmp_errors_sent;
  // Flush any output the chunk deferred before this point, so the error
  // cannot overtake packets forwarded ahead of it; then re-enter the core so
  // the error is routed like any other packet (recursion guarded by the
  // ICMP-about-ICMP rule above).
  if (ops_.n) flush_output_ops();
  process(std::move(icmp));
}

void IpCore::emit_icmpv6_error(const pkt::Packet& orig, std::uint8_t type,
                               std::uint8_t code, std::uint32_t param) {
  if (orig.ip_version != IpVersion::v6) return;
  if (orig.key.proto == static_cast<std::uint8_t>(pkt::IpProto::icmpv6))
    return;  // never ICMP about ICMP errors
  // RFC 4443: as much of the offending packet as fits in the 1280-byte
  // minimum MTU.
  const std::size_t room = 1280 - pkt::Ipv6Header::kSize - 8;
  const std::size_t quote = orig.size() < room ? orig.size() : room;
  auto icmp = pkt::make_packet(pkt::Ipv6Header::kSize + 8 + quote);

  pkt::Ipv6Header ip;
  ip.payload_len = static_cast<std::uint16_t>(8 + quote);
  ip.next_header = static_cast<std::uint8_t>(pkt::IpProto::icmpv6);
  ip.hop_limit = 64;
  ip.src = orig.key.dst.v6();  // nominally this router's address
  ip.dst = orig.key.src.v6();
  ip.write(icmp->data());

  std::uint8_t* ic = icmp->data() + pkt::Ipv6Header::kSize;
  ic[0] = type;
  ic[1] = code;
  netbase::store_be16(&ic[2], 0);
  netbase::store_be32(&ic[4], param);  // MTU for PTB, zero otherwise
  std::memcpy(ic + 8, orig.data(), quote);

  // ICMPv6 checksum over the IPv6 pseudo header + message.
  std::uint8_t ph[40];
  ip.src.to_bytes(&ph[0]);
  ip.dst.to_bytes(&ph[16]);
  netbase::store_be32(&ph[32], static_cast<std::uint32_t>(8 + quote));
  ph[36] = ph[37] = ph[38] = 0;
  ph[39] = static_cast<std::uint8_t>(pkt::IpProto::icmpv6);
  std::uint32_t sum = netbase::checksum_partial(ph, sizeof ph);
  sum = netbase::checksum_partial(ic, 8 + quote, sum);
  netbase::store_be16(&ic[2], static_cast<std::uint16_t>(~sum));

  ++counters_.icmp_errors_sent;
  if (ops_.n) flush_output_ops();  // keep egress order (see above)
  process(std::move(icmp));
}

}  // namespace rp::core
