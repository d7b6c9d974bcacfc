#include "aiu/aiu.hpp"

#include <algorithm>

#include "pkt/builder.hpp"

namespace rp::aiu {

Aiu::Aiu(plugin::PluginControlUnit& pcu, netbase::SimClock& clock)
    : Aiu(pcu, clock, Options{}) {}

Aiu::Aiu(plugin::PluginControlUnit& pcu, netbase::SimClock& clock, Options opt)
    : pcu_(pcu),
      clock_(clock),
      opt_(std::move(opt)),
      flows_(opt_.flow_buckets, opt_.initial_flows, opt_.max_flows) {
  install_pcu_hooks();
}

void Aiu::install_pcu_hooks() {
  // The AIU publishes its registration functions to the PCU (Section 4:
  // "This message would result in a call to a registration function that is
  // published by the AIU").
  pcu_.set_register_hook(
      [this](plugin::PluginInstance* inst, const std::string& spec) {
        auto f = Filter::parse(spec);
        if (!f) return Status::invalid_argument;
        return create_filter(inst->owner()->type(), *f, inst);
      });
  pcu_.set_deregister_hook(
      [this](plugin::PluginInstance* inst, const std::string& spec) {
        auto f = Filter::parse(spec);
        if (!f) return Status::invalid_argument;
        auto gate = inst->owner()->type();
        auto* table = tables_[gate_index(gate)].get();
        if (!table) return Status::not_found;
        return remove_filter(gate, *f);
      });
  pcu_.add_purge_hook([this](plugin::PluginInstance* inst) {
    // Flows first: once none is bound to inst, patch() may free its records.
    flows_.purge_instance(inst);
    for (auto& t : tables_)
      if (t) {
        t->purge_instance(inst);
        t->patch();
      }
  });
  // Verdict-cache offload (L7): clear one flow's binding at the caller's
  // gate so the bound_mask skip makes the gate free for that flow. Fails
  // closed on anything stale: with the cache disabled gate_lookup hands out
  // scratch bindings (nothing to clear), and a recycled entry no longer
  // matches the caller's instance+soft pair. The caller has already
  // released the soft state, so the binding is just wiped.
  pcu_.set_flow_offload_hook([this](pkt::FlowIndex fix,
                                    plugin::PluginInstance* inst,
                                    plugin::PluginType gate,
                                    void* expected_soft) {
    if (!opt_.flow_cache_enabled || !inst) return false;
    if (fix < 0 || fix >= static_cast<pkt::FlowIndex>(flows_.capacity()))
      return false;
    FlowRecord& r = flows_.rec(fix);
    const std::size_t gi = gate_index(gate);
    GateBinding& g = r.gates[gi];
    if (!r.in_use || g.instance != inst || g.soft != expected_soft)
      return false;
    g = {};
    r.bound_mask &= ~(std::uint32_t{1} << gi);
    ++stats_.flows_offloaded;
    return true;
  });
}

Status Aiu::create_filter(plugin::PluginType gate, const Filter& f,
                          plugin::PluginInstance* inst) {
  if (gate == plugin::PluginType::none) return Status::invalid_argument;
  auto& table = tables_[gate_index(gate)];
  if (!table) {
    table = make_filter_table(opt_.classifier, opt_.dag);
    if (!table) return Status::invalid_argument;
  }
  if (!table->insert(f, inst)) return Status::error;
  // Cached bindings may now be stale; drop them so the next packet of each
  // flow re-runs classification.
  flush_cache();
  table->patch();
  return Status::ok;
}

Status Aiu::remove_filter(plugin::PluginType gate, const Filter& f) {
  auto* table = tables_[gate_index(gate)].get();
  if (!table) return Status::not_found;
  Status s = table->remove(f);
  if (s == Status::ok) {
    flush_cache();
    table->patch();  // no flow holds the removed record any more
  }
  return s;
}

Aiu::FilterBatchResult Aiu::apply_filter_batch(std::span<const FilterOp> ops) {
  FilterBatchResult res;
  // Phase 1: resolve what the batch can affect, before any mutation, so
  // every record pointer compared below is still alive regardless of the
  // table implementation's record lifetime.
  struct Removed {
    std::size_t gi;
    const FilterRecord* rec;
  };
  std::vector<Removed> removed;
  std::vector<const Filter*> added;
  for (const FilterOp& op : ops) {
    if (op.gate == plugin::PluginType::none) continue;
    if (op.kind == FilterOp::Kind::add) {
      added.push_back(&op.filter);
      continue;
    }
    const std::size_t gi = gate_index(op.gate);
    if (!tables_[gi]) continue;
    if (const FilterRecord* r = tables_[gi]->find(op.filter))
      removed.push_back({gi, r});
  }

  // Phase 2: selective invalidation. Only flows whose classification could
  // have changed are dropped: a binding derived from a removed record, or a
  // key an added filter matches (it may now be the more specific winner, and
  // an add of an existing filter rebinds its record's instance in place).
  // Everything else keeps its cached bindings — no full flush.
  if ((!removed.empty() || !added.empty()) && flows_.active() != 0) {
    const auto cap = static_cast<pkt::FlowIndex>(flows_.capacity());
    for (pkt::FlowIndex fix = 0; fix < cap; ++fix) {
      const FlowRecord& r = flows_.rec(fix);
      if (!r.in_use) continue;
      bool stale = false;
      for (const auto& rm : removed) {
        if (r.gates[rm.gi].filter == rm.rec) {
          stale = true;
          break;
        }
      }
      if (!stale) {
        for (const Filter* f : added) {
          if (f->matches(r.key)) {
            stale = true;
            break;
          }
        }
      }
      if (stale) {
        flows_.remove(fix, FlowTable::RemoveReason::purged);
        ++res.flows_invalidated;
      }
    }
  }
  stats_.flows_invalidated += res.flows_invalidated;

  // Phase 3: mutate the tables.
  bool touched[kNumGates] = {};
  for (const FilterOp& op : ops) {
    if (op.gate == plugin::PluginType::none) {
      ++res.failed;
      continue;
    }
    const std::size_t gi = gate_index(op.gate);
    if (op.kind == FilterOp::Kind::add) {
      auto& table = tables_[gi];
      if (!table) {
        table = make_filter_table(opt_.classifier, opt_.dag);
        if (!table) {
          ++res.failed;
          continue;
        }
      }
      if (!table->insert(op.filter, op.instance)) {
        ++res.failed;
        continue;
      }
      touched[gi] = true;
      ++res.added;
    } else {
      auto* table = tables_[gi].get();
      if (!table || table->remove(op.filter) != Status::ok) {
        ++res.failed;
        continue;
      }
      touched[gi] = true;
      ++res.removed;
    }
  }

  // Phase 4: make the touched tables ready on the control path. A built DAG
  // took every op in place in Phase 3; this prepares the engines those ops
  // touched and frees the removed records, which Phase 2 unbound from every
  // flow. A table that was never built gets its one-pass build here. Either
  // way the next packet's lookup builds nothing.
  for (std::size_t gi = 0; gi < kNumGates; ++gi)
    if (touched[gi] && tables_[gi]) tables_[gi]->prepare();
  return res;
}

Aiu::HandoffResult Aiu::handoff_instance(plugin::PluginInstance* from,
                                         plugin::PluginInstance* to) {
  HandoffResult res;
  if (!from || !to || from == to) return res;
  for (auto& t : tables_)
    if (t) res.filters_rebound += t->rebind_instance(from, to);
  const auto cap = static_cast<pkt::FlowIndex>(flows_.capacity());
  for (pkt::FlowIndex fix = 0; fix < cap; ++fix) {
    FlowRecord& r = flows_.rec(fix);
    if (!r.in_use) continue;
    for (std::size_t g = 0; g < kNumGates; ++g) {
      GateBinding& b = r.gates[g];
      if (b.instance != from) continue;
      b.instance = to;  // bound_mask bit stays set: `to` is non-null
      ++res.flows_rebound;
      if (!b.soft) continue;
      if (to->migrate_flow(from, r.key, &b.soft)) {
        ++res.state_migrated;
      } else {
        from->flow_removed(b.soft);
        b.soft = nullptr;
        ++res.state_dropped;
      }
    }
  }
  stats_.flows_migrated += res.state_migrated;
  return res;
}

std::size_t Aiu::rebind_instance(const plugin::PluginInstance* inst) {
  const std::size_t purged = flows_.purge_instance(inst);
  stats_.flows_rebound += purged;
  return purged;
}

void Aiu::flush_cache() {
  if (flows_.active() != 0) {
    flows_.clear();
    ++stats_.cache_flushes;
  }
}

pkt::FlowIndex Aiu::create_flow_entry(pkt::Packet& p) {
  pkt::FlowIndex i = flows_.insert(p.key, p.flow_hash(), clock_.now());
  FlowRecord& r = flows_.rec(i);
  // The creating packet is packet #1 of the flow. insert() itself stays
  // neutral (it is also used to pre-create entries), so count it here.
  r.packets = 1;
  // n gates -> n filter-table lookups, one flow entry (Section 3.2).
  for (std::size_t g = 0; g < kNumGates; ++g) {
    if (!tables_[g]) continue;
    ++stats_.filter_lookups;
    const FilterRecord* fr = tables_[g]->lookup(p.key);
    if (fr) {
      r.gates[g].instance = fr->instance;
      r.gates[g].filter = fr;
      if (fr->instance) r.bound_mask |= std::uint32_t{1} << g;
    }
  }
  ++stats_.uncached_classifications;
  return i;
}

GateBinding* Aiu::gate_lookup(pkt::Packet& p, plugin::PluginType gate) {
  const std::size_t gi = gate_index(gate);

  // Fast path: FIX already in the packet — direct array access.
  if (p.fix != pkt::kNoFlow) return &flows_.rec(p.fix).gates[gi];

  if (!p.key_valid && !pkt::extract_flow_key(p)) return nullptr;

  if (!opt_.flow_cache_enabled) {
    // Ablation path: classify at this gate only, no caching. Soft state is
    // not persisted (only stateless plugins are meaningful here).
    thread_local GateBinding tmp;
    tmp = {};
    const FilterRecord* fr =
        tables_[gi] ? (++stats_.filter_lookups, tables_[gi]->lookup(p.key))
                    : nullptr;
    if (fr) {
      tmp.instance = fr->instance;
      tmp.filter = fr;
    }
    return &tmp;
  }

  pkt::FlowIndex i = flows_.lookup(p.key, p.flow_hash(), clock_.now());
  if (i == pkt::kNoFlow) i = create_flow_entry(p);
  p.fix = i;
  // Ingress byte accounting (once per packet: fix was kNoFlow until here);
  // the record line is already hot from the probe.
  flows_.rec(i).bytes += p.size();
  return &flows_.rec(i).gates[gi];
}

void Aiu::resolve_flows_burst(std::span<pkt::Packet* const> pkts) {
  if (!opt_.flow_cache_enabled) return;
  const netbase::SimTime now = clock_.now();

  std::uint64_t hashes[kMaxBurst];
  bool parsed[kMaxBurst];
  for (std::size_t base = 0; base < pkts.size(); base += kMaxBurst) {
    const std::size_t n = std::min(kMaxBurst, pkts.size() - base);
    auto chunk = pkts.subspan(base, n);

    // Pass 1: hash every key once and start pulling the bucket heads.
    for (std::size_t i = 0; i < n; ++i) {
      pkt::Packet& p = *chunk[i];
      parsed[i] = p.key_valid || pkt::extract_flow_key(p);
      if (!parsed[i]) continue;
      hashes[i] = p.flow_hash();
      flows_.prefetch(hashes[i]);
    }
    // Pass 2: bucket heads are (becoming) resident; chase one level into
    // the chain so the FlowRecords arrive before the probe loop needs them.
    for (std::size_t i = 0; i < n; ++i)
      if (parsed[i]) flows_.prefetch_record(hashes[i]);

    // Pass 3: resolve. A small memo of the chunk's recent flows turns both
    // packet trains (back-to-back packets of one flow) and round-robin
    // interleavings of a few flows into straight LRU touches, skipping the
    // hash-chain probe. The memo keys on hash *and* full key equality, so a
    // collision can never bind a packet to the wrong flow; a memo hit's
    // accounting (touch + bytes) is exactly a lookup hit's.
    constexpr std::size_t kMemo = 4;
    const pkt::Packet* mpkt[kMemo] = {};
    std::uint64_t mhash[kMemo] = {};
    pkt::FlowIndex mfix[kMemo] = {};
    std::size_t mn = 0, mvict = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!parsed[i]) continue;
      pkt::Packet& p = *chunk[i];
      if (p.fix != pkt::kNoFlow) continue;  // e.g. reprocessed fragment
      bool hit = false;
      for (std::size_t s = 0; s < mn; ++s) {
        if (mhash[s] == hashes[i] && p.key == mpkt[s]->key) {
          flows_.touch(mfix[s], now);
          p.fix = mfix[s];
          flows_.rec(mfix[s]).bytes += p.size();
          hit = true;
          break;
        }
      }
      if (hit) continue;
      pkt::FlowIndex f = flows_.lookup(p.key, hashes[i], now);
      if (f == pkt::kNoFlow) f = create_flow_entry(p);
      p.fix = f;
      flows_.rec(f).bytes += p.size();
      const std::size_t s = mn < kMemo ? mn++ : mvict++ % kMemo;
      mpkt[s] = &p;
      mhash[s] = hashes[i];
      mfix[s] = f;
    }
  }
}

}  // namespace rp::aiu
