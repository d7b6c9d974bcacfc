// Tests for the DAG classifier against the linear-scan reference, including
// the paper's own Table 1 example, set-pruning correctness, ambiguity
// resolution on overlapping port ranges, and randomized equivalence sweeps
// parameterized over BMP engines and the collapse optimization. The
// in-place patch is checked against a fresh build after every batch
// (DagPatchProperty), and the lookups after a control op against an
// allocation counter (DagNoPacketPathBuild).
#include <gtest/gtest.h>

#include <algorithm>

#include "aiu/aiu.hpp"
#include "aiu/filter_table.hpp"
#include "alloc_count.hpp"
#include "netbase/memaccess.hpp"
#include "plugin/pcu.hpp"
#include "tgen/workload.hpp"

namespace rp::aiu {
namespace {

using netbase::MemAccess;
using netbase::MemAccessScope;
using netbase::Rng;

pkt::FlowKey key(const char* src, const char* dst, std::uint8_t proto,
                 std::uint16_t sp, std::uint16_t dp, pkt::IfIndex ifc = 0) {
  return {*netbase::IpAddr::parse(src), *netbase::IpAddr::parse(dst),
          proto, sp, dp, ifc};
}

Filter F(const char* spec) {
  auto f = Filter::parse(spec);
  EXPECT_TRUE(f) << spec;
  return *f;
}

TEST(DagFilterTable, PaperTable1Example) {
  // Table 1 of the paper (source, destination, protocol; other fields *):
  //  1: 129.*            192.94.233.10    TCP
  //  2: 128.252.153.1    128.252.153.7    UDP
  //  3: 128.252.153.1    128.252.153.7    TCP
  //  4: 128.252.153.*    *                UDP
  DagFilterTable t;
  auto* f1 = t.insert(F("129.0.0.0/8 192.94.233.10 tcp * * *"), nullptr);
  auto* f2 = t.insert(F("128.252.153.1 128.252.153.7 udp * * *"), nullptr);
  auto* f3 = t.insert(F("128.252.153.1 128.252.153.7 tcp * * *"), nullptr);
  auto* f4 = t.insert(F("128.252.153.0/24 * udp * * *"), nullptr);
  ASSERT_EQ(t.size(), 4u);

  // The paper's lookup walk: <128.252.153.1, 128.252.153.7, UDP> -> filter 2.
  EXPECT_EQ(t.lookup(key("128.252.153.1", "128.252.153.7", 17, 5, 5)), f2);
  EXPECT_EQ(t.lookup(key("128.252.153.1", "128.252.153.7", 6, 5, 5)), f3);
  EXPECT_EQ(t.lookup(key("129.4.5.6", "192.94.233.10", 6, 5, 5)), f1);
  // Filter 2 is a proper subset of filter 4: other 128.252.153.* UDP
  // traffic falls back to filter 4.
  EXPECT_EQ(t.lookup(key("128.252.153.9", "128.252.153.7", 17, 5, 5)), f4);
  EXPECT_EQ(t.lookup(key("128.252.153.1", "1.2.3.4", 17, 5, 5)), f4);
  // Disjoint from everything: no match.
  EXPECT_EQ(t.lookup(key("5.5.5.5", "6.6.6.6", 6, 5, 5)), nullptr);
  // TCP from 128.252.153.9 matches nothing (filter 4 is UDP-only).
  EXPECT_EQ(t.lookup(key("128.252.153.9", "128.252.153.7", 6, 5, 5)), nullptr);
}

TEST(DagFilterTable, SetPruningReplication) {
  // A less specific filter must remain reachable under a more specific
  // source edge chosen by the LPM (no backtracking in set-pruning tries).
  DagFilterTable t;
  auto* wide = t.insert(F("10.0.0.0/8 * * * * *"), nullptr);
  t.insert(F("10.1.1.1 99.99.99.99 tcp * * *"), nullptr);
  // Key matches the /32 source edge but not the narrow filter's dst: the
  // wide filter must still win.
  EXPECT_EQ(t.lookup(key("10.1.1.1", "1.2.3.4", 17, 1, 1)), wide);
}

TEST(DagFilterTable, MostSpecificWinsLexicographically) {
  DagFilterTable t;
  t.insert(F("10.0.0.0/8 20.0.0.0/8 * * * *"), nullptr);
  auto* more = t.insert(F("10.0.0.0/16 * * * * *"), nullptr);
  // Longer source prefix wins even though the other filter has a longer dst.
  EXPECT_EQ(t.lookup(key("10.0.1.1", "20.1.1.1", 6, 1, 1)), more);
}

TEST(DagFilterTable, OverlappingPortRangesResolveToIntersection) {
  DagFilterTable t;
  auto* a = t.insert(F("* * * 0-100 * *"), nullptr);
  auto* b = t.insert(F("* * * 50-150 * *"), nullptr);
  // Inside the intersection either could match; the tie-break (equal
  // specificity by width? no: 0-100 and 50-150 have equal width, first
  // installed wins).
  auto* hit = t.lookup(key("1.1.1.1", "2.2.2.2", 6, 75, 1));
  EXPECT_EQ(hit, a);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 6, 25, 1)), a);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 6, 125, 1)), b);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 6, 175, 1)), nullptr);
}

TEST(DagFilterTable, ExactPortBeatsRange) {
  DagFilterTable t;
  auto* range = t.insert(F("* * * 0-1023 * *"), nullptr);
  auto* exact = t.insert(F("* * * 53 * *"), nullptr);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 17, 53, 9)), exact);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 17, 54, 9)), range);
}

TEST(DagFilterTable, InterfaceField) {
  DagFilterTable t;
  auto* if1 = t.insert(F("* * * * * 1"), nullptr);
  auto* any = t.insert(F("* * tcp * * *"), nullptr);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 17, 1, 1, 1)), if1);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 17, 1, 1, 2)), nullptr);
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 6, 1, 1, 2)), any);
}

TEST(DagFilterTable, RebindUpdatesInstancePointer) {
  DagFilterTable t;
  auto* r1 = t.insert(F("* * udp * * *"), nullptr);
  auto* r2 =
      t.insert(F("* * udp * * *"), reinterpret_cast<plugin::PluginInstance*>(4));
  EXPECT_EQ(r1, r2);  // same record, rebound
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(r1->instance, reinterpret_cast<plugin::PluginInstance*>(4));
}

TEST(DagFilterTable, RemoveAndPurge) {
  DagFilterTable t;
  auto* inst = reinterpret_cast<plugin::PluginInstance*>(8);
  t.insert(F("10.0.0.0/8 * * * * *"), inst);
  t.insert(F("11.0.0.0/8 * * * * *"), nullptr);
  EXPECT_EQ(t.remove(F("10.0.0.0/8 * * * * *")), Status::ok);
  EXPECT_EQ(t.remove(F("10.0.0.0/8 * * * * *")), Status::not_found);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(key("10.1.1.1", "2.2.2.2", 6, 1, 1)), nullptr);

  t.insert(F("12.0.0.0/8 * * * * *"), inst);
  t.insert(F("13.0.0.0/8 * * * * *"), inst);
  EXPECT_EQ(t.purge_instance(inst), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(DagFilterTable, EmptyTable) {
  DagFilterTable t;
  EXPECT_EQ(t.lookup(key("1.1.1.1", "2.2.2.2", 6, 1, 1)), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(DagFilterTable, MixedFamilies) {
  DagFilterTable t;
  auto* v4 = t.insert(F("10.0.0.0/8 * * * * *"), nullptr);
  auto* v6 = t.insert(F("2001:db8::/32 * * * * *"), nullptr);
  auto* any = t.insert(F("* * icmp * * *"), nullptr);
  EXPECT_EQ(t.lookup(key("10.1.1.1", "9.9.9.9", 6, 1, 1)), v4);
  EXPECT_EQ(t.lookup(key("2001:db8::5", "2001::1", 6, 1, 1)), v6);
  EXPECT_EQ(t.lookup(key("8.8.8.8", "9.9.9.9", 1, 0, 0)), any);
  EXPECT_EQ(t.lookup(key("2002::1", "2001::1", 1, 0, 0)), any);
}

TEST(LinearFilterTable, AgreesOnPaperExample) {
  LinearFilterTable t;
  auto* f1 = t.insert(F("129.0.0.0/8 192.94.233.10 tcp * * *"), nullptr);
  auto* f2 = t.insert(F("128.252.153.1 128.252.153.7 udp * * *"), nullptr);
  t.insert(F("128.252.153.1 128.252.153.7 tcp * * *"), nullptr);
  auto* f4 = t.insert(F("128.252.153.0/24 * udp * * *"), nullptr);
  EXPECT_EQ(t.lookup(key("128.252.153.1", "128.252.153.7", 17, 5, 5)), f2);
  EXPECT_EQ(t.lookup(key("129.4.5.6", "192.94.233.10", 6, 5, 5)), f1);
  EXPECT_EQ(t.lookup(key("128.252.153.9", "128.252.153.7", 17, 5, 5)), f4);
}


TEST(DagFilterTable, DumpDotIsWellFormed) {
  DagFilterTable t;
  t.insert(F("10.0.0.0/8 * tcp * * *"), nullptr);
  t.insert(F("* * udp 53 * *"), nullptr);
  std::string dot = t.dump_dot();
  EXPECT_NE(dot.find("digraph filter_dag"), std::string::npos);
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);  // leaves present
  // Balanced braces, ends with newline.
  EXPECT_EQ(dot.front(), 'd');
  EXPECT_NE(dot.find("}\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: the DAG must return a filter of identical
// specificity to the linear reference for every key, across BMP engines and
// with/without the collapse optimization.

struct EquivParam {
  const char* engine;
  bool collapse;
  netbase::IpVersion ver;
  std::uint64_t seed;
};

// gtest prints the parameter into the ctest name. Its default byte dump
// would carry the engine-name pointer and the struct padding, which change
// from run to run, so spell the fields out instead.
void PrintTo(const EquivParam& p, std::ostream* os) {
  *os << '(' << p.engine << ", " << (p.collapse ? "collapse" : "no-collapse")
      << ", " << (p.ver == netbase::IpVersion::v4 ? "v4" : "v6")
      << ", seed=" << p.seed << ')';
}

class DagEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(DagEquivalence, MatchesLinearReference) {
  const auto& prm = GetParam();
  DagFilterTable::Options opt;
  opt.bmp_engine = prm.engine;
  opt.collapse = prm.collapse;
  DagFilterTable dag(opt);
  LinearFilterTable lin;

  tgen::FilterSetSpec spec;
  spec.count = 60;
  spec.ver = prm.ver;
  spec.seed = prm.seed;
  auto filters = tgen::random_filters(spec);
  for (const auto& f : filters) {
    dag.insert(f, nullptr);
    lin.insert(f, nullptr);
  }

  Rng rng(prm.seed ^ 0xabcdef);
  for (int i = 0; i < 400; ++i) {
    pkt::FlowKey k;
    if (i % 2) {
      k = tgen::random_key(rng, prm.ver);
    } else {
      k = tgen::matching_key(filters[rng.below(filters.size())], rng);
    }
    const FilterRecord* d = dag.lookup(k);
    const FilterRecord* l = lin.lookup(k);
    ASSERT_EQ(d == nullptr, l == nullptr) << k.to_string();
    if (d && d != l) {
      // Both must match, with identical specificity (distinct filters can
      // tie; the DAG and the scan may break ties differently only if the
      // records differ but compare equal — require equal specificity AND
      // both actually matching).
      EXPECT_TRUE(d->filter.matches(k)) << k.to_string();
      EXPECT_TRUE(l->filter.matches(k)) << k.to_string();
      EXPECT_EQ(compare_specificity(d->filter, l->filter), 0)
          << "dag=" << d->filter.to_string() << " lin=" << l->filter.to_string()
          << " key=" << k.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DagEquivalence,
    ::testing::Values(
        EquivParam{"bsl", true, netbase::IpVersion::v4, 1},
        EquivParam{"bsl", false, netbase::IpVersion::v4, 2},
        EquivParam{"patricia", true, netbase::IpVersion::v4, 3},
        EquivParam{"cpe", true, netbase::IpVersion::v4, 4},
        EquivParam{"bsl", true, netbase::IpVersion::v6, 5},
        EquivParam{"patricia", false, netbase::IpVersion::v6, 6},
        EquivParam{"cpe", false, netbase::IpVersion::v6, 7},
        EquivParam{"bsl", true, netbase::IpVersion::v4, 8},
        EquivParam{"bsl", true, netbase::IpVersion::v4, 9}));

TEST(DagFilterTable, LookupCostIndependentOfFilterCount) {
  // The headline property: memory accesses per lookup do not grow with the
  // number of installed filters (compare 100 vs 2000 filters).
  auto measure = [](std::size_t n) {
    DagFilterTable t;
    tgen::FilterSetSpec spec;
    spec.count = n;
    spec.seed = 42;
    spec.p_wild_src = 0;  // fully-specified prefixes stress the LPM
    spec.p_wild_dst = 0;
    for (const auto& f : tgen::random_filters(spec)) t.insert(f, nullptr);
    Rng rng(7);
    std::uint64_t worst = 0;
    for (int i = 0; i < 200; ++i) {
      auto k = tgen::random_key(rng);
      MemAccess::reset();
      t.lookup(k);
      worst = std::max(worst, MemAccess::total());
    }
    return worst;
  };
  auto small = measure(100);
  auto large = measure(2000);
  // Allow a small slack (one extra hash level), but no O(n) growth.
  EXPECT_LE(large, small + 6);
}

TEST(DagFilterTable, CollapseReducesNodeCount) {
  tgen::FilterSetSpec spec;
  spec.count = 100;
  spec.seed = 77;
  spec.p_wild_proto = 1.0;  // everything wildcards proto: collapsible level
  auto filters = tgen::random_filters(spec);

  DagFilterTable::Options with, without;
  with.collapse = true;
  without.collapse = false;
  DagFilterTable a(with), b(without);
  for (const auto& f : filters) {
    a.insert(f, nullptr);
    b.insert(f, nullptr);
  }
  EXPECT_LT(a.node_count(), b.node_count());
}

// ---------------------------------------------------------------------------
// In-place patching: after every batch of adds, removes, re-adds and
// rebinds, the patched DAG must be the DAG a fresh build of the live filters
// makes — the same reachable node count, the same result record and the same
// MemAccess count for every probe — and the patch's work must follow what
// changed, not the table's size.

// dual_stack draws half the filters from each family; its `ver` is unused.
enum class Mix { wildcard_heavy, port_range_heavy, dual_stack };

struct PatchParam {
  const char* engine;
  bool collapse;
  netbase::IpVersion ver;
  Mix mix;
  std::uint64_t seed;
};

void PrintTo(const PatchParam& p, std::ostream* os) {
  *os << '(' << p.engine << ", " << (p.collapse ? "collapse" : "no-collapse")
      << ", ";
  if (p.mix == Mix::dual_stack)
    *os << "v4+v6";
  else
    *os << (p.ver == netbase::IpVersion::v4 ? "v4, " : "v6, ")
        << (p.mix == Mix::wildcard_heavy ? "wildcard-heavy" : "port-range-heavy");
  *os << ", seed=" << p.seed << ')';
}

class DagPatchProperty : public ::testing::TestWithParam<PatchParam> {};

// A patch may visit a node or touch an edge at most this many times per op
// and per node it creates, changes or frees (the sweep's worst batch reads
// ~3). Re-deriving the DAG from the root visits every root edge, 160-260
// here, whatever the batch changes: several times the bound for a typical
// batch of a few ops and a few dozen changed nodes.
constexpr std::uint64_t kWorkPerChange = 4;

TEST_P(DagPatchProperty, PatchedDagIsAFreshBuild) {
  const PatchParam& prm = GetParam();
  DagFilterTable::Options opt;
  opt.bmp_engine = prm.engine;
  opt.collapse = prm.collapse;

  tgen::FilterSetSpec spec;
  spec.count = 480;
  spec.ver = prm.ver;
  spec.seed = prm.seed;
  if (prm.mix == Mix::wildcard_heavy) {
    spec.p_wild_src = 0.5;
    spec.p_wild_dst = 0.5;
    spec.p_wild_proto = 0.6;
  } else if (prm.mix == Mix::port_range_heavy) {
    spec.p_port_exact = 0.3;
    spec.p_port_range = 0.5;
  }
  std::vector<Filter> generated = tgen::random_filters(spec);
  if (prm.mix == Mix::dual_stack) {
    spec.ver = prm.ver == netbase::IpVersion::v4 ? netbase::IpVersion::v6
                                                 : netbase::IpVersion::v4;
    const std::vector<Filter> other = tgen::random_filters(spec);
    for (std::size_t i = 1; i < generated.size(); i += 2) generated[i] = other[i];
  }
  std::vector<Filter> universe;
  for (const Filter& f : generated)
    if (std::find(universe.begin(), universe.end(), f) == universe.end())
      universe.push_back(f);
  ASSERT_GT(universe.size(), 400u);

  auto* inst_a = reinterpret_cast<plugin::PluginInstance*>(16);
  auto* inst_b = reinterpret_cast<plugin::PluginInstance*>(32);
  // The live set in record-id order: a fresh table filled in this order
  // breaks specificity ties the way the patched one does.
  std::vector<std::pair<Filter, plugin::PluginInstance*>> live;
  std::vector<Filter> removed;
  std::size_t next_fresh = 320;

  DagFilterTable dag(opt);
  for (std::size_t i = 0; i < next_fresh; ++i) {
    live.push_back({universe[i], i % 3 ? inst_a : inst_b});
    dag.insert(universe[i], live.back().second);
  }
  dag.prepare();
  ASSERT_EQ(dag.rebuild_count(), 1u);

  Rng rng(prm.seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<pkt::FlowKey> probes;
  for (int i = 0; i < 300; ++i)
    probes.push_back(i % 2 ? tgen::random_key(rng, i % 4 == 1 ? prm.ver : spec.ver)
                           : tgen::matching_key(
                                 universe[rng.below(universe.size())], rng));

  auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    DagFilterTable fresh(opt);
    for (const auto& [f, inst] : live) fresh.insert(f, inst);
    fresh.prepare();
    ASSERT_EQ(dag.size(), live.size());
    ASSERT_EQ(dag.reachable_node_count(), fresh.reachable_node_count());
    ASSERT_EQ(dag.node_count(), dag.reachable_node_count());  // nothing leaked
    for (const pkt::FlowKey& k : probes) {
      MemAccess::reset();
      const FilterRecord* got = dag.lookup(k);
      const std::uint64_t got_accesses = MemAccess::total();
      MemAccess::reset();
      const FilterRecord* want = fresh.lookup(k);
      const std::uint64_t want_accesses = MemAccess::total();
      ASSERT_EQ(got == nullptr, want == nullptr) << k.to_string();
      if (got) {
        ASSERT_EQ(got->filter, want->filter) << k.to_string();
        ASSERT_EQ(got->instance, want->instance) << k.to_string();
      }
      ASSERT_EQ(got_accesses, want_accesses) << k.to_string();
    }
  };

  for (int batch = 0; batch < 24; ++batch) {
    const DagFilterTable::PatchStats before = dag.patch_stats();
    const std::size_t n_ops = 1 + rng.below(10);
    for (std::size_t o = 0; o < n_ops; ++o) {
      const std::uint64_t pick = rng.below(10);
      if (pick < 4 && next_fresh < universe.size()) {  // add a fresh filter
        live.push_back({universe[next_fresh++], inst_a});
        dag.insert(live.back().first, inst_a);
      } else if (pick < 7 && !live.empty()) {  // remove a live one
        const std::size_t v = rng.below(live.size());
        ASSERT_EQ(dag.remove(live[v].first), Status::ok);
        removed.push_back(live[v].first);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
      } else if (pick < 9 && !removed.empty()) {  // re-add a removed one
        const std::size_t v = rng.below(removed.size());
        live.push_back({removed[v], inst_b});
        dag.insert(removed[v], inst_b);
        removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(v));
      } else if (!live.empty()) {  // rebind: same record, new instance
        auto& [f, inst] = live[rng.below(live.size())];
        inst = inst == inst_a ? inst_b : inst_a;
        dag.insert(f, inst);
      }
    }
    dag.patch();
    ASSERT_NO_FATAL_FAILURE(check(("batch " + std::to_string(batch)).c_str()));
    const DagFilterTable::PatchStats& after = dag.patch_stats();
    const std::uint64_t ops = after.ops - before.ops;
    const std::uint64_t work = after.work - before.work;
    const std::uint64_t changed = after.nodes_changed - before.nodes_changed;
    EXPECT_LE(work, kWorkPerChange * (ops + changed))
        << "batch " << batch << ": " << ops << " ops changed " << changed
        << " nodes";
  }

  // An instance purge takes the same in-place path.
  const std::size_t purged = static_cast<std::size_t>(
      std::count_if(live.begin(), live.end(),
                    [&](const auto& e) { return e.second == inst_b; }));
  EXPECT_EQ(dag.purge_instance(inst_b), purged);
  std::erase_if(live, [&](const auto& e) { return e.second == inst_b; });
  dag.patch();
  ASSERT_NO_FATAL_FAILURE(check("purge"));
  EXPECT_EQ(dag.rebuild_count(), 1u);  // every op after the build was in place
}

std::vector<PatchParam> patch_params() {
  std::vector<PatchParam> out;
  std::uint64_t seed = 101;
  for (const char* engine : {"bsl", "cpe", "patricia"})
    for (netbase::IpVersion ver : {netbase::IpVersion::v4, netbase::IpVersion::v6})
      for (bool collapse : {true, false})
        for (Mix mix : {Mix::wildcard_heavy, Mix::port_range_heavy})
          out.push_back({engine, collapse, ver, mix, seed++});
  for (const char* engine : {"bsl", "cpe", "patricia"})
    for (bool collapse : {true, false})
      out.push_back({engine, collapse, netbase::IpVersion::v4,
                     Mix::dual_stack, seed++});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DagPatchProperty,
                         ::testing::ValuesIn(patch_params()));

// ---------------------------------------------------------------------------
// A control op leaves nothing for the packet path: after a filter batch, a
// create_filter or a remove_filter on a built table, the first lookups of a
// key set allocate nothing (no engine is built on first use) and cost the
// MemAccess count of the same lookups repeated. MemAccess alone cannot see
// a deferred bsl build, which counts no access; the allocation count can.

class DagNoPacketPathBuild : public ::testing::TestWithParam<const char*> {};

TEST_P(DagNoPacketPathBuild, FirstLookupAfterAControlOpAllocatesNothing) {
  netbase::SimClock clock;
  plugin::PluginControlUnit pcu;
  Aiu::Options opt;
  opt.dag.bmp_engine = GetParam();
  Aiu aiu(pcu, clock, opt);
  constexpr auto kGate = plugin::PluginType::stats;

  tgen::FilterSetSpec spec;
  spec.count = 2048 + 6 * 32 + 1;
  spec.seed = 2026;
  std::vector<Filter> filters;
  for (const Filter& f : tgen::random_filters(spec))
    if (std::find(filters.begin(), filters.end(), f) == filters.end())
      filters.push_back(f);
  const std::size_t base = filters.size() - 6 * 32 - 1;

  std::vector<Aiu::FilterOp> ops;
  for (std::size_t i = 0; i < base; ++i)
    ops.push_back({Aiu::FilterOp::Kind::add, kGate, filters[i], nullptr});
  aiu.apply_filter_batch(ops);
  const auto* dag = dynamic_cast<const DagFilterTable*>(aiu.filter_table(kGate));
  ASSERT_NE(dag, nullptr);

  Rng rng(5);
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < 256; ++i)
    keys.push_back(i % 2 ? tgen::random_key(rng)
                         : tgen::matching_key(filters[rng.below(filters.size())], rng));

  auto probe = [&](const std::string& after) {
    SCOPED_TRACE(after);
    std::uint64_t first_accesses = 0, second_accesses = 0;
    {
      rp::testing::AllocCount allocs;
      MemAccessScope scope;
      for (const pkt::FlowKey& k : keys) dag->lookup(k);
      first_accesses = scope.elapsed();
      EXPECT_EQ(allocs.count(), 0u) << "operator new calls in the first lookups";
    }
    MemAccessScope scope;
    for (const pkt::FlowKey& k : keys) dag->lookup(k);
    second_accesses = scope.elapsed();
    EXPECT_EQ(first_accesses, second_accesses);
  };
  probe("base batch");

  // The benchmark's stream: each batch adds 32 fresh filters and removes
  // the previous batch's.
  std::size_t next = base;
  for (int b = 0; b < 6; ++b) {
    ops.clear();
    for (int j = 0; j < 32; ++j)
      ops.push_back({Aiu::FilterOp::Kind::add, kGate, filters[next + j], nullptr});
    if (b > 0)
      for (int j = 0; j < 32; ++j)
        ops.push_back({Aiu::FilterOp::Kind::remove, kGate,
                       filters[next - 32 + j], nullptr});
    next += 32;
    const auto res = aiu.apply_filter_batch(ops);
    EXPECT_EQ(res.failed, 0u);
    probe("batch " + std::to_string(b));
  }
  ASSERT_EQ(aiu.create_filter(kGate, filters[next], nullptr), Status::ok);
  probe("create_filter");
  ASSERT_EQ(aiu.remove_filter(kGate, filters[0]), Status::ok);
  probe("remove_filter");
  EXPECT_EQ(dag->rebuild_count(), 1u);  // one build, then in-place ops only
}

INSTANTIATE_TEST_SUITE_P(Engines, DagNoPacketPathBuild,
                         ::testing::Values("bsl", "cpe", "patricia"));

}  // namespace
}  // namespace rp::aiu
