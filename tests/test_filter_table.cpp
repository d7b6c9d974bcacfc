// Tests for the DAG classifier against the linear-scan reference, including
// the paper's own Table 1 example, set-pruning correctness, ambiguity
// resolution on overlapping port ranges, and randomized equivalence sweeps
// parameterized over BMP engines and the collapse optimization.
#include <gtest/gtest.h>

#include "aiu/filter_table.hpp"
#include "netbase/memaccess.hpp"
#include "tgen/workload.hpp"

namespace rp::aiu {
namespace {

using netbase::MemAccess;
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

}  // namespace
}  // namespace rp::aiu
