// Tests for the three BMP (longest-prefix-match) engines, including a
// parameterized cross-engine agreement sweep against a brute-force
// reference, and the memory-access bounds the paper's Table 2 relies on.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "bmp/cpe.hpp"
#include "bmp/lpm.hpp"
#include "bmp/patricia.hpp"
#include "bmp/waldvogel.hpp"
#include "netbase/memaccess.hpp"
#include "tgen/workload.hpp"

namespace rp::bmp {
namespace {

using netbase::IpVersion;
using netbase::MemAccess;
using netbase::Rng;
using netbase::U128;

U128 v4key(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
  return netbase::IpAddr(netbase::Ipv4Addr(a, b, c, d)).key();
}

U128 v4rand(Rng& rng) {
  return netbase::IpAddr(
             netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
      .key();
}

using Ref = std::map<std::pair<U128, std::uint8_t>, LpmValue>;

std::optional<LpmMatch> ref_lookup(const Ref& ref, U128 key) {
  std::optional<LpmMatch> best;
  for (const auto& [kp, v] : ref)
    if ((key & U128::prefix_mask(kp.second)) == kp.first &&
        (!best || kp.second > best->plen))
      best = LpmMatch{v, kp.second};
  return best;
}

class EngineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineTest, BasicInsertLookupRemove) {
  auto e = make_lpm_engine(GetParam(), 32);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->insert(v4key(10, 0, 0, 0), 8, 100), Status::ok);
  EXPECT_EQ(e->insert(v4key(10, 1, 0, 0), 16, 200), Status::ok);
  EXPECT_EQ(e->insert(v4key(10, 1, 2, 3), 32, 300), Status::ok);
  EXPECT_EQ(e->size(), 3u);

  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(10, 9, 9, 9), m));
  EXPECT_EQ(m.value, 100u);
  EXPECT_EQ(m.plen, 8);
  ASSERT_TRUE(e->lookup(v4key(10, 1, 9, 9), m));
  EXPECT_EQ(m.value, 200u);
  ASSERT_TRUE(e->lookup(v4key(10, 1, 2, 3), m));
  EXPECT_EQ(m.value, 300u);
  EXPECT_FALSE(e->lookup(v4key(11, 0, 0, 1), m));

  EXPECT_EQ(e->remove(v4key(10, 1, 0, 0), 16), Status::ok);
  ASSERT_TRUE(e->lookup(v4key(10, 1, 9, 9), m));
  EXPECT_EQ(m.value, 100u);  // falls back to /8
  EXPECT_EQ(e->remove(v4key(10, 1, 0, 0), 16), Status::not_found);
}

TEST_P(EngineTest, DefaultRoute) {
  auto e = make_lpm_engine(GetParam(), 32);
  EXPECT_EQ(e->insert({}, 0, 7), Status::ok);
  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(1, 2, 3, 4), m));
  EXPECT_EQ(m.value, 7u);
  EXPECT_EQ(m.plen, 0);
  e->insert(v4key(1, 0, 0, 0), 8, 9);
  ASSERT_TRUE(e->lookup(v4key(1, 2, 3, 4), m));
  EXPECT_EQ(m.value, 9u);
}

TEST_P(EngineTest, InsertOverwritesValue) {
  auto e = make_lpm_engine(GetParam(), 32);
  e->insert(v4key(10, 0, 0, 0), 8, 1);
  e->insert(v4key(10, 0, 0, 0), 8, 2);
  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(10, 0, 0, 1), m));
  EXPECT_EQ(m.value, 2u);
}

TEST_P(EngineTest, Ipv6Prefixes) {
  auto e = make_lpm_engine(GetParam(), 128);
  auto p1 = *netbase::IpPrefix::parse("2001:db8::/32");
  auto p2 = *netbase::IpPrefix::parse("2001:db8:1::/48");
  e->insert(p1.addr.key(), p1.len, 1);
  e->insert(p2.addr.key(), p2.len, 2);
  LpmMatch m;
  auto a1 = netbase::IpAddr(*netbase::Ipv6Addr::parse("2001:db8:2::5"));
  ASSERT_TRUE(e->lookup(a1.key(), m));
  EXPECT_EQ(m.value, 1u);
  auto a2 = netbase::IpAddr(*netbase::Ipv6Addr::parse("2001:db8:1::5"));
  ASSERT_TRUE(e->lookup(a2.key(), m));
  EXPECT_EQ(m.value, 2u);
}

// Cross-engine agreement with a brute-force reference on random databases.
TEST_P(EngineTest, AgreesWithReferenceV4) {
  auto e = make_lpm_engine(GetParam(), 32);
  auto prefixes = tgen::random_prefixes(500, IpVersion::v4, 11);
  Ref ref;
  LpmValue next = 1;
  for (const auto& p : prefixes) {
    ref[{p.addr.key(), p.len}] = next;
    e->insert(p.addr.key(), p.len, next);
    ++next;
  }

  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    // Half the probes are random; half are specializations of a prefix so
    // they actually hit.
    U128 key;
    if (i % 2) {
      key = netbase::IpAddr(
                netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
                .key();
    } else {
      const auto& p = prefixes[rng.below(prefixes.size())];
      U128 mask = U128::prefix_mask(p.len);
      U128 rnd = netbase::IpAddr(
                     netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
                     .key();
      key = (p.addr.key() & mask) | (rnd & ~mask);
    }
    auto want = ref_lookup(ref, key);
    LpmMatch got;
    bool found = e->lookup(key, got);
    ASSERT_EQ(found, want.has_value());
    if (want) {
      EXPECT_EQ(got.plen, want->plen);
      EXPECT_EQ(got.value, want->value);
    }
  }
}

TEST_P(EngineTest, RemoveHalfStaysConsistent) {
  auto e = make_lpm_engine(GetParam(), 32);
  auto prefixes = tgen::random_prefixes(200, IpVersion::v4, 13);
  Ref ref;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const auto& p = prefixes[i];
    ref[{p.addr.key(), p.len}] = static_cast<LpmValue>(i);
    e->insert(p.addr.key(), p.len, static_cast<LpmValue>(i));
  }
  // Remove every other distinct prefix.
  std::size_t n = 0;
  for (auto it = ref.begin(); it != ref.end();) {
    if (n++ % 2 == 0) {
      EXPECT_EQ(e->remove(it->first.first, it->first.second), Status::ok);
      it = ref.erase(it);
    } else {
      ++it;
    }
  }
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    U128 key = netbase::IpAddr(
                   netbase::Ipv4Addr(static_cast<std::uint32_t>(rng.next())))
                   .key();
    const auto want = ref_lookup(ref, key);
    LpmMatch got;
    ASSERT_EQ(e->lookup(key, got), want.has_value());
    if (want) {
      EXPECT_EQ(got.value, want->value);
    }
  }
}

TEST_P(EngineTest, FindIsExactMatch) {
  auto e = make_lpm_engine(GetParam(), 32);
  ASSERT_EQ(e->insert({}, 0, 7), Status::ok);
  ASSERT_EQ(e->insert(v4key(10, 0, 0, 0), 8, 100), Status::ok);
  ASSERT_EQ(e->insert(v4key(10, 1, 0, 0), 16, 200), Status::ok);
  ASSERT_EQ(e->insert(v4key(10, 1, 2, 3), 32, 0xFFFFFFFFu), Status::ok);

  LpmValue v = 0;
  ASSERT_TRUE(e->find(v4key(10, 1, 0, 0), 16, v));
  EXPECT_EQ(v, 200u);
  ASSERT_TRUE(e->find(v4key(10, 9, 9, 9), 8, v));  // host bits ignored
  EXPECT_EQ(v, 100u);
  ASSERT_TRUE(e->find(v4key(1, 2, 3, 4), 0, v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(e->find(v4key(10, 1, 2, 3), 32, v));
  EXPECT_EQ(v, 0xFFFFFFFFu);  // the full value range survives cpe's slot
  LpmMatch m;
  ASSERT_TRUE(e->lookup(v4key(10, 1, 2, 3), m));
  EXPECT_EQ(m.value, 0xFFFFFFFFu);
  EXPECT_EQ(m.plen, 32);

  EXPECT_FALSE(e->find(v4key(10, 0, 0, 0), 7, v));   // covers the /8
  EXPECT_FALSE(e->find(v4key(10, 1, 2, 0), 24, v));  // covered by the /16
  EXPECT_FALSE(e->find(v4key(10, 0, 0, 0), 16, v));  // the /8's bits at /16
  EXPECT_FALSE(e->find(v4key(10, 1, 2, 2), 32, v));  // a sibling /32
  EXPECT_FALSE(e->find(v4key(10, 0, 0, 0), 33, v));  // beyond the width

  ASSERT_EQ(e->remove(v4key(10, 1, 0, 0), 16), Status::ok);
  EXPECT_FALSE(e->find(v4key(10, 1, 0, 0), 16, v));
  ASSERT_TRUE(e->find(v4key(10, 1, 2, 3), 32, v));
  ASSERT_EQ(e->remove({}, 0), Status::ok);
  EXPECT_FALSE(e->find({}, 0, v));

  auto e6 = make_lpm_engine(GetParam(), 128);
  const U128 a =
      netbase::IpAddr(*netbase::Ipv6Addr::parse("2001:db8::1")).key();
  ASSERT_EQ(e6->insert(a, 128, 0xFFFFFFFFu), Status::ok);
  ASSERT_TRUE(e6->find(a, 128, v));
  EXPECT_EQ(v, 0xFFFFFFFFu);
  EXPECT_FALSE(e6->find(a, 127, v));
  EXPECT_FALSE(e6->find(a ^ U128{0, 1}, 128, v));
  ASSERT_TRUE(e6->lookup(a, m));
  EXPECT_EQ(m.value, 0xFFFFFFFFu);
  EXPECT_EQ(m.plen, 128);
  EXPECT_FALSE(e6->lookup(a ^ U128{0, 1}, m));
  ASSERT_EQ(e6->remove(a, 128), Status::ok);
  EXPECT_FALSE(e6->find(a, 128, v));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values("patricia", "bsl", "cpe"));

TEST(WaldvogelBsl, ProbeBoundAllLengthsPresent) {
  // Binary search over n distinct lengths costs at most ceil(log2(n+1))
  // probes: 6 when every IPv4 length 1..32 is populated.
  WaldvogelBsl e(32);
  Rng rng(5);
  for (unsigned len = 1; len <= 32; ++len)
    for (int i = 0; i < 8; ++i)
      e.insert(U128{rng.next(), 0} & U128::prefix_mask(len), len, len);
  EXPECT_LE(e.max_probes(), 6u);

  LpmMatch m;
  e.lookup(U128{rng.next(), 0}, m);  // force rebuild outside measurement
  for (int i = 0; i < 100; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), 0}, m);
    EXPECT_LE(MemAccess::total(), 6u);
  }
}

TEST(WaldvogelBsl, ProbeBoundRealisticLengths) {
  // Real filter databases use prefix lengths 8..32 (25 distinct): at most
  // 5 probes — the paper's Table 2 accounting (2 * log2(32)/2 = 10 for two
  // IPv4 address lookups).
  WaldvogelBsl e(32);
  Rng rng(51);
  for (unsigned len = 8; len <= 32; ++len)
    for (int i = 0; i < 8; ++i)
      e.insert(U128{rng.next(), 0} & U128::prefix_mask(len), len, len);
  EXPECT_LE(e.max_probes(), 5u);
  LpmMatch m;
  e.lookup(U128{rng.next(), 0}, m);
  for (int i = 0; i < 100; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), 0}, m);
    EXPECT_LE(MemAccess::total(), 5u);
  }
}

TEST(WaldvogelBsl, Ipv6ProbeBound) {
  // Realistic IPv6 filter lengths 16..64 (49 distinct): at most 6 probes;
  // the paper's 7-per-address (log2(128)) is the all-lengths upper bound.
  WaldvogelBsl e(128);
  Rng rng(6);
  for (unsigned len = 16; len <= 64; ++len)
    e.insert(U128{rng.next(), rng.next()} & U128::prefix_mask(len), len, len);
  EXPECT_LE(e.max_probes(), 6u);
  LpmMatch m;
  e.lookup(U128{1, 1}, m);
  for (int i = 0; i < 100; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), rng.next()}, m);
    EXPECT_LE(MemAccess::total(), 7u);
  }
}

TEST(CpeTrie, AccessBoundIsLevels) {
  CpeTrie e(32);
  auto prefixes = tgen::random_prefixes(300, IpVersion::v4, 21);
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    e.insert(prefixes[i].addr.key(), prefixes[i].len,
             static_cast<LpmValue>(i));
  Rng rng(22);
  LpmMatch m;
  for (int i = 0; i < 200; ++i) {
    MemAccess::reset();
    e.lookup(U128{rng.next(), 0}, m);
    EXPECT_LE(MemAccess::total(), 4u);  // 32/8 levels
  }
}

// 100k fresh /25../28 prefixes added and withdrawn in groups of four over
// ~1k live ones: every withdraw must give back the nodes it emptied, so the
// trie ends up the size a fresh build of the live set has.
template <class Trie>
void cycle_fresh_long_prefixes(Trie& t, Ref& ref) {
  for (const auto& p : tgen::random_prefixes(1000, IpVersion::v4, 41)) {
    const auto v = static_cast<LpmValue>(ref.size());
    ref[{p.addr.key(), p.len}] = v;
    ASSERT_EQ(t.insert(p.addr.key(), p.len, v), Status::ok);
  }
  Rng rng(42);
  std::vector<std::pair<U128, std::uint8_t>> group;
  for (int i = 0; i < 100000; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.range(25, 28));
    const U128 key = v4rand(rng) & U128::prefix_mask(len);
    if (ref.contains({key, len})) continue;
    ASSERT_EQ(t.insert(key, len, 1), Status::ok);
    group.emplace_back(key, len);
    if (group.size() < 4) continue;
    std::swap(group[0], group[rng.below(4)]);
    for (const auto& [k, l] : group) ASSERT_EQ(t.remove(k, l), Status::ok);
    group.clear();
  }
  for (const auto& [k, l] : group) ASSERT_EQ(t.remove(k, l), Status::ok);
  EXPECT_EQ(t.size(), ref.size());
  for (int i = 0; i < 2000; ++i) {
    U128 key = v4rand(rng);
    if (i % 2) {
      const auto it =
          std::next(ref.begin(), std::ptrdiff_t(rng.below(ref.size())));
      key = it->first.first | (key & ~U128::prefix_mask(it->first.second));
    }
    const auto want = ref_lookup(ref, key);
    LpmMatch got;
    ASSERT_EQ(t.lookup(key, got), want.has_value());
    if (want) {
      EXPECT_EQ(got.plen, want->plen);
      EXPECT_EQ(got.value, want->value);
    }
  }
}

TEST(CpeTrie, AddWithdrawCyclesFreeEmptiedNodes) {
  CpeTrie e(32);
  Ref ref;
  cycle_fresh_long_prefixes(e, ref);
  CpeTrie fresh(32);
  for (const auto& [kp, v] : ref) fresh.insert(kp.first, kp.second, v);
  EXPECT_EQ(e.node_count(), fresh.node_count());
  EXPECT_EQ(e.rebuild_count(), 0u);
}

TEST(Patricia, AddWithdrawCyclesFreeEmptiedNodes) {
  PatriciaTrie e(32);
  Ref ref;
  cycle_fresh_long_prefixes(e, ref);
  PatriciaTrie fresh(32);
  for (const auto& [kp, v] : ref) fresh.insert(kp.first, kp.second, v);
  EXPECT_EQ(e.node_count(), fresh.node_count());
  EXPECT_EQ(e.depth(), fresh.depth());
}

// The churn_newflows length mix (8..28) at 100k prefixes puts the trie's
// nodes in dozens of arena chunks; withdraws then free nodes in the middle
// of them. CPE must agree with PATRICIA on every probe.
TEST(CpeTrie, MatchesPatriciaAcrossArenaChunks) {
  CpeTrie cpe(32);
  PatriciaTrie pat(32);
  Rng rng(61);
  std::vector<std::pair<U128, std::uint8_t>> live;
  LpmValue v = 0;
  while (live.size() < 100000) {
    const auto len = static_cast<std::uint8_t>(rng.range(8, 28));
    const U128 key = v4rand(rng) & U128::prefix_mask(len);
    if (pat.find(key, len, v)) continue;
    v = static_cast<LpmValue>(live.size());
    ASSERT_EQ(cpe.insert(key, len, v), Status::ok);
    ASSERT_EQ(pat.insert(key, len, v), Status::ok);
    live.emplace_back(key, len);
  }
  EXPECT_GT(cpe.node_count(), 4 * CpeTrie::kChunkNodes);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t j = rng.below(live.size());
    ASSERT_EQ(cpe.remove(live[j].first, live[j].second), Status::ok);
    ASSERT_EQ(pat.remove(live[j].first, live[j].second), Status::ok);
    live[j] = live.back();
    live.pop_back();
  }
  EXPECT_EQ(cpe.size(), pat.size());
  EXPECT_EQ(cpe.rebuild_count(), 0u);
  for (int i = 0; i < 100000; ++i) {
    U128 key = v4rand(rng);
    if (i % 2) {
      const auto& [k, len] = live[rng.below(live.size())];
      key = k | (key & ~U128::prefix_mask(len));
    }
    LpmMatch want, got;
    const bool hit = pat.lookup(key, want);
    ASSERT_EQ(cpe.lookup(key, got), hit) << "probe " << i;
    if (hit) {
      ASSERT_EQ(got.plen, want.plen) << "probe " << i;
      ASSERT_EQ(got.value, want.value) << "probe " << i;
    }
  }
}

TEST(Patricia, DepthBoundedByWidth) {
  PatriciaTrie e(32);
  auto prefixes = tgen::random_prefixes(1000, IpVersion::v4, 31);
  for (std::size_t i = 0; i < prefixes.size(); ++i)
    e.insert(prefixes[i].addr.key(), prefixes[i].len,
             static_cast<LpmValue>(i));
  EXPECT_LE(e.depth(), 33u);
}

TEST(EngineFactory, UnknownNameIsNull) {
  EXPECT_EQ(make_lpm_engine("nope", 32), nullptr);
}

}  // namespace
}  // namespace rp::bmp
