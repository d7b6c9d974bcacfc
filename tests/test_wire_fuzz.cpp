// Wire-path fuzz (ctest labels: fuzz / fuzz-parallel-tsan; run under
// ASan/UBSan in scripts/ci.sh): pushes >= 100k structure-aware adversarial
// packets per seed (tgen/adversarial.hpp — truncation, length-field lies,
// ext-header chain abuse, fragment overlap/teardrop/oversize) through the
// RouterKernel burst path, the ShardedDatapath, and the reassembler, and
// checks the hardening invariants — zero crashes, exact packet accounting
// (forwarded + dropped == injected), no counter drift, bounded reassembly
// state. Failures print a REPLAY line; the seed reproduces the byte-exact
// stream (same discipline as test_filter_fuzz).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/router.hpp"
#include "parallel/sharded_datapath.hpp"
#include "pkt/builder.hpp"
#include "pkt/headers.hpp"
#include "pkt/reassembly.hpp"
#include "pkt/sanitize.hpp"
#include "tgen/adversarial.hpp"

namespace rp {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 42, 20260806};
constexpr std::size_t kPacketsPerSeed = 100000;

// The accounting identity now spans the driver layer too: packets the NIC
// rx ring dropped on overflow never reach the core, so the wire-level
// balance is received + nic_rx_drops == injected (rx overflows used to be
// counted on the NIC but surfaced nowhere, leaving an invisible loss class).
void check_accounting(const core::CoreCounters& c, std::uint64_t injected,
                      std::uint64_t seed, const char* what,
                      std::uint64_t nic_rx_drops = 0) {
  if (c.received + nic_rx_drops != injected ||
      c.forwarded + c.total_drops() != c.received ||
      c.total_sanitize_drops() >
          c.dropped(core::DropReason::malformed) ||
      c.fragments_created != 0 || c.icmp_errors_sent != 0) {
    ADD_FAILURE() << "REPLAY: seed=" << seed << " " << what
                  << " injected=" << injected << " received=" << c.received
                  << " forwarded=" << c.forwarded
                  << " nic_rx_drops=" << nic_rx_drops
                  << " drops=" << c.total_drops()
                  << " sanitize=" << c.total_sanitize_drops()
                  << " malformed=" << c.dropped(core::DropReason::malformed)
                  << " frags=" << c.fragments_created
                  << " icmp=" << c.icmp_errors_sent;
  }
}

// Minimal stack the mutants are thrown at: two interfaces and default
// routes for both families, so every *well-formed* packet has somewhere to
// go and every drop is attributable to validation (or TTL/queueing), never
// to missing configuration.
void add_default_routes(route::RoutingTable& rt) {
  rt.add(*netbase::IpPrefix::parse("0.0.0.0/0"), {1, {}});
  rt.add(*netbase::IpPrefix::parse("::/0"), {1, {}});
}

TEST(WireFuzz, KernelSoakExactAccounting) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    core::RouterKernel kernel;
    kernel.add_interface("if0");
    kernel.add_interface("if1");
    add_default_routes(kernel.routes());

    tgen::AdversarialGen gen(seed);
    std::vector<pkt::PacketPtr> batch;
    for (std::size_t i = 0; i < kPacketsPerSeed; ++i) {
      batch.push_back(gen.next());
      if (batch.size() == 32) {
        kernel.core().process_burst({batch.data(), batch.size()});
        batch.clear();
        while (kernel.core().next_for_tx(1, kernel.clock().now())) {
        }
      }
    }
    if (!batch.empty())
      kernel.core().process_burst({batch.data(), batch.size()});
    while (kernel.core().next_for_tx(1, kernel.clock().now())) {
    }
    check_accounting(kernel.core().counters(), kPacketsPerSeed, seed,
                     "kernel", kernel.interfaces().totals().rx_drops);
  }
}

// The clean control group must actually traverse: a sanitizer that dropped
// everything would also pass the accounting identity.
TEST(WireFuzz, CleanTrafficStillForwards) {
  core::RouterKernel kernel;
  kernel.add_interface("if0");
  kernel.add_interface("if1");
  add_default_routes(kernel.routes());

  tgen::AdversarialGen gen(kSeeds[0]);
  std::vector<pkt::PacketPtr> batch;
  for (std::size_t i = 0; i < 20000; ++i) {
    auto p = gen.next();
    if (gen.last_kind() == tgen::MutationKind::clean)
      batch.push_back(std::move(p));
    if (batch.size() == 32) {
      kernel.core().process_burst({batch.data(), batch.size()});
      batch.clear();
      while (kernel.core().next_for_tx(1, kernel.clock().now())) {
      }
    }
  }
  if (!batch.empty())
    kernel.core().process_burst({batch.data(), batch.size()});
  const auto& c = kernel.core().counters();
  EXPECT_GT(c.received, 0u);
  EXPECT_EQ(c.forwarded, c.received);  // clean packets all forward
  EXPECT_EQ(c.total_sanitize_drops(), 0u);
}

// Every v4 mutant is also fed to the reassembler, which must neither crash
// nor let adversarial series grow its state past the configured budgets.
// The core's single-pass check (pkt::accept_common_ipv4) against the generic
// sequence it short-cuts: sanitize_packet, extract_flow_key, the IPv4
// header checksum and TTL > 1 (v6: hop limit > 1). On every mutant, v4 and
// v6, the single pass may accept only what the generic sequence accepts,
// and must then leave the same bytes, size, key, L4 offset and trim flag;
// when it declines, the packet must be untouched.
bool generic_accept(pkt::Packet& p, bool& trimmed) {
  if (pkt::sanitize_packet(p, trimmed) != pkt::SanitizeCheck::ok) return false;
  if (!pkt::extract_flow_key(p)) return false;
  const std::uint8_t* h = p.data();
  if (p.ip_version == netbase::IpVersion::v4)
    return pkt::Ipv4Header::verify_checksum(
               {h, static_cast<std::size_t>(h[0] & 0x0f) * 4}) &&
           h[8] > 1;
  return h[7] > 1;
}

std::vector<std::uint8_t> bytes_of(const pkt::Packet& p) {
  return {p.data(), p.data() + p.size()};
}

TEST(WireFuzz, SinglePassValidatorMatchesGenericChecks) {
  std::uint64_t fast = 0, generic_only = 0, v4 = 0, v6 = 0;
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    tgen::AdversarialGen gen(seed);
    for (std::size_t i = 0; i < kPacketsPerSeed; ++i) {
      const pkt::PacketPtr m = gen.next();
      if (m->size() > 0) ((m->data()[0] >> 4) == 6 ? v6 : v4) += 1;
      auto a = pkt::clone_packet(*m);
      auto b = pkt::clone_packet(*m);
      bool ta = false, tb = false;
      const bool fa = pkt::accept_common_ipv4(*a, ta);
      const bool gb = generic_accept(*b, tb);
      if (!fa) {
        if (gb) ++generic_only;
        if (bytes_of(*a) != bytes_of(*m) || a->key_valid != m->key_valid)
          ADD_FAILURE() << "REPLAY: seed=" << seed << " case=" << i
                        << " declined packet was modified";
        continue;
      }
      ++fast;
      if (!gb || bytes_of(*a) != bytes_of(*b) || a->size() != b->size() ||
          !(a->key == b->key) || a->key_valid != b->key_valid ||
          a->ip_version != b->ip_version || a->l4_offset != b->l4_offset ||
          ta != tb)
        ADD_FAILURE() << "REPLAY: seed=" << seed << " case=" << i
                      << " kind=" << tgen::to_string(gen.last_kind())
                      << " generic_accept=" << gb << " trimmed=" << ta << "/"
                      << tb;
    }
  }
  EXPECT_GT(fast, 0u);
  EXPECT_GT(generic_only, 0u);
  EXPECT_GT(v4, 0u);
  EXPECT_GT(v6, 0u);
}

TEST(WireFuzz, ReassemblerSoakBoundedState) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    pkt::Ipv4Reassembler r;
    tgen::AdversarialGen gen(seed);
    netbase::SimTime now = 0;
    for (std::size_t i = 0; i < kPacketsPerSeed; ++i) {
      now += netbase::kNsPerMs;
      auto p = gen.next();
      if (!p->size() || (p->data()[0] >> 4) != 4) continue;
      r.feed(std::move(p), now);
      if (r.pending() > pkt::Ipv4Reassembler::kDefaultMaxPartials ||
          r.buffered_bytes() > pkt::Ipv4Reassembler::kDefaultMaxBytes) {
        ADD_FAILURE() << "REPLAY: seed=" << seed << " case=" << i
                      << " pending=" << r.pending()
                      << " buffered=" << r.buffered_bytes();
        break;
      }
      if (i % 4096 == 0) r.expire(now);
    }
  }
}

void shard_soak(std::uint32_t n_workers, std::uint64_t seed,
                parallel::ShardedDatapath::IoOptions io) {
  parallel::ShardedDatapath::Options opt;
  opt.workers = n_workers;
  opt.io = io;
  parallel::ShardedDatapath dp(opt, [](parallel::ShardContext& ctx) {
    ctx.interfaces().add("if0");
    ctx.interfaces().add("if1");
    add_default_routes(ctx.routes());
  });

  tgen::AdversarialGen gen(seed);
  for (std::size_t i = 0; i < kPacketsPerSeed; ++i) dp.submit(gen.next());
  dp.quiesce();
  const auto c = dp.aggregate_counters();
  check_accounting(c, kPacketsPerSeed, seed,
                   ("shard-n" + std::to_string(n_workers)).c_str(),
                   dp.aggregate_nic_counters().rx_drops);
  dp.stop();
}

TEST(WireFuzzShard, ShardSoakExactAccounting) {
  for (std::uint32_t n_workers : {2u, 4u})
    for (std::uint64_t seed : {kSeeds[0], kSeeds[3]}) {
      SCOPED_TRACE("workers=" + std::to_string(n_workers) +
                   " seed=" + std::to_string(seed));
      shard_soak(n_workers, seed, {});
    }
}

// Same soak through the multi-queue backend — adversarial bytes through the
// RETA steer, worker-owned rx drains, and the lossless retry loop, with the
// accounting identity extended by the per-shard NIC drop totals.
TEST(WireFuzzShard, MultiqSoakExactAccounting) {
  parallel::ShardedDatapath::IoOptions io;
  io.mode = parallel::ShardedDatapath::IoOptions::Mode::multiq;
  for (std::uint32_t n_workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(n_workers));
    shard_soak(n_workers, kSeeds[0], io);
  }
}

}  // namespace
}  // namespace rp
