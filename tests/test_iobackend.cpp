// I/O backend + packet pool tests (PR 10):
//   * Steering.*        — the fixed-point shard map: chi-square uniformity at
//     N ∈ {2, 3, 4, 7}, full-high-32-bit sensitivity (the old map read only
//     the top byte), and the seeded Zipf imbalance snapshots.
//   * IoBackend.*       — SimNic rx-overflow accounting (drops were counted
//     but surfaced nowhere), ceil-rounded serialization time over a
//     million-packet mix, MemQueueBackend RETA semantics.
//   * SpscRing.*        — exact capacity for power-of-two requests (the ring
//     silently over-allocated 2x before) and a threaded wraparound soak
//     (runs under TSan via the parallel label).
//   * PacketPool.*      — pool lifecycle: recycle-preserves-headroom,
//     cross-thread free, exhaustion falls back to heap without leaking,
//     packets outliving their pool (the ASan lane is the leak gate).
//   * ParallelMemQueue.* — producer/consumer threads through the multi-queue
//     backend, flow migration under zipf load, and the pmgr `shard io`
//     surface (TSan via the parallel label).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "core/router.hpp"
#include "io/io_backend.hpp"
#include "mgmt/pmgr.hpp"
#include "mgmt/register_all.hpp"
#include "mgmt/rplib.hpp"
#include "netbase/rng.hpp"
#include "parallel/sharded_datapath.hpp"
#include "parallel/spsc_ring.hpp"
#include "pkt/builder.hpp"
#include "pkt/packet_pool.hpp"
#include "tgen/workload.hpp"

namespace rp {
namespace {

using parallel::shard_index;

// ---------------------------------------------------------------------------
// Steering

// p = 0.001 chi-square critical values by degrees of freedom (N - 1).
double chi2_crit(std::uint32_t df) {
  static const std::map<std::uint32_t, double> crit = {
      {1, 10.83}, {2, 13.82}, {3, 16.27}, {6, 22.46}};
  return crit.at(df);
}

TEST(Steering, FixedPointMapIsUnbiased) {
  // The replaced map, (hash >> 56) % N, carried modulo bias for every
  // non-power-of-two N (256 values cannot split evenly over 3 or 7) on top
  // of collapsing the key space to the top byte. The fixed-point range map
  // must be statistically uniform for all of these.
  constexpr std::size_t kSamples = 200000;
  for (std::uint32_t n : {2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    netbase::Rng rng(0xfeedULL + n);
    std::vector<std::uint64_t> bins(n, 0);
    for (std::size_t i = 0; i < kSamples; ++i) {
      const std::uint32_t s = shard_index(rng.next(), n);
      ASSERT_LT(s, n);
      ++bins[s];
    }
    const double expect = static_cast<double>(kSamples) / n;
    double chi2 = 0;
    for (std::uint64_t b : bins) {
      const double d = static_cast<double>(b) - expect;
      chi2 += d * d / expect;
    }
    EXPECT_LT(chi2, chi2_crit(n - 1)) << "chi2=" << chi2;
  }
}

TEST(Steering, UsesFullHighWordNotJustTopByte) {
  // The old map `(h >> 56) % n` could never separate two hashes that agree
  // in the top byte — it collapsed the key space to 256 classes. The
  // fixed-point range map partitions the full high word, so at n = 3 the
  // shard boundary 2^32/3 = 0x55555555.33 falls *inside* the top-byte-0x55
  // class: hashes sharing that top byte split between shards 0 and 1 by
  // the bits below it, ~1/3 : 2/3 (0x555555.33 of the 0x1000000-wide
  // remainder lies below the boundary).
  constexpr std::size_t kSamples = 60000;
  netbase::Rng rng(7);
  std::uint64_t bins[3] = {0, 0, 0};
  for (std::size_t i = 0; i < kSamples; ++i) {
    const std::uint64_t h =
        (0x55ULL << 56) | (rng.next() & 0x00ffffffffffffffULL);
    ++bins[shard_index(h, 3)];
  }
  EXPECT_EQ(bins[2], 0u);  // the 0x55 slice ends well before 2/3
  const double lo = static_cast<double>(bins[0]) / kSamples;
  EXPECT_GT(lo, 0.30);  // ~1/3 below the boundary...
  EXPECT_LT(lo, 0.37);
  EXPECT_EQ(bins[0] + bins[1], kSamples);  // ...rest above, none lost
}

TEST(Steering, ZipfSamplerIsSeededAndSkewed) {
  // Fixed-seed snapshot: two samplers with the same seed emit the identical
  // rank sequence, and the rank histogram has the Zipf(1.1) head (rank 0
  // near 1/H_{1.1}(1000) ≈ 17% of draws) that the steering benches rely on
  // to load one RSS queue.
  constexpr std::size_t kDraws = 100000;
  tgen::ZipfSampler a(1000, 1.1, 42), b(1000, 1.1, 42);
  std::vector<std::uint64_t> hist(1000, 0);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::size_t r = a.next();
    ASSERT_EQ(r, b.next()) << "draw " << i;
    ASSERT_LT(r, 1000u);
    ++hist[r];
  }
  const double head = static_cast<double>(hist[0]) / kDraws;
  EXPECT_GT(head, 0.12);
  EXPECT_LT(head, 0.22);
  EXPECT_GT(hist[0], hist[1]);
  EXPECT_GT(hist[1], hist[9]);

  // s = 0 degenerates to uniform: the hottest rank stays near 1/n.
  tgen::ZipfSampler u(1000, 0.0, 42);
  std::vector<std::uint64_t> uh(1000, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++uh[u.next()];
  std::uint64_t umax = 0;
  for (std::uint64_t c : uh) umax = std::max(umax, c);
  EXPECT_LT(umax, 3 * kDraws / 1000);
}

TEST(Steering, ZipfTrafficSkewsQueueLoad) {
  // The imbalance story end to end: zipf(1.1) ranks hashed through the RETA
  // concentrate load on one queue; uniform ranks do not. (This is the
  // skew the migration policy exists to shave.)
  constexpr std::uint32_t kQueues = 4;
  constexpr std::size_t kDraws = 50000;
  auto spread = [&](double s) {
    tgen::ZipfSampler pick(512, s, 99);
    // Rank -> stable synthetic flow hash.
    std::vector<std::uint64_t> hash_of(512);
    netbase::Rng rng(1234);
    for (auto& h : hash_of) h = rng.next();
    std::vector<std::uint64_t> load(kQueues, 0);
    for (std::size_t i = 0; i < kDraws; ++i)
      ++load[shard_index(hash_of[pick.next()], kQueues)];
    std::uint64_t mx = 0;
    for (std::uint64_t l : load) mx = std::max(mx, l);
    return static_cast<double>(mx) * kQueues / kDraws;  // 1.0 = balanced
  };
  EXPECT_GT(spread(1.1), 1.35);  // one queue well above its fair share
  EXPECT_LT(spread(0.0), 1.15);
}

// ---------------------------------------------------------------------------
// IoBackend

pkt::PacketPtr routed_udp(std::uint16_t sport) {
  pkt::UdpSpec s;
  s.src = netbase::IpAddr(netbase::Ipv4Addr(10, 0, 0, 1));
  s.dst = netbase::IpAddr(netbase::Ipv4Addr(20, 0, 0, 1));
  s.sport = sport;
  s.dport = 9000;
  s.payload_len = 64;
  return pkt::build_udp(s);
}

TEST(IoBackend, NicOverflowSurfacedAndAccounted) {
  // Regression for the invisible-loss class: rx ring overflows were counted
  // on the NIC but never aggregated or included in any accounting identity,
  // so wire-level loss was indistinguishable from generator undercount.
  core::RouterKernel kernel;
  kernel.interfaces().add("tiny", 155'000'000, 0, /*rx_ring=*/8);
  kernel.add_interface("if1");
  kernel.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});

  constexpr std::size_t kOffered = 20;
  io::IoBackend& io = kernel.io();
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kOffered; ++i) {
    auto p = routed_udp(static_cast<std::uint16_t>(1000 + i));
    if (io.try_deliver(0, p, 0)) ++accepted;
  }
  EXPECT_EQ(accepted, 8u);
  const auto nt = kernel.interfaces().totals();
  EXPECT_EQ(nt.rx_drops, kOffered - 8);
  EXPECT_EQ(io.queue_stats(0).rx_drops, kOffered - 8);
  EXPECT_EQ(io.rx_depth(0), 8u);

  // Drain through the core: received + nic rx_drops == offered closes the
  // wire-level balance, and forwarded + core drops == received as before.
  std::array<pkt::PacketPtr, 8> burst;
  while (io.rx_pending(0)) {
    const std::size_t n = io.rx_burst(0, burst);
    kernel.core().process_burst({burst.data(), n});
  }
  const auto& cc = kernel.core().counters();
  EXPECT_EQ(cc.received + nt.rx_drops, kOffered);
  EXPECT_EQ(cc.forwarded + cc.total_drops(), cc.received);
}

TEST(IoBackend, SimNicQueueStatsTrackRing) {
  netdev::InterfaceTable ifs;
  ifs.add("if0");
  io::SimNicBackend be(ifs);
  EXPECT_EQ(be.name(), "simnic");
  ASSERT_EQ(be.n_queues(), 1u);
  EXPECT_EQ(be.steer(0xdeadbeefULL), 0u);

  for (int i = 0; i < 5; ++i) {
    auto p = routed_udp(static_cast<std::uint16_t>(i));
    ASSERT_TRUE(be.try_deliver(0, p, 7));
    EXPECT_EQ(p, nullptr);  // consumed
  }
  auto s = be.queue_stats(0);
  EXPECT_EQ(s.rx_enqueued, 5u);
  EXPECT_EQ(s.rx_drained, 0u);
  std::array<pkt::PacketPtr, 3> burst;
  EXPECT_EQ(be.rx_burst(0, burst), 3u);
  EXPECT_EQ(burst[0]->arrival, 7u);  // driver timestamping preserved
  s = be.queue_stats(0);
  EXPECT_EQ(s.rx_drained, 3u);
  EXPECT_EQ(be.rx_depth(0), 2u);
}

TEST(IoBackend, TxDurationCeilNeverUndershootsWire) {
  // A link may never transmit faster than its bit rate: over any packet mix
  // the summed serialization time must be >= bytes * 8 / bps, and each
  // duration must be the exact ceiling (one ns less would undershoot).
  // Truncation lost ~3ns per 64B cell at OC-3 — a systematic virtual-time
  // drift that let schedulers over-admit. One million packets, three rates.
  netbase::Rng rng(13);
  for (std::uint64_t bps : {155'000'000ULL, 622'000'000ULL, 1'000'000'007ULL}) {
    SCOPED_TRACE("bps=" + std::to_string(bps));
    netdev::SimNic nic("t", 0, bps);
    unsigned __int128 total_bits_ns = 0;
    unsigned __int128 total_dur = 0;
    constexpr std::size_t kPackets = 1'000'000;
    for (std::size_t i = 0; i < kPackets; ++i) {
      const std::size_t bytes = 40 + rng.below(9141);  // 40..9180 (ATM MTU)
      const netbase::SimTime d = nic.tx_duration(bytes);
      const unsigned __int128 bits_ns =
          static_cast<unsigned __int128>(bytes) * 8 * netbase::kNsPerSec;
      // Exact ceiling: d * bps covers the bits, (d - 1) * bps must not.
      ASSERT_GE(static_cast<unsigned __int128>(d) * bps, bits_ns);
      ASSERT_LT(static_cast<unsigned __int128>(d - 1) * bps, bits_ns);
      total_bits_ns += bits_ns;
      total_dur += d;
    }
    EXPECT_GE(total_dur * bps, total_bits_ns);
  }
}

TEST(IoBackend, MemQueueRetaSpreadsLikeShardIndex) {
  // The initial RETA must steer like shard_index so switching a datapath
  // from steered to multiq does not re-home flows. When the queue count
  // divides the 256-bucket table (powers of two) the match is exact; at
  // other counts the only divergence is quantization at the buckets the
  // shard boundary cuts through (≤ n-1 of 256 buckets, so < 2% of hashes).
  for (std::uint32_t n : {1u, 2u, 4u}) {
    SCOPED_TRACE("queues=" + std::to_string(n));
    io::MemQueueBackend be({.queues = n, .ring_capacity = 16});
    netbase::Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t h = rng.next();
      EXPECT_EQ(be.steer(h), shard_index(h, n));
    }
  }
  {
    SCOPED_TRACE("queues=3 (boundary-bucket quantization only)");
    io::MemQueueBackend be({.queues = 3, .ring_capacity = 16});
    // Balanced partition: each queue owns 256/3 buckets give or take one.
    std::uint32_t owned[3] = {0, 0, 0};
    for (std::uint32_t b = 0; b < io::MemQueueBackend::kRetaSize; ++b) {
      ASSERT_LT(be.reta(b), 3u);
      ++owned[be.reta(b)];
      if (b) {
        ASSERT_GE(be.reta(b), be.reta(b - 1));  // contiguous ranges
      }
    }
    for (std::uint32_t q = 0; q < 3; ++q) {
      EXPECT_GE(owned[q], 85u);
      EXPECT_LE(owned[q], 86u);
    }
    netbase::Rng rng(5);
    int mismatches = 0;
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t h = rng.next();
      if (be.steer(h) != shard_index(h, 3)) ++mismatches;
    }
    EXPECT_LT(mismatches, 200);  // 2 boundary buckets of 256 ≈ 0.8%
  }
}

TEST(IoBackend, MemQueueMigrationCountersAndWaits) {
  io::MemQueueBackend be({.queues = 2, .ring_capacity = 4});
  // Fill queue 0 to capacity; the next try_deliver must refuse, keep the
  // packet, and count a wait — not a drop (drops are the producer's explicit
  // give-up via note_drop).
  for (int i = 0; i < 4; ++i) {
    auto p = routed_udp(static_cast<std::uint16_t>(i));
    ASSERT_TRUE(be.try_deliver(0, p, 0));
  }
  auto p = routed_udp(99);
  EXPECT_FALSE(be.try_deliver(0, p, 0));
  ASSERT_NE(p, nullptr);  // still ours to retry
  auto s0 = be.queue_stats(0);
  EXPECT_EQ(s0.rx_enqueued, 4u);
  EXPECT_EQ(s0.rx_waits, 1u);
  EXPECT_EQ(s0.rx_drops, 0u);
  be.note_drop(0);
  EXPECT_EQ(be.queue_stats(0).rx_drops, 1u);

  // Rebinding a bucket counts one migration out of the old owner and one
  // into the new one.
  const std::uint32_t bucket = io::MemQueueBackend::bucket_of(0);
  const std::uint32_t from = be.reta(bucket);
  be.set_reta(bucket, 1 - from);
  EXPECT_EQ(be.reta(bucket), 1 - from);
  EXPECT_EQ(be.queue_stats(from).migrations_out, 1u);
  EXPECT_EQ(be.queue_stats(1 - from).migrations_in, 1u);
}

// ---------------------------------------------------------------------------
// SpscRing (suite name joins the parallel-tsan label set)

TEST(SpscRing, ExactCapacityForPowerOfTwoRequests) {
  // The ring used to sacrifice one slot and round up, so a power-of-two
  // request silently doubled its allocation (capacity(1024) -> 2048 slots).
  for (std::size_t want : {1u, 2u, 7u, 64u, 1000u, 1024u}) {
    parallel::SpscRing<int> ring(want);
    EXPECT_EQ(ring.capacity(), std::max<std::size_t>(want, 1));
    // Exactly `want` pushes fit, not one more.
    std::size_t pushed = 0;
    while (ring.try_push(static_cast<int>(pushed))) ++pushed;
    EXPECT_EQ(pushed, ring.capacity()) << "want=" << want;
    int v;
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(ring.try_push(-1));   // freed slot is reusable
    EXPECT_FALSE(ring.try_push(-2));  // and only that one
  }
}

TEST(SpscRing, WraparoundBoundaryThreaded) {
  // Free-running indices: push/pop 64k items through a 4-slot ring from two
  // threads so the indices wrap the slot mask thousands of times. FIFO
  // order and zero loss prove the masking; TSan (parallel label) proves the
  // acquire/release pairing.
  parallel::SpscRing<std::uint32_t> ring(4);
  constexpr std::uint32_t kItems = 65536;
  std::thread producer([&ring] {
    for (std::uint32_t i = 0; i < kItems;) {
      if (ring.try_push(std::uint32_t{i}))
        ++i;
      else
        std::this_thread::yield();
    }
  });
  std::uint32_t expect = 0;
  while (expect < kItems) {
    std::uint32_t v;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// PacketPool (own label: pool-parallel-tsan; ASan lane is the leak gate)

TEST(PacketPool, AllocRecycleRoundTrip) {
  pkt::PacketPool pool({.chunks = 4, .buf_bytes = 512});
  {
    auto p = pool.alloc(100);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->pooled());
    EXPECT_EQ(p->size(), 100u);
    EXPECT_EQ(p->headroom(), pkt::Packet::kDefaultHeadroom);
    std::memset(p->data(), 0xaa, p->size());
  }
  auto s = pool.stats();
  EXPECT_EQ(s.allocs, 1u);
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.recycles, 1u);
  EXPECT_EQ(s.outstanding, 0u);
}

TEST(PacketPool, RecycleRestoresHeadroomAndZeroes) {
  pkt::PacketPool pool({.chunks = 1, .buf_bytes = 512});
  {
    auto p = pool.alloc(64);
    std::memset(p->data(), 0xff, p->size());
    p->prepend(100);  // consume most of the headroom
    EXPECT_EQ(p->headroom(), pkt::Packet::kDefaultHeadroom - 100);
    EXPECT_TRUE(p->pooled());  // fits in the chunk, no detach
  }
  // The same chunk comes back with full headroom and a zeroed payload view
  // (alloc() zeroes the handed-out region like the heap constructor does).
  auto p = pool.alloc(64);
  EXPECT_TRUE(p->pooled());
  EXPECT_EQ(p->headroom(), pkt::Packet::kDefaultHeadroom);
  for (std::size_t i = 0; i < p->size(); ++i)
    ASSERT_EQ(p->data()[i], 0) << "byte " << i;
  EXPECT_EQ(pool.stats().pool_hits, 2u);
}

TEST(PacketPool, ExhaustionFallsBackToHeapWithoutLoss) {
  pkt::PacketPool pool({.chunks = 2, .buf_bytes = 512});
  std::vector<pkt::PacketPtr> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.alloc(64));
  EXPECT_TRUE(held[0]->pooled());
  EXPECT_TRUE(held[1]->pooled());
  EXPECT_FALSE(held[2]->pooled());  // exhausted -> heap, never null
  auto s = pool.stats();
  EXPECT_EQ(s.pool_hits, 2u);
  EXPECT_EQ(s.heap_fallbacks, 3u);

  // Oversize requests bypass the pool even with chunks free.
  held.clear();
  auto big = pool.alloc(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_FALSE(big->pooled());
  EXPECT_EQ(big->size(), 4096u);

  // After release everything is allocatable again.
  big.reset();
  auto again = pool.alloc(64);
  EXPECT_TRUE(again->pooled());
}

TEST(PacketPool, GrowDetachesToHeapButChunkStillRecycles) {
  pkt::PacketPool pool({.chunks = 1, .buf_bytes = 256});
  {
    auto p = pool.alloc(64, /*headroom=*/16);
    ASSERT_TRUE(p->pooled());
    std::memset(p->data(), 0x5a, p->size());
    p->prepend(64);  // outgrows the 16B headroom -> detach to heap
    EXPECT_EQ(p->size(), 128u);
    // Original bytes preserved after the detach copy.
    for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(p->data()[64 + i], 0x5a);
  }
  auto s = pool.stats();
  EXPECT_EQ(s.grows_detached, 1u);
  EXPECT_EQ(s.recycles, 1u);  // chunk still came home
  EXPECT_TRUE(pool.alloc(64)->pooled());
}

TEST(PacketPool, CrossThreadFreeReturnsChunks) {
  pkt::PacketPool pool({.chunks = 8, .buf_bytes = 512});
  parallel::SpscRing<pkt::PacketPtr> ring(16);
  std::atomic<bool> done{false};
  // Consumer thread: free every packet from the "wrong" thread — the MPSC
  // return stack must hand the chunks back to the owner.
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      pkt::PacketPtr p;
      if (ring.try_pop(p))
        p.reset();
      else
        std::this_thread::yield();
    }
  });
  constexpr int kRounds = 20000;
  for (int i = 0; i < kRounds; ++i) {
    auto p = pool.alloc(64);
    while (!ring.try_push(std::move(p))) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  auto s = pool.stats();
  EXPECT_EQ(s.allocs, static_cast<std::uint64_t>(kRounds));
  // With 8 chunks against 20k allocs, recycling must carry at least every
  // other alloc (exactly half in the worst lockstep interleaving, where the
  // return stack is drained empty on alternating allocs).
  EXPECT_GE(s.pool_hits, static_cast<std::uint64_t>(kRounds) / 2);
  // Every chunk came home: with all packets released, 8 fresh allocs must
  // all be pool hits (draining whatever is parked on the return stack).
  std::vector<pkt::PacketPtr> all;
  for (int i = 0; i < 8; ++i) {
    all.push_back(pool.alloc(64));
    EXPECT_TRUE(all.back()->pooled()) << "chunk " << i << " lost";
  }
  all.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(PacketPool, PacketsMayOutliveThePool) {
  pkt::PacketPtr survivor;
  {
    pkt::PacketPool pool({.chunks = 2, .buf_bytes = 512});
    survivor = pool.alloc(64);
    std::memset(survivor->data(), 0x42, survivor->size());
  }  // pool destroyed with one chunk outstanding
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->data()[0], 0x42);  // arena still alive (refcounted)
  survivor->prepend(4);                  // even growth is safe
  survivor.reset();                      // last ref frees the arena (ASan)
}

TEST(PacketPool, MakePacketRoutesThroughScopedPool) {
  pkt::PacketPool pool({.chunks = 4, .buf_bytes = 2048});
  {
    pkt::PacketPool::Use scope(pool);
    EXPECT_EQ(pkt::PacketPool::current(), &pool);
    auto pooled = pkt::make_packet(100);
    EXPECT_TRUE(pooled->pooled());
    // Builders allocate through make_packet, so whole packets come pooled.
    auto built = routed_udp(1);
    EXPECT_TRUE(built->pooled());
    // clone_packet of a pooled packet allocates from the pool too.
    auto clone = pkt::clone_packet(*built);
    EXPECT_TRUE(clone->pooled());
    EXPECT_EQ(clone->size(), built->size());
    EXPECT_EQ(0,
              std::memcmp(clone->data(), built->data(), built->size()));
  }
  EXPECT_EQ(pkt::PacketPool::current(), nullptr);
  EXPECT_FALSE(pkt::make_packet(100)->pooled());
}

// ---------------------------------------------------------------------------
// ParallelMemQueue (suite name joins the parallel-tsan label set)

TEST(ParallelMemQueue, ProducerConsumerCountsBalance) {
  io::MemQueueBackend be({.queues = 2, .ring_capacity = 64});
  constexpr std::uint64_t kPerQueue = 30000;
  std::array<std::uint64_t, 2> drained{0, 0};
  std::vector<std::thread> consumers;
  for (std::uint32_t q = 0; q < 2; ++q)
    consumers.emplace_back([&be, &drained, q] {
      std::array<pkt::PacketPtr, 16> burst;
      while (drained[q] < kPerQueue) {
        const std::size_t n = be.rx_burst(q, burst);
        if (!n) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) burst[i].reset();
        drained[q] += n;
      }
    });
  for (std::uint64_t i = 0; i < kPerQueue; ++i)
    for (std::uint32_t q = 0; q < 2; ++q) {
      auto p = pkt::make_packet(64);
      while (!be.try_deliver(q, p, 0)) std::this_thread::yield();
    }
  for (auto& c : consumers) c.join();
  for (std::uint32_t q = 0; q < 2; ++q) {
    const auto s = be.queue_stats(q);
    EXPECT_EQ(s.rx_enqueued, kPerQueue);
    EXPECT_EQ(s.rx_drained, kPerQueue);
    EXPECT_EQ(s.rx_drops, 0u);
    EXPECT_EQ(s.occupancy_samples, kPerQueue);
    EXPECT_EQ(be.rx_depth(q), 0u);
  }
}

void setup_min_stack(parallel::ShardContext& ctx) {
  ctx.interfaces().add("if0");
  ctx.interfaces().add("if1");
  ctx.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
}

TEST(ParallelMemQueue, WorkStealingMigratesHotBucketLosslessly) {
  // Zipf-popular flows through a small-ring multiq datapath: the hot
  // bucket's queue backs up, the migration policy rebinds it at a burst
  // boundary, and — the actual property — not a single packet is lost or
  // double-counted across the move.
  parallel::ShardedDatapath::Options opt;
  opt.workers = 2;
  opt.ring_capacity = 32;
  opt.io.mode = parallel::ShardedDatapath::IoOptions::Mode::multiq;
  opt.io.migrate_threshold = 0.25;
  parallel::ShardedDatapath dp(opt, setup_min_stack);
  dp.set_tx_handler(
      [](parallel::ShardContext&, pkt::IfIndex, pkt::PacketPtr) {});

  tgen::MixSpec mix;
  mix.n_flows = 64;
  mix.n_packets = 40000;
  mix.zipf_s = 1.3;
  mix.seed = 11;
  auto arrivals = tgen::flow_mix(mix);
  for (auto& a : arrivals) dp.submit(std::move(a.p));
  dp.quiesce();

  const auto cc = dp.aggregate_counters();
  EXPECT_EQ(cc.received, static_cast<std::uint64_t>(mix.n_packets));
  EXPECT_EQ(cc.forwarded + cc.total_drops(), cc.received);
  std::uint64_t enq = 0, drained = 0, mig_in = 0;
  for (std::uint32_t q = 0; q < 2; ++q) {
    const auto s = dp.queue_stats(q);
    enq += s.rx_enqueued;
    drained += s.rx_drained;
    mig_in += s.migrations_in;
  }
  EXPECT_EQ(enq, static_cast<std::uint64_t>(mix.n_packets));
  EXPECT_EQ(drained, enq);
  EXPECT_EQ(mig_in, dp.migrations());
  dp.stop();
}

TEST(ParallelMemQueue, PmgrShardIoSurface) {
  core::RouterKernel kernel;
  mgmt::RouterPluginLib lib(kernel);
  mgmt::PluginManager pmgr(lib);

  parallel::ShardedDatapath::Options opt;
  opt.workers = 2;
  opt.io.mode = parallel::ShardedDatapath::IoOptions::Mode::multiq;
  parallel::ShardedDatapath dp(opt, setup_min_stack);
  pmgr.attach_sharded(&dp);

  for (int i = 0; i < 1000; ++i)
    dp.submit(routed_udp(static_cast<std::uint16_t>(i)));
  dp.quiesce();

  auto r = pmgr.exec("shard io");
  ASSERT_TRUE(r.ok()) << r.text;
  EXPECT_NE(r.text.find("backend=memq"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("queues=2"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("q1:"), std::string::npos) << r.text;

  auto c = pmgr.exec("telemetry");
  ASSERT_TRUE(c.ok()) << c.text;
  EXPECT_NE(c.text.find("nics:"), std::string::npos) << c.text;
  EXPECT_FALSE(pmgr.exec("shard io extra").ok());
  dp.stop();
}

// The kernel-side pmgr surface: `telemetry` now reports NIC totals.
TEST(IoBackend, TelemetrySummaryShowsNicTotals) {
  core::RouterKernel kernel;
  mgmt::RouterPluginLib lib(kernel);
  mgmt::PluginManager pmgr(lib);
  kernel.add_interface("if0");
  kernel.add_interface("if1");
  kernel.routes().add(*netbase::IpPrefix::parse("20.0.0.0/8"), {1, {}});
  for (int i = 0; i < 10; ++i)
    kernel.inject(i, 0, routed_udp(static_cast<std::uint16_t>(i)));
  kernel.run_to_completion();
  auto r = pmgr.exec("telemetry");
  ASSERT_TRUE(r.ok()) << r.text;
  EXPECT_NE(r.text.find("nics: rx=10"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("rx_drops=0"), std::string::npos) << r.text;
}

}  // namespace
}  // namespace rp
