// Tests for the common infrastructure: padding, backoff, RNG, barrier,
// topology discovery, percentile edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/barrier.hpp"
#include "common/cacheline.hpp"
#include "common/padded.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/topology.hpp"

namespace sbq {
namespace {

TEST(Padded, OccupiesWholeCacheLines) {
  EXPECT_EQ(sizeof(Padded<char>) % kCacheLineSize, 0u);
  EXPECT_EQ(alignof(Padded<char>), kCacheLineSize);
  // An array of padded slots puts each slot on its own line.
  Padded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, kCacheLineSize);
  }
}

TEST(Padded, DereferenceOperators) {
  Padded<int> p(7);
  EXPECT_EQ(*p, 7);
  *p = 9;
  EXPECT_EQ(p.value, 9);
}

TEST(Backoff, GrowsAndSaturates) {
  // White-box via timing-free behaviour: pause() must terminate and the
  // object must be reusable after reset().
  Backoff b(1, 8);
  for (int i = 0; i < 10; ++i) b.pause();
  b.reset();
  for (int i = 0; i < 10; ++i) b.pause();
  SUCCEED();
}

TEST(Backoff, SpinsForNsFollowTheCalibratedRelaxTime) {
  const double relax = relax_ns();
  ASSERT_GT(relax, 0.0);
  EXPECT_EQ(relax_ns(), relax);  // measured once per process
  EXPECT_EQ(spins_for_ns(0), 0u);
  EXPECT_GE(spins_for_ns(1), 1u);
  for (const std::uint64_t ns : {52u, 270u, 100000u}) {
    const std::uint32_t spins = spins_for_ns(ns);
    // Rounded to the nearest whole relax, unless clamped up to one.
    if (spins > 1) {
      EXPECT_NEAR(spins * relax, static_cast<double>(ns), relax / 2) << ns;
    }
  }
}

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(123), b(123), c(124);
  const std::uint64_t a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
}

TEST(Xoshiro256, ReproducibleSequences) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, NextBelowInRange) {
  Xoshiro256 r(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, RoughUniformity) {
  Xoshiro256 r(31337);
  int buckets[10] = {};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++buckets[r.next_below(10)];
  for (int count : buckets) {
    EXPECT_GT(count, kSamples / 10 * 0.9);
    EXPECT_LT(count, kSamples / 10 * 1.1);
  }
}

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counter.fetch_add(1, std::memory_order_acq_rel);
        barrier.arrive_and_wait();
        // After the barrier, every thread of this phase has incremented.
        if (phase_counter.load(std::memory_order_acquire) < (p + 1) * kThreads) {
          violation.store(true, std::memory_order_relaxed);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase_counter.load(), kThreads * kPhases);
}

TEST(Topology, DiscoversAtLeastOneCpu) {
  const Topology topo = Topology::discover();
  EXPECT_GE(topo.cpu_count(), 1u);
  EXPECT_GE(topo.socket_count(), 1u);
  // Every CPU appears in its socket's list exactly once.
  std::set<int> seen;
  for (std::size_t s = 0; s < topo.socket_count() + 2; ++s) {
    for (int cpu : topo.socket_cpus(static_cast<int>(s))) {
      EXPECT_TRUE(seen.insert(cpu).second) << "cpu listed twice: " << cpu;
    }
  }
  EXPECT_EQ(seen.size(), topo.cpu_count());
}

TEST(Topology, PinCurrentThreadToCpu0) {
  EXPECT_TRUE(pin_current_thread(0));
}

// Summary::percentile must be total: the service-latency driver calls it on
// whatever samples a sweep cell produced, which can legitimately be nothing
// (every offered op rejected by admission control) and with p values from
// config (p999 = 99.9, but also junk). See stats.hpp for the contract.
TEST(SummaryPercentile, EmptySampleSetYieldsZero) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(SummaryPercentile, OutOfRangePClamps) {
  Summary s;
  for (double v : {10.0, 20.0, 30.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(-1), 10.0);     // clamps to p0 = min
  EXPECT_DOUBLE_EQ(s.percentile(101), 30.0);    // clamps to p100 = max
  EXPECT_DOUBLE_EQ(s.percentile(1e300), 30.0);
  EXPECT_DOUBLE_EQ(
      s.percentile(-std::numeric_limits<double>::infinity()), 10.0);
}

TEST(SummaryPercentile, NanPClampsToMin) {
  Summary s;
  s.add(7.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.percentile(std::numeric_limits<double>::quiet_NaN()),
                   7.0);
}

TEST(BoundedExpDelay, LadderDoublesAndSaturates) {
  EXPECT_EQ(bounded_exp_delay(4, 0, 1024), 4u);
  EXPECT_EQ(bounded_exp_delay(4, 1, 1024), 8u);
  EXPECT_EQ(bounded_exp_delay(4, 7, 1024), 512u);
  EXPECT_EQ(bounded_exp_delay(4, 8, 1024), 1024u);  // exactly at cap
  EXPECT_EQ(bounded_exp_delay(4, 20, 1024), 1024u);  // past cap: saturates
  EXPECT_EQ(bounded_exp_delay(0, 5, 1024), 0u);      // zero base: no delay
}

TEST(BoundedExpDelay, ShiftOverflowSaturatesAtCap) {
  const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max() / 2;
  EXPECT_EQ(bounded_exp_delay(3, 63, cap), cap);
  EXPECT_EQ(bounded_exp_delay(1ULL << 62, 4, cap), cap);
}

TEST(SeededBackoff, SameSeedSameStreamIsDeterministic) {
  SeededBackoff a(42, 7), b(42, 7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_delay(), b.next_delay());
}

TEST(SeededBackoff, DistinctStreamsDesynchronize) {
  SeededBackoff a(42, 0), b(42, 1);
  bool differ = false;
  for (int i = 0; i < 20; ++i) {
    if (a.next_delay() != b.next_delay()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(SeededBackoff, DelaysStayWithinHalfToFullOfLadder) {
  SeededBackoff bo(9, 3, /*base_iters=*/8, /*cap_iters=*/256);
  for (std::uint32_t level = 0; level < 12; ++level) {
    const std::uint64_t full = bounded_exp_delay(8, level, 256);
    EXPECT_EQ(bo.level(), level < 63 ? level : 63u);
    const std::uint64_t d = bo.next_delay();
    EXPECT_GE(d, full / 2);
    EXPECT_LE(d, full);
  }
}

TEST(SeededBackoff, ResetRestartsLevelButNotStream) {
  SeededBackoff a(5, 0), b(5, 0);
  a.next_delay();
  a.next_delay();
  a.reset();
  EXPECT_EQ(a.level(), 0u);
  // The stream advanced, so after reset the draw differs from a fresh
  // object's first draw with overwhelming probability (same level range).
  b.next_delay();
  b.next_delay();
  // a (reset, level 0) and b (level 2) draw the same underlying PRNG value;
  // levels differ so ranges differ — just check reset didn't rewind rng by
  // verifying determinism against a replayed twin.
  SeededBackoff c(5, 0);
  c.next_delay();
  c.next_delay();
  c.reset();
  EXPECT_EQ(a.next_delay(), c.next_delay());
}

TEST(SeededBackoff, PauseReturnsTheDelayItSpun) {
  SeededBackoff a(13, 2, 1, 64), b(13, 2, 1, 64);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.pause(), b.next_delay());
}

TEST(SummaryPercentile, TailPercentilesAreMonotone) {
  Summary s;
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    s.add(static_cast<double>(rng.next_below(100000)));
  }
  const double p50 = s.percentile(50);
  const double p99 = s.percentile(99);
  const double p999 = s.percentile(99.9);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, s.max());
}

}  // namespace
}  // namespace sbq
