// Bounded exponential backoff and calibrated busy-wait delays.
//
// TxCAS (§4.1 of the paper) requires a *timed* intra-transaction delay
// (~270 ns on the authors' Broadwell) and a short post-abort delay (§4.2).
// Inside a hardware transaction one cannot call clock functions (they may
// abort the transaction), so the delay must be a spin loop: a delay given
// in nanoseconds is turned into a relax count once per process, outside any
// transaction, by timing the relax hint against the steady clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sbq {

// One "relax" hint to the pipeline (PAUSE on x86).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Spin for approximately `iters` relax iterations. Transaction-safe: touches
// no memory and makes no calls that could abort an HTM transaction.
inline void spin_iterations(std::uint32_t iters) noexcept {
  for (std::uint32_t i = 0; i < iters; ++i) cpu_relax();
}

// Nanoseconds one cpu_relax() takes on the running CPU. Measured on first use
// (about half a millisecond) and then fixed for the process: the median of
// seven timed runs of 4096 relaxes. The median, not the fastest run: a
// relax's cost drifts by ±15% from run to run on a VM, and a preempted run
// is an outlier either way.
inline double relax_ns() noexcept {
  static const double ns = [] {
    using Clock = std::chrono::steady_clock;
    constexpr std::uint32_t kIters = 4096;
    constexpr int kRuns = 7;
    double per[kRuns];
    for (double& p : per) {
      const auto t0 = Clock::now();
      spin_iterations(kIters);
      p = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
          kIters;
    }
    std::nth_element(per, per + kRuns / 2, per + kRuns);
    return std::max(per[kRuns / 2], 0.01);
  }();
  return ns;
}

// Relax iterations that spin for about `ns` nanoseconds (at least one for a
// nonzero delay).
inline std::uint32_t spins_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return 0;
  const double spins = std::round(static_cast<double>(ns) / relax_ns());
  return static_cast<std::uint32_t>(std::clamp(spins, 1.0, 4294967295.0));
}

// Bounded exponential delay ladder: base << level, saturating at cap.
// Shared by SeededBackoff and the adaptive contention policies so both
// agree on what "level k" means.
inline constexpr std::uint64_t bounded_exp_delay(std::uint64_t base,
                                                 std::uint32_t level,
                                                 std::uint64_t cap) noexcept {
  if (base == 0) return 0;
  if (level >= 63) return cap;
  const std::uint64_t d = base << level;
  // Detect shift overflow as well as a plain overshoot.
  return (d < base || d > cap) ? cap : d;
}

// Seedable bounded exponential backoff with a private deterministic PRNG
// stream. Unlike `Backoff` below, the delay at each level is jittered
// uniformly over [half, full] of the ladder value, so threads seeded
// differently desynchronize instead of colliding again in lockstep; the
// same (seed, stream) pair always reproduces the same delay sequence.
class SeededBackoff {
 public:
  explicit SeededBackoff(std::uint64_t seed, std::uint64_t stream = 0,
                         std::uint32_t base_iters = 1,
                         std::uint64_t cap_iters = 1024) noexcept
      : rng_(seed ^ (stream * 0x9e3779b97f4a7c15ULL)),
        base_(base_iters == 0 ? 1 : base_iters),
        cap_(cap_iters) {}

  // Delay for the current level, then escalate. Returns the iteration
  // count actually spun so callers (and tests) can observe the sequence.
  std::uint64_t pause() noexcept {
    const std::uint64_t iters = next_delay();
    // Chunked so a pathological cap can't overflow spin_iterations' u32.
    std::uint64_t left = iters;
    while (left > 0) {
      const std::uint32_t chunk =
          left > 0xffffffffULL ? 0xffffffffU : static_cast<std::uint32_t>(left);
      spin_iterations(chunk);
      left -= chunk;
    }
    return iters;
  }

  // The delay the next pause() would use (advances the PRNG and the level).
  std::uint64_t next_delay() noexcept {
    const std::uint64_t full = bounded_exp_delay(base_, level_, cap_);
    if (level_ < 63) ++level_;
    const std::uint64_t half = full / 2;
    const std::uint64_t span = full - half + 1;
    return half + rng_.next() % span;
  }

  void reset() noexcept { level_ = 0; }
  std::uint32_t level() const noexcept { return level_; }

 private:
  SplitMix64 rng_;
  std::uint32_t base_;
  std::uint32_t level_ = 0;
  std::uint64_t cap_;
};

// Classic bounded exponential backoff for CAS retry loops.
class Backoff {
 public:
  explicit Backoff(std::uint32_t min_iters = 1, std::uint32_t max_iters = 1024) noexcept
      : cur_(min_iters), max_(max_iters) {}

  void pause() noexcept {
    spin_iterations(cur_);
    if (cur_ < max_) cur_ *= 2;
  }

  void reset(std::uint32_t min_iters = 1) noexcept { cur_ = min_iters; }

 private:
  std::uint32_t cur_;
  std::uint32_t max_;
};

}  // namespace sbq
