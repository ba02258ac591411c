// CAS policies pluggable into the modular baskets queue's try_append.
//
// The paper evaluates SBQ-HTM (TxCAS) against SBQ-CAS (plain CAS with the
// same delay inserted before the attempt). Both are expressed here as
// policies satisfying the CasPolicy concept, so sbq::Queue is instantiated
// once and measured with either.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

#include "common/backoff.hpp"
#include "common/contention.hpp"
#include "htm/txcas.hpp"

namespace sbq {

template <typename P, typename T>
concept CasPolicy = requires(const P& p, std::atomic<T>& a, T v) {
  { p(a, v, v) } noexcept -> std::same_as<bool>;
};

// Plain hardware CAS.
struct NativeCas {
  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    return target.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }
};

// SBQ-CAS from §6.1: plain CAS preceded by the same delay TxCAS performs
// between its read and write. The delay widens the window in which multiple
// enqueuers observe the same tail, which grows the baskets and is why
// SBQ-CAS tracks SBQ-HTM at low concurrency (Figure 5). The default is the
// paper's 270 ns in spins, as for TxCasConfig::intra_txn_delay.
struct DelayedCas {
  std::uint32_t delay_iterations = spins_for_ns(kIntraTxnDelayNs);

  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    if (target.load(std::memory_order_acquire) != expected) return false;
    spin_iterations(delay_iterations);
    return target.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }
};

// TxCAS policy wrapper. Without RTM each call is max_attempts futile
// begin() calls and then an undelayed plain CAS (see htm/txcas.hpp), not a
// DelayedCas.
// The embedded TxCasConfig carries the full retry/fallback policy,
// including max_nonconflict_aborts — set it to make the queue's appends
// degrade to plain CAS under persistent capacity/interrupt aborts instead
// of burning the whole transactional attempt budget.
struct HtmCas {
  TxCasConfig config{};

  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    return TxCas<T>(config)(target, expected, desired);
  }
};

// Adaptive variants for native SBQ (see common/contention.hpp): the same
// TxCAS with a non-fixed ContentionPolicy baked into the config. Usable
// anywhere HtmCas is, e.g. sbq::Queue<T, Basket, HtmCas> with
// `q.cas = adaptive_backoff_cas(seed)`.

// Dice–Hendler–Mirsky failure-history delay scaling: intra-txn/post-abort
// delays start below the fixed constants and double toward a cap while the
// calling thread keeps aborting on conflicts.
inline HtmCas adaptive_backoff_cas(std::uint64_t seed = 1) noexcept {
  HtmCas c{};
  c.config.policy.kind = ContentionPolicyKind::kAdaptiveBackoff;
  c.config.policy.seed = seed;
  return c;
}

// Brown-style abort-cause-aware fallback budget: non-conflict aborts spend
// the retry budget faster than conflict aborts. Enables the shared
// degradation default, which the plain native config keeps disabled.
inline HtmCas adaptive_fallback_cas() noexcept {
  HtmCas c{};
  c.config.policy.kind = ContentionPolicyKind::kAdaptiveFallback;
  c.config.max_nonconflict_aborts = kDefaultNonconflictAbortBudget;
  return c;
}

static_assert(CasPolicy<NativeCas, void*>);
static_assert(CasPolicy<DelayedCas, void*>);
static_assert(CasPolicy<HtmCas, void*>);

}  // namespace sbq
