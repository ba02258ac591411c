// TxCAS: compare-and-set implemented as a hardware transaction (Algorithm 1
// of the paper), with the wait-free plain-CAS fallback the paper describes
// in prose ("Progress", §4).
//
// Structure of one attempt:
//   outer xbegin
//     nested xbegin            -- so conflict aborts report the NESTED bit
//       value = *ptr
//       if value != old: xabort(1)   -- explicit self-abort => return false
//       delay()                -- intra-transaction delay (§4.1)
//     nested xend
//     *ptr = new               -- the CAS write
//   outer xend  => return true
//
// Abort handling (§4.2):
//   * explicit self-abort  -> false (value mismatch observed in the txn)
//   * non-conflict abort, or conflict after the nested txn (we may be the
//     tripped writer) -> retry immediately
//   * conflict inside the nested txn -> post-abort delay, then re-read the
//     target; if it changed, fail; else retry.
//
// On hosts without RTM, htm::begin() always reports a non-conflict abort.
// The intra-transaction delay runs inside the transaction, so it never
// runs there: a call makes max_attempts futile begin() calls and then an
// *undelayed* plain CAS. That is not SBQ-CAS (DelayedCas), whose delay
// precedes the CAS; docs/performance.md ("Native SBQ") has the numbers.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/backoff.hpp"
#include "common/contention.hpp"
#include "htm/htm.hpp"

namespace sbq {

struct TxCasConfig {
  // Intra-transaction delay between the read and the write, in spin
  // iterations (§4.1). Defaults to the paper's 270 ns, converted to spins
  // by the one-time calibration in common/backoff.hpp.
  std::uint32_t intra_txn_delay = spins_for_ns(kIntraTxnDelayNs);
  // Post-abort delay before re-reading the target (§4.2), in spin
  // iterations (default 52 ns, converted the same way): long enough for an
  // in-flight writer's GetM to complete so that our read does not trip it.
  std::uint32_t post_abort_delay = spins_for_ns(kPostAbortDelayNs);
  // After this many transactional attempts, fall back to plain CAS. This is
  // what makes TxCAS wait-free despite HTM offering no progress guarantee.
  std::uint32_t max_attempts = 32;
  // Graceful degradation: after this many NON-conflict aborts within one
  // call (capacity, interrupt, spurious — anything but a data conflict or
  // the explicit self-abort), stop retrying transactionally and take the
  // plain-CAS fallback immediately. Persistent non-conflict aborts recur
  // (a capacity overflow is deterministic; an interrupt storm starves the
  // commit window), so burning the remaining attempt budget buys nothing.
  // The native default deliberately overrides the shared
  // kDefaultNonconflictAbortBudget: on hosts without RTM every abort
  // reports as non-conflict, and the bounded retry loop IS the intended
  // delayed-CAS behavior there (see common/contention.hpp).
  std::uint32_t max_nonconflict_aborts = kNativeNonconflictAbortOverride;
  // Retry/delay policy (fixed by default; see common/contention.hpp for
  // the adaptive alternatives).
  ContentionPolicyParams policy{};
};

// Per-thread persistent contention history for native TxCAS (the DHM
// failure level and jitter stream). The first TxCAS call on a thread pins
// that thread's stream id; `seed` only matters for that first call.
inline ContentionPolicy::State& native_contention_state(
    std::uint64_t seed) noexcept {
  static std::atomic<std::uint64_t> next_stream{0};
  thread_local ContentionPolicy::State state = ContentionPolicy::seeded_state(
      seed, next_stream.fetch_add(1, std::memory_order_relaxed));
  return state;
}

// Explicit-abort code used by the value-mismatch self-abort.
inline constexpr std::uint8_t kTxCasMismatchCode = 1;

template <typename T>
class TxCas {
 public:
  explicit TxCas(TxCasConfig cfg = {}) noexcept : cfg_(cfg) {}

  // The policy object this config resolves to — the exact construction the
  // retry loop below uses. Exposed so the cross-backend differential test
  // can drive the native decision logic directly.
  static ContentionPolicy make_policy(const TxCasConfig& cfg) noexcept {
    return ContentionPolicy(
        cfg.policy, ContentionKnobs{cfg.intra_txn_delay, cfg.post_abort_delay,
                                    cfg.max_attempts,
                                    cfg.max_nonconflict_aborts});
  }

  // CAS(target, expected, desired) with TxCAS failure scalability.
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    ContentionPolicy policy = make_policy(cfg_);
    ContentionPolicy::State& history = native_contention_state(cfg_.policy.seed);
    policy.begin_call();
    while (policy.next_step() == CasStep::kTxn) {
      policy.note_attempt();
      const unsigned ret = htm::begin();
      if (htm::started(ret)) {
        // Nested transaction wraps the read+check+delay so that a conflict
        // there is distinguishable from one that trips the write.
        const unsigned nested = htm::begin();
        if (htm::started(nested)) {
          const T value = target.load(std::memory_order_relaxed);
          if (value != expected) htm::abort_with(kTxCasMismatchCode);
          spin_delay(policy.intra_delay(history));
          htm::end();
        }
        target.store(desired, std::memory_order_relaxed);
        htm::end();
        policy.on_commit(history);
        return true;
      }
      // Aborted. Execution resumes here with the abort status in `ret`.
      if (htm::is_explicit(ret) && htm::explicit_code(ret) == kTxCasMismatchCode) {
        return false;  // observed a different value inside the transaction
      }
      if (!(htm::is_conflict(ret) && htm::is_nested(ret))) {
        // Either a non-conflict abort, or a conflict that tripped our write:
        // retry immediately (delaying would only waste the commit window).
        // The policy decides when non-conflict aborts have exhausted the
        // degradation budget, making further transactional retries futile.
        const bool nonconflict = !htm::is_conflict(ret) && !htm::is_explicit(ret);
        policy.on_abort(history, nonconflict ? CasAbort::kNonConflict
                                             : CasAbort::kWriteConflict);
        continue;
      }
      // Conflict during the read step: someone's write is in flight. Wait
      // for their GetM to finish before reading, to avoid tripping them.
      policy.on_abort(history, CasAbort::kReadConflict);
      spin_delay(policy.post_abort_delay(history));
      if (target.load(std::memory_order_acquire) != expected) return false;
    }
    // Wait-free fallback: a plain CAS always terminates.
    return target.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  const TxCasConfig& config() const noexcept { return cfg_; }

 private:
  // Policy delays are 64-bit (sim cycles elsewhere); native spin counts
  // stay within u32 but clamp defensively.
  static void spin_delay(std::uint64_t iters) noexcept {
    spin_iterations(iters > 0xffffffffULL ? 0xffffffffU
                                          : static_cast<std::uint32_t>(iters));
  }

  TxCasConfig cfg_;
};

}  // namespace sbq
