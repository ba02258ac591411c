// Fundamental types and configuration for the coherence simulator.
//
// The simulator models the machine of §3.1 of the paper: a multi-core (and
// optionally multi-socket) processor with private caches, a shared LLC with
// an MSI directory, and a point-to-point interconnect that supports multiple
// in-flight messages. Time is measured in cycles; one simulated word maps to
// one cache line (the algorithms pad contended variables anyway).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contention.hpp"

namespace sbq::sim {

using Addr = std::uint64_t;   // word address; one word per cache line
using Value = std::uint64_t;  // 64-bit memory words (§2 "Atomic primitives")
using Time = std::uint64_t;   // cycles
using CoreId = int;

inline constexpr Addr kNullAddr = 0;  // sim code treats address 0 as NULL

// Interconnect topology model (selected via MachineConfig).
//
//   kFlat — the original latency matrix: every hop costs intra_latency or
//           inter_latency, bandwidth is unlimited. Cheap and sufficient for
//           single-socket sweeps (there is no cross-socket traffic to
//           contend for).
//   kLink — per-socket-pair link objects with finite bandwidth: each
//           directed cross-socket link serializes messages (one every
//           link_occupancy cycles) through a FIFO occupancy queue, so a
//           message's delay is inter_latency plus however long the link's
//           queue makes it wait. Intra-socket messages still use the flat
//           intra_latency (the on-chip mesh is not the bottleneck §3.1
//           models). This is what lets ablation_numa capture *contention*
//           on the socket link rather than just the added hop cost.
enum class InterconnectModel : std::uint8_t { kFlat, kLink };

// Kinds of HTM abort the fault-injection layer can force into an in-flight
// simulated transaction. The simulator's protocol only ever produces
// conflict aborts on its own; real HTM additionally aborts on footprint
// overflow (capacity), timer interrupts/context switches, and for
// unexplained ("spurious") reasons — the cases the paper's fallback
// argument (§4 "Progress") has to survive.
enum class FaultKind : std::uint8_t { kCapacity, kInterrupt, kSpurious };
inline constexpr int kFaultKindCount = 3;

// One scheduled fault: at simulated cycle `time`, abort whatever
// transaction core `core` has in flight (a no-op if that core is not in a
// transaction at that instant — like a real timer interrupt).
struct FaultOneShot {
  Time time = 0;
  CoreId core = 0;
  FaultKind kind = FaultKind::kInterrupt;
};

// Deterministic, seedable fault-injection plan (off by default — a default
// plan leaves every simulated schedule and every golden byte-identical).
//
// Rate-based injection draws once per transactional attempt from a
// per-core SplitMix64 stream seeded from (seed, core id); at most one fault
// fires per attempt, at a deterministic offset inside the attempt's
// vulnerability window. Message jitter draws per interconnect message from
// a dedicated stream. All streams fork with Machine::snapshot(), so forked
// repeats replay byte-identically.
struct FaultPlan {
  bool enabled = false;     // master switch; false ⇒ zero schedule impact
  std::uint64_t seed = 1;   // root of every injection RNG stream
  // Per-transactional-attempt abort probabilities in [0, 1] (summed: at
  // most one injected abort per attempt).
  double capacity_rate = 0.0;
  double interrupt_rate = 0.0;
  double spurious_rate = 0.0;
  // Bounded message-latency jitter: with probability `message_jitter_rate`
  // a message's delivery is delayed by a uniform 1..max_message_jitter
  // extra cycles. Jitter only ever adds latency and per-(src,dst) FIFO
  // order is preserved (arrival times are clamped to be monotone per
  // pair), so every jittered schedule is protocol-legal.
  double message_jitter_rate = 0.0;
  Time max_message_jitter = 0;
  // Scheduled one-shot faults (fired when run() first starts the machine).
  std::vector<FaultOneShot> one_shots;

  bool rates_active() const noexcept {
    return enabled &&
           (capacity_rate > 0 || interrupt_rate > 0 || spurious_rate > 0);
  }
  bool jitter_active() const noexcept {
    return enabled && message_jitter_rate > 0 && max_message_jitter > 0;
  }
};

// Machine-wide timing and topology parameters. Defaults approximate the
// paper's Broadwell (§3.2 cites 15–30 cycles per message delay; QPI hops
// are several times that).
struct MachineConfig {
  int cores = 44;
  int sockets = 1;          // cores are split evenly across sockets
  Time intra_latency = 40;  // message delay within a socket [cycles]
  Time inter_latency = 160; // message delay across sockets [cycles]
  InterconnectModel interconnect_model = InterconnectModel::kFlat;
  // kLink only: cycles a directed cross-socket link is held per message
  // (the inverse of its bandwidth). A QPI-class link moves a 64-byte
  // flit train in a handful of cycles; 16 makes two back-to-back remote
  // messages visibly queue without dominating the 160-cycle hop.
  Time link_occupancy = 16;
  // Order in which the directory delivers back-to-back Invs to a line's
  // sharers (§3.3). True (default) walks the sharer bitmask in ascending
  // core-id order — the canonical, re-baselined schedule. False replays the
  // pre-canonical libstdc++ bucket-chain order (legacy_inv_order.hpp) for
  // diffing against PR-3 artifacts; legacy mode keeps a per-line side table
  // and is exempt from the zero-alloc gates.
  bool canonical_inv_order = true;
  Time dir_occupancy = 3;   // directory per-request processing time
  Time hit_latency = 1;     // cache hit
  Time rmw_latency = 8;     // read-modify-write execute cost once owned
  bool uarch_fix = false;   // §3.4.1: stall Fwd-GetS of a committing txn
  bool record_trace = false;
  // Bounded event-trace ring: once `trace_capacity` events are buffered the
  // oldest are overwritten (Trace::dropped() reports how many).
  std::size_t trace_capacity = std::size_t{1} << 20;
  // Metrics registry (sim::Stats): machine-wide + per-core counters. Plain
  // increments — keep on unless a microbenchmark needs the last percent.
  bool collect_stats = true;
  // Additionally key protocol counters by cache line (a hash lookup per
  // protocol event; off by default).
  bool track_lines = false;
  // Fault injection (docs/robustness.md). Disabled by default: with the
  // default plan every driver's output is byte-identical to tests/golden/.
  FaultPlan fault_plan;
  // Runtime coherence invariant checker: after every delivered protocol
  // message, verify SWMR and directory/cache consistency (O(lines × cores)
  // per message — always compiled, opt-in). A violation dumps the debug
  // ring to stderr and throws std::logic_error instead of silently
  // simulating on corrupt state.
  bool check_invariants = false;
  // --- Sliced directory ------------------------------------------------
  // The directory is split into `dir_slices` independent slices, each its
  // own interconnect node; a line with address A is homed on slice
  // A % dir_slices. This is a model parameter (it moves directory traffic
  // off one node); the default keeps every golden byte-identical.
  int dir_slices = 1;
  // Deterministic per-core allocation arenas: Machine::alloc(words, core)
  // carves from a fixed 2^30-word region per core instead of the shared
  // bump cursor, so mid-run allocations get addresses independent of the
  // order cores reach their allocation sites. The drivers enable it
  // whenever dir_slices > 1.
  bool alloc_arenas = false;
  // Pre-fill the coroutine FramePool of the constructing thread with this
  // many free frames per size class. 0 (default) skips the prewarm; the
  // allocation-gate benches set it so a steady phase whose live-frame
  // high-water exceeds the cold phase's never hits the heap.
  std::size_t prewarm_frames = 0;
  // Pre-fill the engine's event-node slab with at least this many nodes at
  // construction. 0 (default) skips it. Machines forked from a *deserialized*
  // snapshot set this (the in-memory fork path inherits the warmed engine's
  // slabs for free, the on-disk path starts from a cold engine): the
  // measured phase then never refills the slab, keeping the zero-alloc
  // perf_smoke gates green on the cached warm-start path.
  std::size_t prewarm_event_nodes = 0;
  // Saturation accounting (backpressure): when > 0, the interconnect's
  // per-link occupancy queues and the per-slice directory count how often
  // a message arrives while `cap` messages are already queued ahead of it
  // (a stall) and track the peak queue depth. Accounting only — arrival
  // times are unchanged, so any cap is golden-safe.
  std::uint64_t link_queue_cap = 0;
  std::uint64_t dir_queue_cap = 0;
  // TxCAS contention policy (common/contention.hpp): fixed (default,
  // byte-identical goldens), adaptive-backoff, or adaptive-fallback.
  // Machine-wide so it participates in machine_config_digest and thus in
  // snapshot/cache identity; the persistent per-core policy state lives in
  // each core's TxCasOp slot and is serialized alongside it.
  ContentionPolicyParams cas_policy;
};

// Simulated cycles in `ns` nanoseconds at 0.4 ns/cycle.
inline constexpr Time cycles_from_ns(std::uint64_t ns) noexcept {
  return ns * 5 / 2;
}

// TxCAS tuning (§4.1, §4.2): the paper's 270 ns intra-transaction delay is
// 675 cycles; the 52 ns post-abort delay, 130 cycles, covers an
// intra-socket Inv/Ack round trip.
struct TxCasConfig {
  Time intra_txn_delay = cycles_from_ns(kIntraTxnDelayNs);
  Time post_abort_delay = cycles_from_ns(kPostAbortDelayNs);
  int max_attempts = 64;  // then fall back to a plain CAS (wait-freedom)
  // Graceful degradation: after this many NON-conflict aborts (capacity /
  // interrupt / spurious — in the simulator these only arise from fault
  // injection) within one TxCAS call, stop retrying transactionally and
  // degrade to a plain CAS immediately. Retrying past persistent
  // non-conflict aborts buys nothing: a capacity abort recurs
  // deterministically and interrupt storms starve the commit window. The
  // degraded path is counted separately (`fallback_cas`) from the
  // attempt-budget fallback (`fallbacks`). 0 disables degradation. The
  // default is the shared cross-backend constant (common/contention.hpp);
  // the native backend documents its deliberate 0 override there.
  int max_nonconflict_aborts =
      static_cast<int>(kDefaultNonconflictAbortBudget);
};

// The policy object a (machine policy params, per-op TxCasConfig) pair
// resolves to — the exact construction Core::start_txcas uses. Exposed so
// the cross-backend differential test can drive the sim's decision logic
// directly against the native one.
inline ContentionPolicy make_contention_policy(
    const ContentionPolicyParams& params, const TxCasConfig& cfg) noexcept {
  return ContentionPolicy(
      params,
      ContentionKnobs{cfg.intra_txn_delay, cfg.post_abort_delay,
                      static_cast<std::uint32_t>(cfg.max_attempts < 0
                                                     ? 0
                                                     : cfg.max_attempts),
                      static_cast<std::uint32_t>(
                          cfg.max_nonconflict_aborts < 0
                              ? 0
                              : cfg.max_nonconflict_aborts)});
}

}  // namespace sbq::sim
