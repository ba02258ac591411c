// Multi-thread stress tests for native-queue defects that only show with
// real parallelism (ctest label native_stress). Each test runs many short
// rounds on a fresh queue with at least four threads, so a bug that needs
// a narrow interleaving gets thousands of chances per run:
//
//   * CC-Queue: the combiner must read a record's `next` before releasing
//     it. A waiter whose request was served may recycle its record at once,
//     and a combiner that reads `next` afterwards follows a reset link
//     (crash) or hands the lock to the wrong record (hang).
//   * BQ-Modular (sbq::Queue over TreiberBasket): dequeue may skip a basket
//     only once it is empty AND closed. Skipping an open basket that is
//     momentarily empty strands any value an enqueuer inserts afterwards.
//
// The workload is pairwise, like the native benchmark: every thread
// alternates a tagged enqueue and a dequeue, then a single-threaded drain
// collects what is left. Every value must be delivered exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "basket/treiber_basket.hpp"
#include "common/barrier.hpp"
#include "htm/cas_policy.hpp"
#include "queues/cc_queue.hpp"
#include "queues/sbq.hpp"
#include "queue_test_util.hpp"  // testutil::Element

namespace sbq {
namespace {

using testutil::Element;

int stress_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(4, hw);
}

// One pairwise round on `q`; returns how many of the threads * pairs
// values were delivered exactly once (the rest were lost or duplicated).
template <typename Q>
std::uint64_t pairwise_round(Q& q, int threads, std::uint64_t pairs) {
  std::vector<Element> storage(static_cast<std::size_t>(threads) * pairs);
  std::vector<std::vector<Element*>> got(static_cast<std::size_t>(threads));
  SpinBarrier barrier(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      mine.reserve(pairs);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < pairs; ++i) {
        Element* e = &storage[static_cast<std::size_t>(t) * pairs + i];
        e->producer = t;
        e->seq = i;
        q.enqueue(e, t);
        if (Element* d = q.dequeue(t)) mine.push_back(d);
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<Element*> all;
  for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
  while (Element* d = q.dequeue(0)) all.push_back(d);
  std::sort(all.begin(), all.end());
  const std::uint64_t distinct = static_cast<std::uint64_t>(
      std::unique(all.begin(), all.end()) - all.begin());
  const std::uint64_t duplicates = all.size() - distinct;
  return distinct - duplicates;
}

TEST(NativeStress, CcQueuePairwiseNoLossNoDup) {
  const int threads = stress_threads();
  constexpr int kRounds = 200;
  constexpr std::uint64_t kPairs = 2000;
  for (int round = 0; round < kRounds; ++round) {
    CcQueue<Element> q(static_cast<std::size_t>(threads));
    ASSERT_EQ(pairwise_round(q, threads, kPairs),
              static_cast<std::uint64_t>(threads) * kPairs)
        << "round " << round;
  }
}

TEST(NativeStress, BqModularPairwiseNoLoss) {
  using BqModular = Queue<Element, TreiberBasket<Element>, NativeCas>;
  const int threads = stress_threads();
  constexpr int kRounds = 200;
  constexpr std::uint64_t kPairs = 2000;
  for (int round = 0; round < kRounds; ++round) {
    BqModular::Config cfg;
    cfg.max_enqueuers = static_cast<std::size_t>(threads);
    cfg.max_dequeuers = static_cast<std::size_t>(threads);
    auto q = std::make_unique<BqModular>(cfg);
    ASSERT_EQ(pairwise_round(*q, threads, kPairs),
              static_cast<std::uint64_t>(threads) * kPairs)
        << "round " << round;
  }
}

}  // namespace
}  // namespace sbq
