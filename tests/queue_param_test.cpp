// Parameterized property sweeps for the native SBQ: the MPMC invariants
// (exactly-once delivery, per-producer FIFO) must hold across basket sizes,
// live-enqueuer fractions, and thread mixes; plus targeted property tests
// on the structural invariants of the modular queue (consecutive node
// indices, monotone head/tail).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "basket/sbq_basket.hpp"
#include "common/barrier.hpp"
#include "htm/cas_policy.hpp"
#include "queues/sbq.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

using testutil::Element;
using SbqHtm = Queue<Element, SbqBasket<Element>, HtmCas>;

// (producers, consumers, basket_capacity)
using Param = std::tuple<int, int, int>;

class SbqSweepTest : public ::testing::TestWithParam<Param> {};

TEST_P(SbqSweepTest, MpmcInvariantsHold) {
  const auto [producers, consumers, capacity] = GetParam();
  if (capacity < producers) GTEST_SKIP() << "capacity must cover producers";
  SbqHtm::Config cfg;
  cfg.max_enqueuers = static_cast<std::size_t>(capacity);
  cfg.max_dequeuers = static_cast<std::size_t>(consumers);
  cfg.live_enqueuers = static_cast<std::size_t>(producers);
  SbqHtm q(cfg);

  constexpr std::uint64_t kPerProducer = 1200;
  std::vector<Element> storage;
  auto result =
      testutil::run_mpmc(q, producers, consumers, kPerProducer, storage);
  testutil::verify_mpmc(result, producers, kPerProducer);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SbqSweepTest,
    ::testing::Values(Param{1, 1, 1}, Param{1, 1, 44}, Param{2, 2, 2},
                      Param{2, 2, 44}, Param{4, 2, 4}, Param{2, 4, 44},
                      Param{6, 2, 8}, Param{3, 3, 3}, Param{5, 5, 8},
                      Param{8, 1, 8}, Param{1, 6, 44}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param)) + "_B" +
             std::to_string(std::get<2>(info.param));
    });

// Structural properties checked quiescently after concurrent phases.

// Seconds covered by the union of the [start, end) intervals.
double union_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double covered_to = -1e300;
  for (const auto& [begin, end] : intervals) {
    const double from = std::max(begin, covered_to);
    if (end > from) total += end - from;
    covered_to = std::max(covered_to, end);
  }
  return total;
}

// CPU seconds the calling thread has consumed.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(SbqStructureProperty, TailIndexNeverExceedsAppendedNodes) {
  constexpr int kProducers = 6;
  SbqHtm::Config cfg;
  cfg.max_enqueuers = kProducers;
  cfg.max_dequeuers = 1;
  SbqHtm q(cfg);
  constexpr std::uint64_t kPer = 2000;
  std::vector<Element> storage(kProducers * kPer);
  // Each producer stamps the start and end of its enqueue loop, in wall
  // time and in its own CPU time.
  std::vector<std::pair<double, double>> wall(kProducers);
  std::vector<double> cpu(kProducers);
  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_seconds = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  SpinBarrier barrier(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto me = static_cast<std::size_t>(p);
      barrier.arrive_and_wait();
      // The CPU-time stamps nest inside the wall-time ones.
      wall[me].first = wall_seconds();
      const double cpu0 = thread_cpu_seconds();
      for (std::uint64_t i = 0; i < kPer; ++i) {
        q.enqueue(&storage[me * kPer + i], p);
      }
      cpu[me] = thread_cpu_seconds() - cpu0;
      wall[me].second = wall_seconds();
    });
  }
  for (auto& th : producers) th.join();
  // With baskets forming, appended nodes <= total elements; indices are
  // consecutive so tail index == appended nodes.
  const auto all_single = static_cast<std::uint64_t>(kProducers) * kPer;
  EXPECT_LE(q.tail_index(), all_single);
  EXPECT_GE(q.tail_index(), 1u);
  // Under real parallelism at least one basket must absorb >1 element. A
  // host may run the producers one at a time even when it reports several
  // CPUs (back to back, or time-sliced on one CPU, where the wall-clock
  // loop intervals still overlap); then no append can ever lose. The loops'
  // CPU time beyond the wall time they spanned can only have run alongside
  // another loop, so that is the measured overlap. Below 50 us of overlap
  // (a few hundred enqueues racing for the same tail) a run without any
  // basket is skipped rather than failed.
  constexpr double kMinOverlapSeconds = 50e-6;
  double cpu_total = 0;
  for (double c : cpu) cpu_total += c;
  const double span = union_seconds(wall);
  const double overlap = cpu_total - span;
  std::ostringstream measured;
  measured << "measured overlap " << overlap * 1e6 << " us: "
           << cpu_total * 1e6 << " us of loop CPU time in " << span * 1e6
           << " us of wall time";
  if (overlap < kMinOverlapSeconds && q.tail_index() == all_single) {
    GTEST_SKIP() << "producer loops did not run in parallel ("
                 << measured.str() << "), so no append could lose";
  }
  EXPECT_LT(q.tail_index(), all_single)
      << "no basket ever formed under 6-way contention (" << measured.str()
      << ")";
}

TEST(SbqStructureProperty, HeadNeverPassesTail) {
  SbqHtm::Config cfg;
  cfg.max_enqueuers = 2;
  cfg.max_dequeuers = 2;
  SbqHtm q(cfg);
  constexpr std::uint64_t kPer = 3000;
  std::vector<Element> storage;
  auto result = testutil::run_mpmc(q, 2, 2, kPer, storage);
  testutil::verify_mpmc(result, 2, kPer);
  EXPECT_LE(q.head_index(), q.tail_index());
}

TEST(SbqStructureProperty, DrainedQueueReportsEmptyForever) {
  SbqHtm::Config cfg;
  cfg.max_enqueuers = 3;
  cfg.max_dequeuers = 1;
  SbqHtm q(cfg);
  std::vector<Element> storage;
  auto result = testutil::run_mpmc(q, 3, 1, 500, storage);
  testutil::verify_mpmc(result, 3, 500);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.dequeue(0), nullptr);
  }
}

TEST(SbqStructureProperty, ReuseAcrossManyOperationsStaysBounded) {
  // Node reuse (§5.2.2) must keep the queue's footprint bounded when the
  // queue stays near-empty: enqueue/dequeue pairs should not grow the list.
  SbqHtm::Config cfg;
  cfg.max_enqueuers = 1;
  cfg.max_dequeuers = 1;
  SbqHtm q(cfg);
  Element e;
  for (int i = 0; i < 20000; ++i) {
    q.enqueue(&e, 0);
    ASSERT_EQ(q.dequeue(0), &e);
  }
  EXPECT_LE(q.node_count(), 4u);
}

}  // namespace
}  // namespace sbq
