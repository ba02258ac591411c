// StripedBasket: a basket with more scalable extraction — our take on the
// paper's future-work item (§8: "designing a basket with scalable dequeue
// operations").
//
// SBQ's dequeue bottleneck is the single extraction counter: every extract
// performs one FAA on it, so dequeue latency is linear in the number of
// concurrent dequeuers (§5.3.4). This basket shards the counter: cells are
// partitioned into S stripes, each with its own counter. An extractor
// starts at the stripe derived from its id and claims indices there; when a
// stripe drains it moves on to the next. The FAA contention per counter
// drops by ~S while every basket-ADT property (§5.2.1) is preserved:
//
//   * insert is still a single CAS on the inserter's private cell;
//   * an extract returns null only after claiming past the end of every
//     stripe, at which point all cells are closed — so emptiness indication
//     is stable (the linearizability hinge of §5.3.2);
//   * the empty bit is set by whoever claims the globally last index
//     (tracked by a drained-stripe counter), exactly once.
//
// Wait-free: insert is one CAS; extract performs at most B + S FAAs.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

#include "basket/basket.hpp"
#include "common/cacheline.hpp"
#include "common/padded.hpp"

namespace sbq {

template <typename T, std::size_t kStripes = 4>
class StripedBasket {
  using Cell = Padded<std::atomic<void*>>;

 public:
  static constexpr std::size_t storage_bytes(std::size_t capacity) noexcept {
    return capacity * sizeof(Cell);
  }

  // Cells are placed in `storage` (basket.hpp, "Storage").
  StripedBasket(void* storage, std::size_t capacity,
                std::size_t live_inserters)
      : capacity_(capacity),
        live_(live_inserters == 0 ? capacity : live_inserters),
        cells_(static_cast<Cell*>(storage)) {
    assert(live_ <= capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      new (&cells_[i]) Cell;
      cells_[i].value.store(kInsert, std::memory_order_relaxed);
    }
  }

  // A standalone basket that owns its cells.
  explicit StripedBasket(std::size_t capacity, std::size_t live_inserters = 0)
      : StripedBasket(allocate_basket_storage(storage_bytes(capacity)),
                      capacity, live_inserters) {
    owned_ = cells_;
  }

  ~StripedBasket() { release_basket_storage(owned_); }

  StripedBasket(const StripedBasket&) = delete;
  StripedBasket& operator=(const StripedBasket&) = delete;

  bool insert(T* element, int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    void* expected = kInsert;
    return cells_[static_cast<std::size_t>(id)].value.compare_exchange_strong(
        expected, element, std::memory_order_release, std::memory_order_acquire);
  }

  T* extract(int id) {
    if (empty_.load(std::memory_order_acquire)) return nullptr;
    const std::size_t start =
        static_cast<std::size_t>(id) % live_stripes();
    for (std::size_t hop = 0; hop < live_stripes(); ++hop) {
      const std::size_t s = (start + hop) % live_stripes();
      const std::uint64_t size = stripe_size(s);
      std::uint64_t index;
      while ((index = counters_[s].value.fetch_add(
                  1, std::memory_order_acq_rel)) < size) {
        if (index == size - 1) mark_stripe_drained();
        void* element = cells_[stripe_base(s) + index].value.exchange(
            kEmpty, std::memory_order_acq_rel);
        if (element != kInsert) return static_cast<T*>(element);
      }
    }
    return nullptr;
  }

  bool empty() const { return empty_.load(std::memory_order_acquire); }

  void reset(int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    cells_[static_cast<std::size_t>(id)].value.store(kInsert,
                                                     std::memory_order_relaxed);
    for (std::size_t s = 0; s < kStripes; ++s) {
      counters_[s].value.store(0, std::memory_order_relaxed);
    }
    drained_.store(0, std::memory_order_relaxed);
    empty_.store(false, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  static constexpr std::size_t stripes() noexcept { return kStripes; }

 private:
  static inline char insert_tag_;
  static inline char empty_tag_;
  static inline void* const kInsert = &insert_tag_;
  static inline void* const kEmpty = &empty_tag_;

  // Only cells [0, live_) can ever be inserted into; stripe the live range.
  std::size_t live_stripes() const noexcept {
    return live_ < kStripes ? live_ : kStripes;
  }
  std::uint64_t stripe_size(std::size_t s) const noexcept {
    const std::size_t n = live_stripes();
    return live_ / n + (s < live_ % n ? 1 : 0);
  }
  std::size_t stripe_base(std::size_t s) const noexcept {
    const std::size_t n = live_stripes();
    const std::size_t base = live_ / n;
    const std::size_t rem = live_ % n;
    return s * base + (s < rem ? s : rem);
  }

  void mark_stripe_drained() {
    if (drained_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        live_stripes()) {
      empty_.store(true, std::memory_order_release);
    }
  }

  const std::size_t capacity_;
  const std::size_t live_;
  Cell* const cells_;
  void* owned_ = nullptr;  // cells_ when standalone
  Padded<std::atomic<std::uint64_t>> counters_[kStripes];
  alignas(kCacheLineSize) std::atomic<std::size_t> drained_{0};
  alignas(kCacheLineSize) std::atomic<bool> empty_{false};
};

}  // namespace sbq
