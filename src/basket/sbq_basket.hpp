// The SBQ scalable basket (Algorithms 8 and 9 of the paper).
//
// Design goal: contention-free insertion, single-FAA extraction.
//   * One cache-line-padded cell per inserter; insert is a CAS on the
//     inserter's *private* cell (INSERT -> element), so inserts never
//     contend with each other.
//   * Extract FAAs a shared counter to claim a cell index, then SWAPs the
//     cell with EMPTY. Getting a real element: done. Getting INSERT: the
//     inserter never showed up; the SWAP blocks it from ever inserting, and
//     the extractor retries at the next index.
//   * The extractor that claims the *last* index sets the `empty` bit, which
//     short-circuits later extractors before they FAA (reduces FAA traffic).
//
// Wait-freedom: insert is one CAS; extract performs at most N FAAs.
// Linearizability w.r.t. the §5.2.1 spec is exercised by the property tests
// in tests/basket_test.cpp (every inserted element extracted exactly once,
// emptiness indication is stable, etc.).
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

template <typename T>
class SbqBasket {
  using Cell = Padded<std::atomic<void*>>;

 public:
  static constexpr std::size_t storage_bytes(std::size_t capacity) noexcept {
    return capacity * sizeof(Cell);
  }

  // `capacity` is the number of inserters (B in the paper). `live_inserters`
  // bounds the extract scan; the paper's benchmarks fix capacity at 44 but
  // scan only the number of enqueuers in the experiment. The cells are
  // placed in `storage` (basket.hpp, "Storage").
  SbqBasket(void* storage, std::size_t capacity, std::size_t live_inserters)
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
  explicit SbqBasket(std::size_t capacity, std::size_t live_inserters = 0)
      : SbqBasket(allocate_basket_storage(storage_bytes(capacity)), capacity,
                  live_inserters) {
    owned_ = cells_;
  }

  ~SbqBasket() { release_basket_storage(owned_); }

  SbqBasket(const SbqBasket&) = delete;
  SbqBasket& operator=(const SbqBasket&) = delete;

  // Attempt to place `element` in this inserter's cell (Algorithm 9 line 2).
  bool insert(T* element, int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    assert(element != nullptr);
    void* expected = kInsert;
    return cells_[static_cast<std::size_t>(id)].value.compare_exchange_strong(
        expected, element, std::memory_order_release, std::memory_order_acquire);
  }

  // Remove and return some element, or nullptr if the basket is (indicated)
  // empty (Algorithm 9 lines 4–13).
  T* extract(int /*id*/) {
    if (empty_.load(std::memory_order_acquire)) return nullptr;
    std::uint64_t index;
    while ((index = counter_.fetch_add(1, std::memory_order_acq_rel)) < live_) {
      if (index == live_ - 1) empty_.store(true, std::memory_order_release);
      void* element =
          cells_[index].value.exchange(kEmpty, std::memory_order_acq_rel);
      if (element != kInsert) return static_cast<T*>(element);
      // Cell was never filled; it is now closed to its inserter. Retry.
    }
    return nullptr;
  }

  // False means possibly non-empty (false negatives allowed by the spec).
  bool empty() const { return empty_.load(std::memory_order_acquire); }

  // Reused-node reset (§5.2.2): called only by an enqueuer whose node never
  // got appended, so the only modification to undo is its own insertion.
  // O(1): exactly one cell can differ from INSERT.
  void reset(int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    cells_[static_cast<std::size_t>(id)].value.store(kInsert,
                                                     std::memory_order_relaxed);
    counter_.store(0, std::memory_order_relaxed);
    empty_.store(false, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t live_inserters() const noexcept { return live_; }

 private:
  // Reserved cell values. Distinct static addresses that no caller can pass
  // as an element pointer.
  static inline char insert_tag_;
  static inline char empty_tag_;
  static constexpr void* tag(char& c) noexcept { return &c; }
  static inline void* const kInsert = &insert_tag_;
  static inline void* const kEmpty = &empty_tag_;

  const std::size_t capacity_;
  const std::size_t live_;
  Cell* const cells_;
  void* owned_ = nullptr;  // cells_ when standalone
  alignas(kCacheLineSize) std::atomic<std::uint64_t> counter_{0};
  alignas(kCacheLineSize) std::atomic<bool> empty_{false};
};

}  // namespace sbq
