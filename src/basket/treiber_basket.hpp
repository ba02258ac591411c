// A LIFO Treiber-stack basket with close-on-empty semantics.
//
// §5.2 of the paper observes that the *original* baskets queue can be viewed,
// in the modular framework, as using a Treiber-stack variant as its basket:
// once an element has been removed (or emptiness observed), further
// insertions must fail so that the queue stays linearizable. We realize that
// here explicitly: the stack's head pointer carries a CLOSED tag bit; the
// first extract that leaves the basket empty (or any emptiness indication)
// closes it, and closed baskets reject all inserts.
//
// This basket makes the modular queue behave like BQ-Original structurally:
// inserts all CAS the same head pointer, so insertion is contended (the
// non-scalable part SBQ's array basket removes).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "basket/basket.hpp"

namespace sbq {

template <typename T>
class TreiberBasket {
 public:
  struct Cell {
    T* element;
    Cell* next;
  };

  static constexpr std::size_t storage_bytes(std::size_t capacity) noexcept {
    return capacity * sizeof(Cell);
  }

  // Cells are owned by the inserting thread and recycled with the node; we
  // keep one cell per inserter slot in the basket's storage (basket.hpp,
  // "Storage") so that insert is allocation-free. `capacity` = number of
  // inserters.
  TreiberBasket(void* storage, std::size_t capacity, std::size_t /*live*/)
      : capacity_(capacity), cells_(static_cast<Cell*>(storage)) {}

  // A standalone basket that owns its cells.
  explicit TreiberBasket(std::size_t capacity, std::size_t live = 0)
      : TreiberBasket(allocate_basket_storage(storage_bytes(capacity)),
                      capacity, live) {
    owned_ = cells_;
  }

  TreiberBasket(const TreiberBasket&) = delete;
  TreiberBasket& operator=(const TreiberBasket&) = delete;
  ~TreiberBasket() { release_basket_storage(owned_); }

  bool insert(T* element, int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    Cell* cell = &cells_[static_cast<std::size_t>(id)];
    cell->element = element;
    std::uintptr_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      if (is_closed(head)) return false;
      cell->next = ptr(head);
      if (head_.compare_exchange_weak(head, pack(cell), std::memory_order_release,
                                      std::memory_order_acquire)) {
        return true;
      }
    }
  }

  T* extract(int /*id*/) {
    std::uintptr_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      Cell* top = ptr(head);
      if (top == nullptr) {
        // Empty: close the basket so later inserts fail (linearizability
        // requirement from §5.2.2 "Linearizability").
        if (is_closed(head)) return nullptr;
        if (head_.compare_exchange_weak(head, head | kClosedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          return nullptr;
        }
        continue;
      }
      // Preserve the closed bit (it can only be set when the list is empty,
      // so it is clear here, but keep the invariant explicit).
      const std::uintptr_t next = pack(top->next) | (head & kClosedBit);
      if (head_.compare_exchange_weak(head, next, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return top->element;
      }
    }
  }

  // True only once the basket is empty AND closed, i.e. no insert can
  // succeed any more. An open basket that is momentarily empty is not
  // empty: an enqueuer that lost the append race may still join it, so the
  // queue's dequeue must not skip past it (it extracts instead, which
  // closes the basket if it is still empty). The closed bit is only ever
  // set on an empty list, so closed implies empty.
  bool empty() const { return closed(); }

  void reset(int /*id*/) { head_.store(0, std::memory_order_relaxed); }

  bool closed() const {
    return is_closed(head_.load(std::memory_order_acquire));
  }

 private:
  static constexpr std::uintptr_t kClosedBit = 1;

  static Cell* ptr(std::uintptr_t v) noexcept {
    return reinterpret_cast<Cell*>(v & ~kClosedBit);
  }
  static std::uintptr_t pack(Cell* c) noexcept {
    return reinterpret_cast<std::uintptr_t>(c);
  }
  static bool is_closed(std::uintptr_t v) noexcept { return (v & kClosedBit) != 0; }

  const std::size_t capacity_;
  Cell* const cells_;
  void* owned_ = nullptr;  // cells_ when standalone
  std::atomic<std::uintptr_t> head_{0};
};

}  // namespace sbq
