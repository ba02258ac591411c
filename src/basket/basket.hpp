// The basket abstract data type (§5.2.1 of the paper).
//
// A basket is a linearizable multiset with three operations:
//
//   insert(x, id)  -> bool   may fail non-deterministically; on success x
//                            becomes extractable exactly once
//   extract(id)    -> T*     removes and returns some element, or nullptr
//   empty()        -> bool   false if non-empty; false negatives allowed
//
// plus `reset()`, which the modular queue uses when an enqueuer recycles a
// node whose append lost the race (§5.2.2: node reuse undoes the single
// insertion in O(1) amortized time).
//
// The interface alone does not make the queue linearizable; an
// implementation must additionally guarantee (§5.3.2): once the basket is
// *indicated empty* (an extract returned nullptr or empty() returned true),
// any basket_extract invoked later must fail. Both implementations below
// satisfy it — the SBQ basket via its counter/empty-bit protocol, the
// Treiber basket by closing itself on first emptiness indication.
//
// Storage. A basket's per-inserter cells live outside the basket object:
// `B::storage_bytes(capacity)` bytes, aligned to kBasketStorageAlign. The
// queue places them in the node's own arena block, right after the node
// header, through the `B(storage, capacity, live)` constructor; a basket
// built standalone with `B(capacity, live)` allocates and frees a block of
// its own. Either way every operation goes through the one cells pointer.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>

#include "common/cacheline.hpp"

namespace sbq {

inline constexpr std::size_t kBasketStorageAlign = kCacheLineSize;

// The block a standalone basket owns; release_basket_storage(nullptr) is a
// no-op, so a basket whose cells live in a queue node frees nothing.
inline void* allocate_basket_storage(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t(kBasketStorageAlign));
}
inline void release_basket_storage(void* storage) noexcept {
  if (storage != nullptr) {
    ::operator delete(storage, std::align_val_t(kBasketStorageAlign));
  }
}

template <typename B, typename T>
concept Basket = std::constructible_from<B, void*, std::size_t, std::size_t> &&
                 requires(B& b, const B& cb, T* x, int id, std::size_t n) {
  { B::storage_bytes(n) } -> std::same_as<std::size_t>;
  { b.insert(x, id) } -> std::same_as<bool>;
  { b.extract(id) } -> std::same_as<T*>;
  { cb.empty() } -> std::same_as<bool>;
  { b.reset(id) };
};

}  // namespace sbq
