// SBQ — the scalable baskets queue (§5 of the paper), as a modular design
// templated over the basket implementation and the CAS policy used by
// try_append:
//
//   Queue<T, SbqBasket<T>, HtmCas>      = SBQ-HTM   (the paper's SBQ)
//   Queue<T, SbqBasket<T>, DelayedCas>  = SBQ-CAS   (§6.1 ablation)
//   Queue<T, TreiberBasket<T>, NativeCas> ≈ structure of BQ-Original
//
// The queue is a singly linked list of nodes, each holding a basket.
// enqueue (Algorithm 3): insert into a fresh node's basket, try_append the
// node after the tail; on FAILURE insert into the *winner's* basket instead;
// on BAD_TAIL (or failed basket insert) re-find the tail and retry.
// dequeue (Algorithm 5): walk from head to the first non-empty basket and
// extract. advance_node (Algorithm 6) monotonically advances head/tail by
// node index. Reclamation is the index-based scheme of Algorithm 7.
//
// Memory. Each enqueuer owns an Arena (common/arena.hpp, standing in for
// the paper's Memkind allocator), and each node is one block of its
// enqueuer's arena: the node header, then the basket's per-inserter cells.
// Reclamation returns a node to its owner arena from whichever thread
// frees it. Arenas grow in slabs of kSlabBytes and never shrink: their
// memory is only returned when the queue is destroyed, which releases
// every slab at once.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "basket/basket.hpp"
#include "common/arena.hpp"
#include "common/cacheline.hpp"
#include "htm/cas_policy.hpp"
#include "reclaim/retired_list.hpp"

namespace sbq {

enum class AppendResult { kSuccess, kFailure, kBadTail };

template <typename T, typename BasketT, typename CasPolicyT>
class Queue {
 public:
  // A node owns nothing outside its arena block, so it is never destroyed:
  // reclamation hands the block straight back to `owner`.
  struct Node {
    Node(Arena* owner_arena, std::size_t basket_capacity,
         std::size_t live_inserters)
        : basket(reinterpret_cast<std::byte*>(this) + cells_offset(),
                 basket_capacity, live_inserters),
          owner(owner_arena) {}

    // The basket's cells start at the first cache line after the header.
    static constexpr std::size_t cells_offset() noexcept {
      return (sizeof(Node) + kBasketStorageAlign - 1) / kBasketStorageAlign *
             kBasketStorageAlign;
    }

    BasketT basket;
    std::atomic<Node*> next{nullptr};
    std::uint64_t index = 0;
    Arena* const owner;
  };

  struct Config {
    std::size_t max_enqueuers;      // basket capacity B
    std::size_t max_dequeuers;
    // Extract scan bound: number of enqueuers actually running. The paper's
    // experiments fix B = 44 but determine emptiness from the live count.
    std::size_t live_enqueuers = 0;  // 0 => max_enqueuers
    CasPolicyT cas{};
  };

  // Bytes of each arena slab (rounded down to whole nodes, at least one).
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  explicit Queue(Config cfg)
      : cfg_(cfg),
        live_(cfg.live_enqueuers == 0 ? cfg.max_enqueuers : cfg.live_enqueuers),
        arenas_(make_arenas(cfg.max_enqueuers)),
        sentinel_(make_node(0)),
        reclaimer_(sentinel_, cfg.max_enqueuers + cfg.max_dequeuers),
        reusable_(cfg.max_enqueuers, nullptr) {
    head_.store(sentinel_, std::memory_order_relaxed);
    tail_.store(sentinel_, std::memory_order_relaxed);
  }

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  // Algorithm 3. `id` is the enqueuer id in [0, max_enqueuers).
  void enqueue(T* element, int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < cfg_.max_enqueuers);
    Node* t = reclaimer_.protect(tail_, enq_tid(id));
    Node* new_node = take_reusable_or_allocate(id);
    bool inserted = new_node->basket.insert(element, id);
    assert(inserted);
    (void)inserted;
    for (;;) {
      new_node->index = t->index + 1;
      const AppendResult status = try_append(t, new_node);
      if (status == AppendResult::kSuccess) {
        advance_node(tail_, new_node);
        new_node = nullptr;  // consumed by the queue
        break;
      }
      if (status == AppendResult::kFailure) {
        // Another node was appended concurrently; join its basket.
        t = t->next.load(std::memory_order_acquire);
        if (t->basket.insert(element, id)) {
          // Keep new_node for reuse by this thread's next enqueue; undo its
          // basket insertion (O(1), §5.2.2).
          new_node->basket.reset(id);
          reusable_[static_cast<std::size_t>(id)] = new_node;
          break;
        }
      }
      // BAD_TAIL or failed basket insert: find the real tail and retry.
      while (Node* next = t->next.load(std::memory_order_acquire)) t = next;
      advance_node(tail_, t);
    }
    reclaimer_.unprotect(enq_tid(id));
  }

  // Algorithm 5. `id` is the dequeuer id in [0, max_dequeuers).
  T* dequeue(int id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < cfg_.max_dequeuers);
    Node* h = reclaimer_.protect(head_, deq_tid(id));
    T* element = nullptr;
    for (;;) {
      while (h->basket.empty()) {
        Node* next = h->next.load(std::memory_order_acquire);
        if (next == nullptr) break;
        h = next;
      }
      element = h->basket.extract(id);
      if (element != nullptr || h->next.load(std::memory_order_acquire) == nullptr) {
        break;
      }
    }
    advance_node(head_, h);
    reclaimer_.free_nodes(head_.load(std::memory_order_acquire));
    reclaimer_.unprotect(deq_tid(id));
    return element;
  }

  // Introspection for tests/benchmarks (not linearizable; quiescent use only).
  std::size_t node_count() const {
    std::size_t n = 0;
    for (Node* p = head_.load(std::memory_order_acquire); p != nullptr;
         p = p->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }
  std::uint64_t head_index() const {
    return head_.load(std::memory_order_acquire)->index;
  }
  std::uint64_t tail_index() const {
    return tail_.load(std::memory_order_acquire)->index;
  }

 private:
  struct NodeDeleter {
    void operator()(Node* n) const noexcept { n->owner->deallocate_remote(n); }
  };
  using Reclaimer = RetiredList<Node, NodeDeleter>;

  int enq_tid(int id) const noexcept { return id; }
  int deq_tid(int id) const noexcept {
    return static_cast<int>(cfg_.max_enqueuers) + id;
  }

  static std::vector<std::unique_ptr<Arena>> make_arenas(
      std::size_t enqueuers) {
    const std::size_t block =
        Node::cells_offset() + BasketT::storage_bytes(enqueuers);
    const std::size_t per_slab = std::max<std::size_t>(1, kSlabBytes / block);
    std::vector<std::unique_ptr<Arena>> arenas;
    arenas.reserve(enqueuers);
    for (std::size_t i = 0; i < enqueuers; ++i) {
      arenas.push_back(
          std::make_unique<Arena>(block, kBasketStorageAlign, per_slab));
    }
    return arenas;
  }

  // Only enqueuer `id` allocates from its arena (and the constructor, for
  // the sentinel, before any enqueuer runs).
  Node* make_node(int id) {
    Arena* arena = arenas_[static_cast<std::size_t>(id)].get();
    return new (arena->allocate()) Node(arena, cfg_.max_enqueuers, live_);
  }

  Node* take_reusable_or_allocate(int id) {
    Node*& slot = reusable_[static_cast<std::size_t>(id)];
    if (slot != nullptr) {
      Node* n = slot;
      slot = nullptr;
      return n;
    }
    return make_node(id);
  }

  // Algorithm 4 (basic try_append) with the CAS policy plugged in. The
  // BAD_TAIL precheck also prevents an enqueuer from re-inserting into a
  // basket it already used in a previous completed operation (§5.2.2).
  AppendResult try_append(Node* tail, Node* new_node) {
    if (tail->next.load(std::memory_order_acquire) != nullptr) {
      return AppendResult::kBadTail;
    }
    return cfg_.cas(tail->next, static_cast<Node*>(nullptr), new_node)
               ? AppendResult::kSuccess
               : AppendResult::kFailure;
  }

  // Algorithm 6: advance *ptr at least to new_node (by index).
  static void advance_node(std::atomic<Node*>& ptr, Node* new_node) {
    Node* old_node = ptr.load(std::memory_order_acquire);
    for (;;) {
      if (old_node->index >= new_node->index) return;
      if (ptr.compare_exchange_weak(old_node, new_node, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
        return;
      }
    }
  }

  Config cfg_;
  std::size_t live_;
  std::vector<std::unique_ptr<Arena>> arenas_;  // one per enqueuer
  Node* sentinel_;  // initial node; ownership passes to the list/reclaimer
  Reclaimer reclaimer_;
  alignas(kCacheLineSize) std::atomic<Node*> head_{nullptr};
  alignas(kCacheLineSize) std::atomic<Node*> tail_{nullptr};
  std::vector<Node*> reusable_;  // per-enqueuer node recycled after FAILURE

  friend class QueueTestPeer;
};

}  // namespace sbq
