// Index-based epoch reclamation (Algorithm 7 of the paper, adapted from
// Yang & Mellor-Crummey's wait-free queue).
//
// The queue is a singly linked list whose nodes carry monotonically
// increasing indices. A node is *retired* once the queue head has advanced
// past it. `retired` points at the retired prefix; `protectors[i]` is where
// thread i announces the earliest node it may still touch. free_nodes()
// frees the retired prefix up to min(protected indices), in mutual
// exclusion obtained by SWAPping `retired` with null.
//
// The protected node with the smallest index is the first announced node
// in list order, so free_nodes() finds it by comparing pointers and never
// dereferences an announcement. That matters: announce-then-validate
// (protect) may publish, for a moment, a node that was freed before the
// announcement, and its memory may already hold another node. Such a stale
// announcement can only stop the walk early.
//
// Node requirements: a `std::atomic<Node*> next` member.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

#include "common/cacheline.hpp"
#include "common/padded.hpp"

namespace sbq {

template <typename Node, typename Deleter>
class RetiredList {
 public:
  // `sentinel` is the queue's initial node (retired starts there, as head
  // does). `max_threads` sizes the protectors array.
  RetiredList(Node* sentinel, std::size_t max_threads, Deleter deleter = {})
      : max_threads_(max_threads),
        protectors_(std::make_unique<Padded<std::atomic<Node*>>[]>(max_threads)),
        announced_(std::make_unique<Node*[]>(max_threads)),
        retired_(sentinel),
        deleter_(deleter) {
    for (std::size_t i = 0; i < max_threads_; ++i) {
      protectors_[i].value.store(nullptr, std::memory_order_relaxed);
    }
  }

  RetiredList(const RetiredList&) = delete;
  RetiredList& operator=(const RetiredList&) = delete;

  // Frees nothing: at destruction the owner disposes of the remaining
  // chain, with drain_all() or by releasing the memory the nodes live in
  // (sbq::Queue drops its arenas).
  ~RetiredList() = default;

  // Announce-and-validate (Algorithm 7, protect): loop until the announced
  // snapshot is still the current value of *src, so that the node cannot
  // have been retired-and-freed between read and announcement.
  Node* protect(const std::atomic<Node*>& src, int tid) {
    auto& slot = protectors_[static_cast<std::size_t>(tid)].value;
    Node* snapshot = src.load(std::memory_order_acquire);
    for (;;) {
      slot.store(snapshot, std::memory_order_seq_cst);
      // The seq_cst store/load pair is the fence Algorithm 7's comment
      // requires between the protector write and the validating re-read.
      Node* current = src.load(std::memory_order_seq_cst);
      if (current == snapshot) return snapshot;
      snapshot = current;
    }
  }

  void unprotect(int tid) {
    protectors_[static_cast<std::size_t>(tid)].value.store(
        nullptr, std::memory_order_release);
  }

  // Free retired nodes not protected by any thread (Algorithm 7,
  // free_nodes). `head` is the queue's current head (never freed here).
  void free_nodes(Node* head) {
    Node* retired = retired_.exchange(nullptr, std::memory_order_acq_rel);
    if (retired == nullptr) return;  // another thread is reclaiming
    // Snapshot the announcements; announced_ is ours while we hold the
    // retired pointer.
    Node** const first = announced_.get();
    Node** const last = first + max_threads_;
    for (std::size_t i = 0; i < max_threads_; ++i) {
      first[i] = protectors_[i].value.load(std::memory_order_acquire);
    }
    while (retired != head && std::find(first, last, retired) == last) {
      Node* next = retired->next.load(std::memory_order_relaxed);
      deleter_(retired);
      retired = next;
    }
    retired_.store(retired, std::memory_order_release);
  }

  // Frees every node from the retired pointer through the list end. Only
  // valid during single-threaded teardown.
  void drain_all() {
    Node* n = retired_.exchange(nullptr, std::memory_order_acq_rel);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      deleter_(n);
      n = next;
    }
  }

  std::size_t max_threads() const noexcept { return max_threads_; }

 private:
  const std::size_t max_threads_;
  std::unique_ptr<Padded<std::atomic<Node*>>[]> protectors_;
  std::unique_ptr<Node*[]> announced_;  // free_nodes' snapshot
  alignas(kCacheLineSize) std::atomic<Node*> retired_;
  [[no_unique_address]] Deleter deleter_;
};

}  // namespace sbq
