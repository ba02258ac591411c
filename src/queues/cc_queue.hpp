// CC-Queue: a FIFO queue protected by the CC-Synch combining protocol of
// Fatourou & Kallimanis (PPoPP 2012).
//
// CC-Synch: threads SWAP themselves onto a combining list; the thread that
// lands at the list's head becomes the combiner and executes the pending
// requests of everyone behind it (up to a help bound), then hands the
// combiner role to the next waiting thread. Each operation costs one
// contended SWAP — the same serialized-RMW cost model as FAA queues (§7 of
// the paper: "the fastest combining-based queues … are based on contended
// FAA and SWAP").
//
// The underlying sequential queue is a plain singly linked list; it is only
// ever touched by the current combiner, so it needs no synchronization.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>

#include "common/backoff.hpp"
#include "common/cacheline.hpp"
#include "common/padded.hpp"

namespace sbq {

template <typename T>
class CcQueue {
 public:
  explicit CcQueue(std::size_t max_threads)
      : max_threads_(max_threads),
        records_(std::make_unique<Padded<ThreadRecord>[]>(max_threads)) {
    // The combining list always contains one dummy "lock holder" record.
    auto* dummy = new Record();
    dummy->locked.store(false, std::memory_order_relaxed);
    dummy->completed.store(true, std::memory_order_relaxed);
    combining_tail_.store(dummy, std::memory_order_relaxed);
    seq_head_ = seq_tail_ = new SeqNode();  // sentinel
  }

  CcQueue(const CcQueue&) = delete;
  CcQueue& operator=(const CcQueue&) = delete;

  ~CcQueue() {
    delete combining_tail_.load(std::memory_order_relaxed);
    SeqNode* n = seq_head_;
    while (n != nullptr) {
      SeqNode* next = n->next;
      delete n;
      n = next;
    }
    SeqNode* f = free_list_;
    while (f != nullptr) {
      SeqNode* next = f->next;
      delete f;
      f = next;
    }
  }

  void enqueue(T* element, int id) {
    apply(Request{Op::kEnqueue, element}, id);
  }

  T* dequeue(int id) {
    return apply(Request{Op::kDequeue, nullptr}, id);
  }

 private:
  enum class Op : unsigned char { kEnqueue, kDequeue };

  struct Request {
    Op op;
    T* argument;
  };

  struct Record {
    std::atomic<Record*> next{nullptr};
    std::atomic<bool> locked{true};
    std::atomic<bool> completed{false};
    Request request{};
    T* result = nullptr;
  };

  struct SeqNode {
    T* element = nullptr;
    SeqNode* next = nullptr;
  };

  static constexpr std::size_t kHelpBound = 64;

  // The CC-Synch protocol. Returns the operation's result.
  T* apply(Request req, int id) {
    // Each thread owns two records and alternates between them: the record
    // it hands to the list stays there as the next dummy.
    auto& mine = records_[static_cast<std::size_t>(id)].value;
    Record* next_dummy = mine.spare != nullptr ? mine.spare : new Record();
    mine.spare = nullptr;
    next_dummy->next.store(nullptr, std::memory_order_relaxed);
    next_dummy->locked.store(true, std::memory_order_relaxed);
    next_dummy->completed.store(false, std::memory_order_relaxed);

    Record* cur = combining_tail_.exchange(next_dummy, std::memory_order_acq_rel);
    cur->request = req;
    cur->result = nullptr;
    cur->completed.store(false, std::memory_order_relaxed);
    cur->next.store(next_dummy, std::memory_order_release);

    // Wait until the lock holder releases `cur`: either it combined our
    // request (completed) or it handed us the combiner role. `locked` is the
    // combiner's last write to a served record, so once it reads false the
    // record is ours again — waking on `completed` alone would let us
    // recycle `cur` while the combiner still writes to it.
    while (cur->locked.load(std::memory_order_acquire)) cpu_relax();
    if (cur->completed.load(std::memory_order_relaxed)) {
      // Someone combined us; reuse `cur` as our spare next time.
      T* result = cur->result;
      mine.spare = cur;
      return result;
    }

    // We are the combiner. Serve the list, then pass the lock on. Read
    // `next` before releasing a record: the moment `locked` drops, its owner
    // may return and reset the record as its next dummy (CC-Synch).
    Record* node = cur;
    std::size_t helped = 0;
    for (Record* next = node->next.load(std::memory_order_acquire);
         next != nullptr && helped < kHelpBound;
         next = node->next.load(std::memory_order_acquire)) {
      execute(node);
      node->completed.store(true, std::memory_order_relaxed);
      node->locked.store(false, std::memory_order_release);
      ++helped;
      node = next;
    }
    // `node` is the new dummy/lock holder.
    node->locked.store(false, std::memory_order_release);
    T* result = cur->result;
    mine.spare = cur;
    return result;
  }

  void execute(Record* r) {
    if (r->request.op == Op::kEnqueue) {
      SeqNode* n = alloc_node();
      n->element = r->request.argument;
      n->next = nullptr;
      seq_tail_->next = n;
      seq_tail_ = n;
    } else {
      SeqNode* first = seq_head_->next;
      if (first == nullptr) {
        r->result = nullptr;
      } else {
        r->result = first->element;
        free_node(seq_head_);
        seq_head_ = first;
      }
    }
  }

  SeqNode* alloc_node() {
    if (free_list_ != nullptr) {
      SeqNode* n = free_list_;
      free_list_ = n->next;
      return n;
    }
    return new SeqNode();
  }

  void free_node(SeqNode* n) {
    n->next = free_list_;
    free_list_ = n;
  }

  struct ThreadRecord {
    Record* spare = nullptr;
    ~ThreadRecord() { delete spare; }
  };
  // Alias to keep Padded<Record> naming honest: per-thread state.
  using RecordSlot = ThreadRecord;

  const std::size_t max_threads_;
  std::unique_ptr<Padded<RecordSlot>[]> records_;
  alignas(kCacheLineSize) std::atomic<Record*> combining_tail_;
  // Sequential queue: combiner-only state.
  alignas(kCacheLineSize) SeqNode* seq_head_;
  SeqNode* seq_tail_;
  SeqNode* free_list_ = nullptr;
};

}  // namespace sbq
