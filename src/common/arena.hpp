// Per-thread freelist arena for queue nodes.
//
// The paper's evaluation uses the Memkind scalable allocator so that malloc
// is never the bottleneck. We substitute a per-thread arena: nodes are
// carved from thread-local slabs and recycled through a thread-local
// freelist, so the allocation fast path is a pointer bump with no shared
// state. Cross-thread frees (a dequeuer freeing an enqueuer's node) go to
// the *owning* thread's lock-free remote freelist, exactly like classic
// slab "remote free" designs.
//
// Under AddressSanitizer a freed block is poisoned (all but its freelist
// link word) until it is allocated again, so a use after a recycle is
// reported as one even though the memory never goes back to malloc.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/cacheline.hpp"

namespace sbq {

// Fixed-size-block arena. Not a general allocator: every allocation from a
// given arena has the same size/alignment (the node type's).
class Arena {
 public:
  // block_size must be >= sizeof(void*); alignment must divide block offsets.
  explicit Arena(std::size_t block_size,
                 std::size_t alignment = kCacheLineSize,
                 std::size_t blocks_per_slab = 1024)
      : block_size_(round_up(block_size, alignment)),
        alignment_(alignment),
        blocks_per_slab_(blocks_per_slab) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (void* slab : slabs_) ::operator delete(slab, std::align_val_t(alignment_));
  }

  void* allocate() {
    // 1. Local freelist.
    if (local_free_ != nullptr) {
      void* p = local_free_;
      local_free_ = *static_cast<void**>(p);
      return unpoison(p);
    }
    // 2. Drain remote frees (other threads returning our blocks).
    if (void* head = remote_free_.exchange(nullptr, std::memory_order_acquire)) {
      local_free_ = *static_cast<void**>(head);
      return unpoison(head);
    }
    // 3. Bump-allocate from the current slab.
    if (bump_ == slab_end_) new_slab();
    void* p = bump_;
    bump_ += block_size_;
    return p;
  }

  // Free from the owning thread.
  void deallocate_local(void* p) noexcept {
    poison(p);
    *static_cast<void**>(p) = local_free_;
    local_free_ = p;
  }

  // Free from any thread (lock-free Treiber push onto the remote list).
  void deallocate_remote(void* p) noexcept {
    poison(p);
    void* head = remote_free_.load(std::memory_order_relaxed);
    do {
      *static_cast<void**>(p) = head;
    } while (!remote_free_.compare_exchange_weak(head, p, std::memory_order_release,
                                                 std::memory_order_relaxed));
  }

  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t slab_count() const noexcept { return slabs_.size(); }

 private:
  static std::size_t round_up(std::size_t v, std::size_t a) noexcept {
    return (v + a - 1) / a * a;
  }

  // A free block keeps only its link word addressable.
  void poison(void* p) const noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(static_cast<void**>(p) + 1,
                              block_size_ - sizeof(void*));
#else
    (void)p;
#endif
  }
  void* unpoison(void* p) const noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, block_size_);
#endif
    return p;
  }

  void new_slab() {
    const std::size_t bytes = block_size_ * blocks_per_slab_;
    void* slab = ::operator new(bytes, std::align_val_t(alignment_));
    slabs_.push_back(slab);
    bump_ = static_cast<std::byte*>(slab);
    slab_end_ = bump_ + bytes;
  }

  const std::size_t block_size_;
  const std::size_t alignment_;
  const std::size_t blocks_per_slab_;
  std::byte* bump_ = nullptr;
  std::byte* slab_end_ = nullptr;
  void* local_free_ = nullptr;
  std::vector<void*> slabs_;
  alignas(kCacheLineSize) std::atomic<void*> remote_free_{nullptr};
};

// Typed convenience wrapper.
template <typename T>
class TypedArena {
 public:
  explicit TypedArena(std::size_t blocks_per_slab = 1024)
      : arena_(sizeof(T) < sizeof(void*) ? sizeof(void*) : sizeof(T),
               alignof(T) > kCacheLineSize ? alignof(T) : kCacheLineSize,
               blocks_per_slab) {}

  template <typename... Args>
  T* create(Args&&... args) {
    return new (arena_.allocate()) T(static_cast<Args&&>(args)...);
  }

  void destroy_local(T* p) noexcept {
    p->~T();
    arena_.deallocate_local(p);
  }

  void destroy_remote(T* p) noexcept {
    p->~T();
    arena_.deallocate_remote(p);
  }

  std::size_t slab_count() const noexcept { return arena_.slab_count(); }

 private:
  Arena arena_;
};

}  // namespace sbq
