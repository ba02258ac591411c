// Tests for the per-thread freelist arena.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/cacheline.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace sbq {
namespace {

TEST(Arena, AllocationsAreDistinctAndAligned) {
  Arena arena(24, kCacheLineSize, 16);
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.allocate();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate allocation";
  }
}

TEST(Arena, LocalFreelistRecycles) {
  Arena arena(32, kCacheLineSize, 8);
  void* a = arena.allocate();
  arena.deallocate_local(a);
  void* b = arena.allocate();
  EXPECT_EQ(a, b);  // LIFO reuse
}

TEST(Arena, RemoteFreesAreDrained) {
  Arena arena(32, kCacheLineSize, 8);
  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(arena.allocate());
  const std::size_t slabs_before = arena.slab_count();

  // "Remote" thread returns the blocks.
  std::thread remote([&] {
    for (void* p : blocks) arena.deallocate_remote(p);
  });
  remote.join();

  // Owner should reuse them without growing a slab.
  std::set<void*> reused;
  for (int i = 0; i < 8; ++i) reused.insert(arena.allocate());
  EXPECT_EQ(arena.slab_count(), slabs_before);
  for (void* p : blocks) EXPECT_TRUE(reused.count(p) == 1);
}

TEST(Arena, GrowsSlabsOnDemand) {
  Arena arena(64, kCacheLineSize, 4);
  EXPECT_EQ(arena.slab_count(), 0u);
  for (int i = 0; i < 4; ++i) arena.allocate();
  EXPECT_EQ(arena.slab_count(), 1u);
  arena.allocate();
  EXPECT_EQ(arena.slab_count(), 2u);
}

TEST(Arena, BlockSizeRoundedToAlignment) {
  Arena arena(1, 64, 4);
  EXPECT_EQ(arena.block_size(), 64u);
}

struct Tracked {
  static inline std::atomic<int> live{0};
  int payload;
  explicit Tracked(int p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};

TEST(TypedArena, ConstructsAndDestroys) {
  Tracked::live.store(0);
  {
    TypedArena<Tracked> arena(8);
    Tracked* t = arena.create(41);
    EXPECT_EQ(t->payload, 41);
    EXPECT_EQ(Tracked::live.load(), 1);
    arena.destroy_local(t);
    EXPECT_EQ(Tracked::live.load(), 0);
    Tracked* u = arena.create(7);
    EXPECT_EQ(u, t);  // recycled storage
    arena.destroy_remote(u);
    EXPECT_EQ(Tracked::live.load(), 0);
  }
}

TEST(TypedArena, ManyObjectsStressSingleThread) {
  TypedArena<Tracked> arena(32);
  Tracked::live.store(0);
  std::vector<Tracked*> objs;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) objs.push_back(arena.create(i));
    EXPECT_EQ(Tracked::live.load(), 100);
    for (Tracked* t : objs) arena.destroy_local(t);
    objs.clear();
    EXPECT_EQ(Tracked::live.load(), 0);
  }
}

TEST(Arena, ConcurrentRemoteFreeStress) {
  // Owner allocates; two remote threads free concurrently; owner reuses.
  Arena arena(sizeof(void*), kCacheLineSize, 64);
  constexpr int kBlocks = 512;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(arena.allocate());

  std::thread r1([&] {
    for (int i = 0; i < kBlocks; i += 2) arena.deallocate_remote(blocks[i]);
  });
  std::thread r2([&] {
    for (int i = 1; i < kBlocks; i += 2) arena.deallocate_remote(blocks[i]);
  });
  r1.join();
  r2.join();

  std::set<void*> reused;
  for (int i = 0; i < kBlocks; ++i) {
    void* p = arena.allocate();
    EXPECT_TRUE(reused.insert(p).second);
    EXPECT_EQ(std::count(blocks.begin(), blocks.end(), p), 1);
  }
}

#if defined(__SANITIZE_ADDRESS__)
// A recycled block never goes back to malloc, so ASan can only see a use
// after free of one if the arena poisons it: everything but the freelist
// link word, from the free until the block is allocated again.
TEST(Arena, FreedBlockIsPoisonedUntilReallocated) {
  constexpr std::size_t kBlock = 128;
  Arena arena(kBlock, kCacheLineSize, 4);
  auto* p = static_cast<char*>(arena.allocate());
  auto poisoned = [](const char* a) {
    return __asan_address_is_poisoned(a) != 0;
  };
  EXPECT_FALSE(poisoned(p + sizeof(void*)));

  arena.deallocate_remote(p);
  EXPECT_FALSE(poisoned(p));  // the link word
  EXPECT_TRUE(poisoned(p + sizeof(void*)));
  EXPECT_TRUE(poisoned(p + kBlock - 1));
  ASSERT_EQ(arena.allocate(), p);
  EXPECT_FALSE(poisoned(p + sizeof(void*)));
  EXPECT_FALSE(poisoned(p + kBlock - 1));

  arena.deallocate_local(p);
  EXPECT_TRUE(poisoned(p + sizeof(void*)));
  ASSERT_EQ(arena.allocate(), p);
  EXPECT_FALSE(poisoned(p + kBlock - 1));
}
#endif

}  // namespace
}  // namespace sbq
