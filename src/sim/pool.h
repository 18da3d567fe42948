/// \file pool.h
/// Thread-local free-list arena for the simulator's short-lived allocations:
/// coroutine frames (sim::Task promise frames route their operator new here)
/// and channel state (sim::Promise/Future). Both are allocated and freed at
/// enormous rates inside a run but have tiny live populations, which is the
/// free-list sweet spot: after warmup every allocation is a pop and every
/// free a push, with zero malloc traffic.
///
/// Layout: requests are rounded up to 64-byte size classes (up to 2 KiB;
/// larger requests pass through to ::operator new). Class misses carve from
/// 64 KiB bump chunks, so even cold allocations amortize the underlying
/// allocator to one call per thousand frames.
///
/// Threading/determinism: the pool is thread_local. A one-partition simulation
/// run is confined to a single thread (the bench harness runs each (point,
/// protocol) pair entirely on one worker), so blocks never cross threads.
/// Partitioned runs (sim/shard.h) may free a block on a different worker
/// thread than allocated it (e.g. Promise state carried across a partition
/// boundary); that is safe by construction: each Alloc/Free touches only the
/// calling thread's free lists, ownership of the block transfers through the
/// window barrier (happens-before), and backing chunks are never returned to
/// the OS, so a migrated block can never dangle — it simply joins the freeing
/// thread's list. Pointer values are never observable in results (enforced
/// by psoodb_analyze's det-hazard/unordered-iter checks), so recycling cannot
/// perturb determinism. The pool's chunks live until process exit (see the
/// destructor note below).
///
/// Sanitizers: under AddressSanitizer the pool is disabled (pass-through to
/// the global allocator) — recycled blocks would otherwise mask
/// use-after-free of coroutine frames, the exact class of bug ASan CI runs
/// exist to catch.

#ifndef PSOODB_SIM_POOL_H_
#define PSOODB_SIM_POOL_H_

#include <cstddef>
#include <new>

#include "util/annotations.h"

#if defined(__SANITIZE_ADDRESS__)
#define PSOODB_SIM_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSOODB_SIM_POOL_PASSTHROUGH 1
#endif
#endif

namespace psoodb::sim::detail {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;
  static constexpr std::size_t kMaxPooled = kGranule * kClasses;  // 2 KiB
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  constexpr FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // Trivially destructible on purpose: a destructor would force every
  // access to t_frame_pool through a TLS-init guard (__cxa_thread_atexit
  // registration), which profiles as several percent of kernel-bound runs.
  // Backing chunks are retained until process exit instead — bounded, since
  // the harness's worker threads live for the whole process and each holds
  // only its high-water mark of 64 KiB chunks.
  ~FramePool() = default;

  void* Alloc(std::size_t n) {
    if (n > kMaxPooled) return ::operator new(n);
    const std::size_t cls = (n - 1) / kGranule;
    if (FreeNode* head = free_[cls]) {
      free_[cls] = head->next;
      return head;
    }
    const std::size_t bytes = (cls + 1) * kGranule;
    if (static_cast<std::size_t>(bump_end_ - bump_) < bytes) {
      // Leftover tail (< 2 KiB per 64 KiB chunk) is abandoned, not leaked:
      // the chunk itself stays on the chunk list.
      auto* chunk = static_cast<ChunkHeader*>(::operator new(kChunkBytes));
      chunk->next = chunks_;
      chunks_ = chunk;
      bump_ = reinterpret_cast<char*>(chunk) + sizeof(ChunkHeader);
      bump_end_ = reinterpret_cast<char*>(chunk) + kChunkBytes;
    }
    void* p = bump_;
    bump_ += bytes;
    return p;
  }

  void Free(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    const std::size_t cls = (n - 1) / kGranule;
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  /// 64-byte header keeps the carve region on the allocation granule, so
  /// every block is at least max_align-aligned (coroutine frames require
  /// default-new alignment).
  struct alignas(kGranule) ChunkHeader {
    ChunkHeader* next;
  };
  static_assert(sizeof(ChunkHeader) == kGranule);
  static_assert(kGranule >= alignof(std::max_align_t));

  FreeNode* free_[kClasses] = {};
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  ChunkHeader* chunks_ = nullptr;
};

inline thread_local constinit FramePool t_frame_pool PSOODB_PARTITION_LOCAL;

inline void* PoolAlloc(std::size_t n) {
#ifdef PSOODB_SIM_POOL_PASSTHROUGH
  return ::operator new(n);
#else
  return t_frame_pool.Alloc(n);
#endif
}

inline void PoolFree(void* p, std::size_t n) noexcept {
#ifdef PSOODB_SIM_POOL_PASSTHROUGH
  (void)n;
  ::operator delete(p);
#else
  t_frame_pool.Free(p, n);
#endif
}

/// Minimal std::allocator drop-in routing through the frame pool, for
/// `std::allocate_shared` of hot small objects (e.g. callback batches):
/// the object and its shared_ptr control block become one pooled block.
/// Same single-thread confinement rules as PoolAlloc/PoolFree.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(PoolAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    PoolFree(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace psoodb::sim::detail

#endif  // PSOODB_SIM_POOL_H_
