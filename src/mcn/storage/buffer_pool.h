// BufferPool: an LRU page cache with pinning, sitting between query
// operators and the DiskManager. This is the paper's "LRU buffer" whose size
// (0%..2% of the MCN pages) is an experiment parameter (Figs. 9(b)/11(b)).
//
// Frames live in a preallocated array and recycle through a free list; the
// LRU order is an intrusive doubly-linked list threaded through the frames
// and the page table is an open-addressed FlatU64Map, so fetch/unpin/evict
// are allocation-free O(1) in steady state. Since the pool is read-only,
// frames borrow the simulated disk's stable page bytes (a counted
// ReadPageRef) instead of copying 4KB per miss (DESIGN.md §4).
#ifndef MCN_STORAGE_BUFFER_POOL_H_
#define MCN_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcn/common/flat_u64_map.h"
#include "mcn/common/result.h"
#include "mcn/storage/disk_manager.h"
#include "mcn/storage/page.h"

namespace mcn::storage {

/// Read-only LRU buffer pool. Capacity counts resident frames; pinned frames
/// can never be evicted and may transiently push residency above capacity
/// (they are trimmed as soon as they are unpinned). Capacity 0 reproduces the
/// paper's "no buffer" configuration: every fetch is a disk read.
///
/// Threading: a pool is confined to one thread (one executor worker owns one
/// pool). Many pools may share one read-only DiskManager concurrently — the
/// disk's read path is thread-safe (DESIGN.md §6).
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

    uint64_t accesses() const { return hits + misses; }
  };

  /// RAII pin on a fetched page; the page data stays valid while the guard
  /// lives. Movable, not copyable.
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
    PageGuard& operator=(PageGuard&& o) noexcept;
    ~PageGuard() { Release(); }

    PageGuard(const PageGuard&) = delete;
    PageGuard& operator=(const PageGuard&) = delete;

    const std::byte* data() const;
    PageId id() const;
    bool valid() const { return pool_ != nullptr; }

    /// Drops the pin early.
    void Release();

   private:
    friend class BufferPool;
    PageGuard(BufferPool* pool, uint32_t frame)
        : pool_(pool), frame_(frame) {}

    BufferPool* pool_ = nullptr;
    uint32_t frame_ = 0;  // index into pool_->frames_ (stable under growth)
  };

  /// `disk` must outlive the pool.
  BufferPool(DiskManager* disk, size_t capacity_frames);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned guard on the page, reading it from disk on a miss.
  Result<PageGuard> Fetch(PageId id);

  /// Changes the capacity; evicts unpinned LRU frames to fit.
  void SetCapacity(size_t capacity_frames);
  size_t capacity() const { return capacity_; }

  /// Number of resident frames (pinned + cached).
  size_t resident_frames() const { return table_.size(); }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  /// Evicts every unpinned frame (e.g. between benchmark runs).
  void Clear();

  DiskManager* disk() const { return disk_; }

 private:
  friend class PageGuard;

  static constexpr uint32_t kNullFrame = 0xFFFFFFFFu;

  struct Frame {
    PageId id;
    uint32_t pins = 0;
    // Intrusive LRU links (unpinned resident frames only).
    uint32_t lru_prev = kNullFrame;
    uint32_t lru_next = kNullFrame;
    bool in_lru = false;
    const std::byte* data = nullptr;  ///< borrowed from the DiskManager
  };

  /// Recycles a free frame, or materializes a new one (only on first use
  /// beyond the preallocated set, e.g. pinned overflow).
  uint32_t AllocFrame();
  void LruPushBack(uint32_t fi);
  void LruRemove(uint32_t fi);
  void EvictLruFront();

  void Unpin(uint32_t fi);
  void TrimToCapacity();

  DiskManager* disk_;
  size_t capacity_;
  FlatU64Map table_;  ///< packed PageId -> frame index
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_;
  uint32_t lru_head_ = kNullFrame;  ///< least recently used
  uint32_t lru_tail_ = kNullFrame;
  Stats stats_;
};

}  // namespace mcn::storage

#endif  // MCN_STORAGE_BUFFER_POOL_H_
