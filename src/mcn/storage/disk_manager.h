// DiskManager: an in-memory simulated disk of paged files with I/O
// accounting. It substitutes for the physical disk of the paper's testbed;
// every page read/write is counted so that experiments can report exact I/O
// numbers and model I/O-dominated running time (see DESIGN.md §3).
//
// Concurrency contract (DESIGN.md §6): the disk is built single-threaded,
// then shared read-only by any number of concurrent readers (one BufferPool
// per executor worker). Read paths (ReadPage/ReadPageRef/PageData and the
// metadata getters) are safe to call from multiple threads once no mutator
// runs concurrently — the page bytes are immutable after build, and the
// read counters are obs::Counters: per-thread, cache-line-padded slots in
// their own allocations, so a read writes no line that another reader
// writes or that the file table shares. stats() sums the slots. Mutators
// (CreateFile/AllocatePage/WritePage) and ResetStats are single-writer
// only; the exec::QueryService brackets its lifetime with
// BeginConcurrentReads/EndConcurrentReads so that a mutation while readers
// are active trips an MCN_DCHECK instead of silently racing.
#ifndef MCN_STORAGE_DISK_MANAGER_H_
#define MCN_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/common/status.h"
#include "mcn/obs/metrics.h"
#include "mcn/storage/io_backend.h"
#include "mcn/storage/page.h"

namespace mcn::storage {

/// A set of named paged files stored in memory, with read/write counters.
/// Single-writer/multi-reader: see the concurrency contract above.
class DiskManager {
 public:
  /// A plain snapshot of the counters (coherent enough for the
  /// experiments: readers are quiesced whenever totals are compared).
  /// `per_file_reads` breaks the read total down by file, keyed by file
  /// name so that snapshots from different managers (e.g. the shards of a
  /// shard::ShardedStorage) merge into one figure-parity total: operator+=
  /// sums same-named files and appends unseen ones.
  struct Stats {
    /// One file's slice of the read counter.
    struct FileReads {
      std::string name;
      uint64_t reads = 0;
    };

    uint64_t page_reads = 0;
    uint64_t page_writes = 0;
    /// Batched-read accounting (DESIGN.md §13): ReadPagesBatch calls,
    /// pages served through them (each also counted in page_reads — the
    /// single-read/batched-read counter-equivalence contract), and the
    /// widest batch seen. operator+= sums the first two and maxes the
    /// third (a merged snapshot's widest batch is the widest anywhere).
    uint64_t batch_reads = 0;
    uint64_t batch_pages = 0;
    uint64_t batch_max_pages = 0;
    std::vector<FileReads> per_file_reads;

    Stats& operator+=(const Stats& o);
    friend Stats operator+(Stats a, const Stats& b) { return a += b; }

    /// `per_file_reads` entry for `name` (0 when the file never appeared).
    uint64_t ReadsForFile(const std::string& name) const;
  };

  /// Sums a span of snapshots (per-shard counters -> one aggregate).
  static Stats MergeStats(std::span<const Stats> parts);

  DiskManager() = default;

  // Movable but not copyable: page storage may be large. Moves are
  // build-time operations (single-threaded; counters snapshotted).
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;
  DiskManager(DiskManager&& o) noexcept;
  DiskManager& operator=(DiskManager&& o) noexcept;

  /// Creates an empty file and returns its id.
  FileId CreateFile(std::string name);

  /// Appends a zeroed page to `file` and returns its page number.
  /// Allocation itself is not counted as an I/O (builders batch their
  /// writes via WritePage).
  Result<PageNo> AllocatePage(FileId file);

  /// Copies a full page into `out` (which must hold kPageSize bytes).
  Status ReadPage(PageId id, std::byte* out);

  /// Counted zero-copy read: returns a pointer to the page's bytes, valid
  /// while the file exists. Used by the (read-only) BufferPool so a miss
  /// costs no 4KB copy — physical I/O cost is modeled from the read count,
  /// not from simulation memcpy time (DESIGN.md §3). Safe for concurrent
  /// readers: the bytes are immutable and the counter is per-thread.
  Result<const std::byte*> ReadPageRef(PageId id);

  /// Overwrites a full page from `data` (kPageSize bytes).
  Status WritePage(PageId id, const std::byte* data);

  /// Batched counted read (DESIGN.md §13): fills out[i] (kPageSize bytes
  /// each) with the page bytes of ids[i]. With a file backend attached the
  /// pages come off the on-disk image through one overlapped submission
  /// (io_uring or the preadv worker ring); otherwise they are memcpy'd
  /// from the in-memory files. Counter contract: a batch of n pages ticks
  /// page_reads and the per-file counters exactly as n ReadPage calls
  /// would, plus the batch_* stats. Safe for concurrent readers.
  Status ReadPagesBatch(std::span<const PageId> ids,
                        std::span<std::byte* const> out);

  /// Spills the (frozen) in-memory image to `path` in the MCNDISK1 format
  /// of storage/persistence.h and opens it as the physical plane behind
  /// ReadPagesBatch. `requested` must be kPreadv or kIoUring; an io_uring
  /// that the kernel refuses degrades to kPreadv (io_backend() reports
  /// what actually runs). Build-time only (CheckMutable); the in-memory
  /// pages remain authoritative for ReadPage/ReadPageRef/PageData, so
  /// pointer stability and all existing callers are untouched.
  Status AttachFileBackend(const std::string& path, IoBackendKind requested);

  /// Drops the file backend; ReadPagesBatch serves from memory again.
  void DetachFileBackend();

  /// Active physical read path (kMemory when no backend is attached).
  IoBackendKind io_backend() const {
    return backend_ == nullptr ? IoBackendKind::kMemory : backend_->kind();
  }

  /// Raw, uncounted access to a page's bytes (persistence/tooling only —
  /// query code must go through the BufferPool so I/O is accounted).
  Result<const std::byte*> PageData(PageId id) const;

  /// Number of pages currently allocated in `file`.
  Result<uint32_t> NumPages(FileId file) const;

  /// Total pages across all files (the paper sizes the LRU buffer as a
  /// percentage of this).
  size_t TotalPages() const;

  size_t num_files() const { return files_.size(); }
  Result<std::string> FileName(FileId file) const;

  Stats stats() const;
  void ResetStats();

  /// Registers/unregisters a concurrent-reader scope (e.g. one
  /// exec::QueryService). While any scope is open, mutators and ResetStats
  /// MCN_DCHECK-fail: the disk is frozen read-only.
  void BeginConcurrentReads() {
    concurrent_readers_.fetch_add(1, std::memory_order_relaxed);
  }
  void EndConcurrentReads();

  int concurrent_reader_scopes() const {
    return concurrent_readers_.load(std::memory_order_relaxed);
  }

 private:
  struct File {
    std::string name;
    std::vector<std::vector<std::byte>> pages;
    /// Pages read from this file. Stats::page_reads is the sum over files:
    /// every counted read ticks exactly one file. The slots move with the
    /// File when files_ grows (build time).
    obs::Counter reads{obs::kMaxSlots};
  };

  Status CheckPage(PageId id) const;
  void CheckMutable() const;

  std::vector<File> files_;
  std::atomic<uint64_t> page_writes_{0};
  obs::Counter batch_reads_{obs::kMaxSlots};
  obs::Counter batch_pages_{obs::kMaxSlots};
  std::atomic<uint64_t> batch_max_pages_{0};
  std::atomic<int> concurrent_readers_{0};
  /// Physical plane behind ReadPagesBatch; null = serve from memory.
  std::unique_ptr<FileIoBackend> backend_;
  /// Byte offset of each file's page 0 in the attached image (MCNDISK1
  /// layout); indexed by FileId, valid while backend_ is set.
  std::vector<uint64_t> backend_page0_offset_;
};

}  // namespace mcn::storage

#endif  // MCN_STORAGE_DISK_MANAGER_H_
