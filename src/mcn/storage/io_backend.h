// File-backed batched read backend for DiskManager (DESIGN.md §13).
//
// The in-memory DiskManager stays the data plane; this backend is the
// *physical* I/O plane behind `DiskManager::ReadPagesBatch`: it serves
// kPageSize reads at arbitrary byte offsets of one on-disk image file
// (the MCNDISK1 spill written at attach time), completing a whole batch
// before returning.
//
// Two real implementations behind one kind switch:
//
//   kIoUring — one io_uring (raw syscalls; no liburing dependency) with
//              IORING_OP_READ SQEs, submitted batch-at-a-time with
//              IORING_ENTER_GETEVENTS so a batch costs one syscall per
//              sq-ring-full chunk. Compile-gated on <linux/io_uring.h>;
//              if ring setup fails at runtime (seccomp, old kernel) Open
//              silently degrades to kPreadv and reports the degraded kind.
//   kPreadv  — a small persistent worker ring (caller participates) that
//              splits the batch into runs of file-consecutive pages, one
//              preadv per run; the portable fallback.
//
// kMemory is DiskManager's native mode (no backend attached) and is never
// a valid argument to Open; it exists so call sites can name all three
// states of DiskManager::io_backend().
#ifndef MCN_STORAGE_IO_BACKEND_H_
#define MCN_STORAGE_IO_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mcn/common/mutex.h"
#include "mcn/common/result.h"
#include "mcn/common/status.h"
#include "mcn/common/thread_annotations.h"

namespace mcn::storage {

/// Physical read path of a DiskManager. kMemory = no backend attached
/// (reads served from the in-memory page vectors, the historical mode).
enum class IoBackendKind {
  kMemory = 0,
  kPreadv,
  kIoUring,
};

const char* IoBackendKindName(IoBackendKind kind);

/// True when this build carries the io_uring implementation (the kernel
/// may still refuse at runtime; Open degrades to kPreadv then).
bool IoUringCompiledIn();

/// Batched positional reader over one immutable image file. Thread-safe:
/// concurrent ReadBatch calls are serialized internally (one in-flight
/// batch owns the ring / worker set at a time).
class FileIoBackend {
 public:
  /// Opens `path` read-only. `requested` must be kPreadv or kIoUring;
  /// kIoUring falls back to kPreadv when the ring cannot be set up (the
  /// actual mode is what kind() reports — callers surface it in bench
  /// rows and metrics rather than failing).
  static Result<std::unique_ptr<FileIoBackend>> Open(const std::string& path,
                                                     IoBackendKind requested);

  ~FileIoBackend();
  FileIoBackend(const FileIoBackend&) = delete;
  FileIoBackend& operator=(const FileIoBackend&) = delete;

  IoBackendKind kind() const { return kind_; }
  const std::string& path() const { return path_; }

  /// Reads `page_size` bytes at offsets[i] into out[i] for every i; the
  /// whole batch completes (or the first failure aborts it) before
  /// returning. Spans must be the same length.
  Status ReadBatch(std::span<const uint64_t> offsets,
                   std::span<std::byte* const> out, size_t page_size);

 private:
  FileIoBackend(std::string path, int fd, size_t page_size_hint);

  Status SetupUring();
  void TeardownUring();
  Status ReadBatchUring(std::span<const uint64_t> offsets,
                        std::span<std::byte* const> out, size_t page_size);
  Status ReadBatchPreadv(std::span<const uint64_t> offsets,
                         std::span<std::byte* const> out, size_t page_size);
  /// One fully-read pread loop (handles short reads).
  Status ReadAt(std::byte* buf, size_t len, uint64_t offset) const;

  void StartWorkers();
  void WorkerLoop();
  /// Pulls run indices from the shared batch until exhausted.
  void DrainRuns();

  std::string path_;
  int fd_ = -1;
  IoBackendKind kind_ = IoBackendKind::kPreadv;

  /// One batch in flight at a time, either path. A pure serialization
  /// capability: the ring/worker state it protects is the whole io_uring
  /// block below plus the Batch hand-off machinery, touched only by the
  /// thread holding it (workers reach the Batch through `current_`,
  /// which has its own guard).
  Mutex batch_mu_;

  // --- io_uring state (raw syscalls; valid when kind_ == kIoUring) ---
  int ring_fd_ = -1;
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  // Cached ring pointers (into the mmaps).
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  void* cqes_ = nullptr;

  // --- preadv worker-ring state ---
  struct Run {
    size_t first = 0;  ///< index into the batch
    size_t count = 0;  ///< file-consecutive pages starting at `first`
  };
  struct Batch {
    const uint64_t* offsets = nullptr;
    std::byte* const* bufs = nullptr;
    size_t page_size = 0;
    std::vector<Run> runs;
    std::atomic<size_t> next_run{0};
    std::atomic<size_t> remaining_runs{0};
    std::atomic<int> first_errno{0};
  };
  Mutex work_mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  /// Bumped per batch.
  uint64_t generation_ MCN_GUARDED_BY(work_mu_) = 0;
  bool stopping_ MCN_GUARDED_BY(work_mu_) = false;
  Batch* current_ MCN_GUARDED_BY(work_mu_) = nullptr;
  /// Workers currently inside DrainRuns holding a `current_` pointer.
  /// The batch owner must wait for this to reach zero before letting its
  /// stack-allocated Batch die: a worker that grabbed the pointer but
  /// claimed no run touches the Batch after remaining_runs hits zero.
  size_t drainers_ MCN_GUARDED_BY(work_mu_) = 0;
  std::vector<std::thread> workers_;
};

}  // namespace mcn::storage

#endif  // MCN_STORAGE_IO_BACKEND_H_
