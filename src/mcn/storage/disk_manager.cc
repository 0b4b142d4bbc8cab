#include "mcn/storage/disk_manager.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "mcn/common/fault_injector.h"
#include "mcn/common/macros.h"
#include "mcn/obs/metrics.h"
#include "mcn/storage/persistence.h"

namespace mcn::storage {

DiskManager::Stats& DiskManager::Stats::operator+=(const Stats& o) {
  page_reads += o.page_reads;
  page_writes += o.page_writes;
  batch_reads += o.batch_reads;
  batch_pages += o.batch_pages;
  batch_max_pages = std::max(batch_max_pages, o.batch_max_pages);
  // Merge the per-file breakdown by name, so same-kind files of different
  // managers (e.g. every shard's "adjacency_file") fold into one row —
  // the same name-keyed merge the metrics registry snapshots use.
  obs::MergeRowsByName(&per_file_reads, o.per_file_reads,
                       [](FileReads& into, const FileReads& from) {
                         into.reads += from.reads;
                       });
  return *this;
}

uint64_t DiskManager::Stats::ReadsForFile(const std::string& name) const {
  for (const FileReads& fr : per_file_reads) {
    if (fr.name == name) return fr.reads;
  }
  return 0;
}

DiskManager::Stats DiskManager::MergeStats(std::span<const Stats> parts) {
  Stats total;
  for (const Stats& s : parts) total += s;
  return total;
}

DiskManager::DiskManager(DiskManager&& o) noexcept
    : files_(std::move(o.files_)),
      page_writes_(o.page_writes_.load(std::memory_order_relaxed)),
      batch_reads_(std::move(o.batch_reads_)),
      batch_pages_(std::move(o.batch_pages_)),
      batch_max_pages_(o.batch_max_pages_.load(std::memory_order_relaxed)),
      backend_(std::move(o.backend_)),
      backend_page0_offset_(std::move(o.backend_page0_offset_)) {
  MCN_DCHECK(o.concurrent_reader_scopes() == 0);
}

DiskManager& DiskManager::operator=(DiskManager&& o) noexcept {
  MCN_DCHECK(concurrent_reader_scopes() == 0);
  MCN_DCHECK(o.concurrent_reader_scopes() == 0);
  files_ = std::move(o.files_);
  page_writes_.store(o.page_writes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  batch_reads_ = std::move(o.batch_reads_);
  batch_pages_ = std::move(o.batch_pages_);
  batch_max_pages_.store(o.batch_max_pages_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  backend_ = std::move(o.backend_);
  backend_page0_offset_ = std::move(o.backend_page0_offset_);
  return *this;
}

void DiskManager::CheckMutable() const {
  // Single-writer/multi-reader contract: no mutation while a concurrent
  // reader scope (an executor sharing this disk) is open.
  MCN_DCHECK(concurrent_reader_scopes() == 0);
}

void DiskManager::EndConcurrentReads() {
  int prev = concurrent_readers_.fetch_sub(1, std::memory_order_relaxed);
  MCN_DCHECK(prev > 0);
  (void)prev;
}

DiskManager::Stats DiskManager::stats() const {
  Stats s;
  s.page_writes = page_writes_.load(std::memory_order_relaxed);
  s.batch_reads = batch_reads_.Value();
  s.batch_pages = batch_pages_.Value();
  s.batch_max_pages = batch_max_pages_.load(std::memory_order_relaxed);
  s.per_file_reads.reserve(files_.size());
  for (const File& f : files_) {
    const uint64_t reads = f.reads.Value();
    s.page_reads += reads;
    s.per_file_reads.push_back(Stats::FileReads{f.name, reads});
  }
  return s;
}

void DiskManager::ResetStats() {
  CheckMutable();
  page_writes_.store(0, std::memory_order_relaxed);
  batch_reads_.Reset();
  batch_pages_.Reset();
  batch_max_pages_.store(0, std::memory_order_relaxed);
  for (File& f : files_) f.reads.Reset();
}

FileId DiskManager::CreateFile(std::string name) {
  CheckMutable();
  files_.push_back(File{std::move(name), {}});
  return static_cast<FileId>(files_.size() - 1);
}

Result<PageNo> DiskManager::AllocatePage(FileId file) {
  CheckMutable();
  if (file >= files_.size()) {
    return Status::InvalidArgument("AllocatePage: no such file");
  }
  auto& pages = files_[file].pages;
  pages.emplace_back(kPageSize, std::byte{0});
  return static_cast<PageNo>(pages.size() - 1);
}

Status DiskManager::CheckPage(PageId id) const {
  if (id.file >= files_.size()) {
    return Status::InvalidArgument("no such file: " + std::to_string(id.file));
  }
  if (id.page >= files_[id.file].pages.size()) {
    return Status::OutOfRange("page " + std::to_string(id.page) +
                              " out of range for file " +
                              files_[id.file].name);
  }
  return Status::OK();
}

Status DiskManager::ReadPage(PageId id, std::byte* out) {
  MCN_RETURN_IF_ERROR(CheckPage(id));
  if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
    MCN_RETURN_IF_ERROR(fi->OnDiskRead());
  }
  std::memcpy(out, files_[id.file].pages[id.page].data(), kPageSize);
  files_[id.file].reads.Add(1);
  return Status::OK();
}

Result<const std::byte*> DiskManager::ReadPageRef(PageId id) {
  MCN_RETURN_IF_ERROR(CheckPage(id));
  // Fault seam (DESIGN.md §10): an injected failure happens *before* the
  // counters tick, like a real EIO — the read never completed, so replay
  // parity after healing compares equal logical/physical totals.
  if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
    MCN_RETURN_IF_ERROR(fi->OnDiskRead());
  }
  File& file = files_[id.file];
  file.reads.Add(1);
  return file.pages[id.page].data();
}

Status DiskManager::ReadPagesBatch(std::span<const PageId> ids,
                                   std::span<std::byte* const> out) {
  MCN_CHECK(ids.size() == out.size());
  if (ids.empty()) return Status::OK();
  for (PageId id : ids) {
    MCN_RETURN_IF_ERROR(CheckPage(id));
  }
  // Fault seam, per page and before any read or counter tick, like
  // ReadPageRef: an injected EIO means the batch never completed.
  if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
    for (size_t i = 0; i < ids.size(); ++i) {
      MCN_RETURN_IF_ERROR(backend_ != nullptr ? fi->OnFileRead()
                                              : fi->OnDiskRead());
    }
  }
  if (backend_ != nullptr) {
    std::vector<uint64_t> offsets(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      offsets[i] = backend_page0_offset_[ids[i].file] +
                   static_cast<uint64_t>(ids[i].page) * kPageSize;
    }
    MCN_RETURN_IF_ERROR(backend_->ReadBatch(offsets, out, kPageSize));
  } else {
    for (size_t i = 0; i < ids.size(); ++i) {
      std::memcpy(out[i], files_[ids[i].file].pages[ids[i].page].data(),
                  kPageSize);
    }
  }
  // Counter equivalence: n batched pages tick exactly like n ReadPage
  // calls, plus the batch_* accounting.
  for (PageId id : ids) files_[id.file].reads.Add(1);
  batch_reads_.Add(1);
  batch_pages_.Add(ids.size());
  uint64_t seen = batch_max_pages_.load(std::memory_order_relaxed);
  while (seen < ids.size() &&
         !batch_max_pages_.compare_exchange_weak(seen, ids.size(),
                                                 std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status DiskManager::AttachFileBackend(const std::string& path,
                                      IoBackendKind requested) {
  CheckMutable();
  if (requested == IoBackendKind::kMemory) {
    return Status::InvalidArgument(
        "AttachFileBackend: kMemory means no backend — use "
        "DetachFileBackend");
  }
  MCN_RETURN_IF_ERROR(SaveDiskImage(*this, path));
  // The MCNDISK1 layout (persistence.h) is deterministic, so page offsets
  // are computable: 8-byte magic + u32 file count, then per file a
  // u32 name_len + name + u32 num_pages header followed by the raw pages.
  backend_page0_offset_.clear();
  backend_page0_offset_.reserve(files_.size());
  uint64_t offset = 8 + 4;
  for (const File& f : files_) {
    offset += 4 + f.name.size() + 4;
    backend_page0_offset_.push_back(offset);
    offset += static_cast<uint64_t>(f.pages.size()) * kPageSize;
  }
  MCN_ASSIGN_OR_RETURN(backend_, FileIoBackend::Open(path, requested));
  return Status::OK();
}

void DiskManager::DetachFileBackend() {
  CheckMutable();
  backend_.reset();
  backend_page0_offset_.clear();
}

Status DiskManager::WritePage(PageId id, const std::byte* data) {
  CheckMutable();
  MCN_RETURN_IF_ERROR(CheckPage(id));
  std::memcpy(files_[id.file].pages[id.page].data(), data, kPageSize);
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<const std::byte*> DiskManager::PageData(PageId id) const {
  MCN_RETURN_IF_ERROR(CheckPage(id));
  return files_[id.file].pages[id.page].data();
}

Result<uint32_t> DiskManager::NumPages(FileId file) const {
  if (file >= files_.size()) {
    return Status::InvalidArgument("NumPages: no such file");
  }
  return static_cast<uint32_t>(files_[file].pages.size());
}

size_t DiskManager::TotalPages() const {
  size_t total = 0;
  for (const auto& f : files_) total += f.pages.size();
  return total;
}

Result<std::string> DiskManager::FileName(FileId file) const {
  if (file >= files_.size()) {
    return Status::InvalidArgument("FileName: no such file");
  }
  return files_[file].name;
}

}  // namespace mcn::storage
