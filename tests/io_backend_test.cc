// Tests for the file-backed batched read path (DESIGN.md §13): the
// MCNDISK1 spill written by DiskManager::AttachFileBackend, byte parity of
// ReadPagesBatch against the in-memory pages for every Fig. 2 file
// (including the landmark index) over both physical backends, the
// single-read/batched-read counter equivalence contract, the io_uring ->
// preadv degradation switch, and the `file_eio` chaos seam.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mcn/common/fault_injector.h"
#include "mcn/common/macros.h"
#include "mcn/gen/workload.h"
#include "mcn/storage/disk_manager.h"
#include "mcn/storage/io_backend.h"
#include "mcn/storage/persistence.h"
#include "test_util.h"

namespace mcn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The physical backends the byte-parity and counter tests run over.
/// kIoUring comes up as kPreadv where the kernel refuses a ring, so each
/// leg prints the backend that actually served it.
constexpr storage::IoBackendKind kFileBackends[] = {
    storage::IoBackendKind::kPreadv, storage::IoBackendKind::kIoUring};

/// Attaches `requested` to `disk` and logs the kind that came up.
void AttachBackend(storage::DiskManager& disk, const std::string& path,
                   storage::IoBackendKind requested) {
  const Status attached = disk.AttachFileBackend(path, requested);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  std::printf("requested %s, running %s\n",
              storage::IoBackendKindName(requested),
              storage::IoBackendKindName(disk.io_backend()));
  ASSERT_NE(disk.io_backend(), storage::IoBackendKind::kMemory);
}

/// A built instance whose disk carries every Fig. 2 file plus the
/// landmark index files (DESIGN.md §12) — the widest file census an
/// attached image has to cover.
std::unique_ptr<gen::ShardedInstance> InstanceWithLandmarks() {
  gen::ExperimentConfig config = gen::ExperimentConfig().Scaled(0.005);
  config.landmarks = 4;
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
  MCN_CHECK(instance.ok());
  return std::move(instance.value());
}

/// Every allocated PageId of `disk`, file by file.
std::vector<storage::PageId> AllPages(const storage::DiskManager& disk) {
  std::vector<storage::PageId> ids;
  for (storage::FileId f = 0; f < disk.num_files(); ++f) {
    const uint32_t pages = disk.NumPages(f).value();
    for (uint32_t p = 0; p < pages; ++p) ids.push_back({f, p});
  }
  return ids;
}

/// Runs one ReadPagesBatch over `ids` and returns the fetched buffers.
std::vector<std::vector<std::byte>> FetchBatch(
    storage::DiskManager& disk, const std::vector<storage::PageId>& ids) {
  std::vector<std::vector<std::byte>> bufs(
      ids.size(), std::vector<std::byte>(storage::kPageSize));
  std::vector<std::byte*> ptrs;
  ptrs.reserve(ids.size());
  for (auto& b : bufs) ptrs.push_back(b.data());
  Status status = disk.ReadPagesBatch(ids, ptrs);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return bufs;
}

TEST(IoBackendTest, AttachedImageRoundTripsEveryFileByteIdentical) {
  auto instance = InstanceWithLandmarks();
  storage::DiskManager& disk = *instance->storage.disk(0);

  // The census must include the landmark index (the file the PR-8 prune
  // oracle reads) — otherwise this test is not covering Fig. 2 + §12.
  bool saw_landmark = false;
  for (storage::FileId f = 0; f < disk.num_files(); ++f) {
    if (disk.FileName(f).value().find("landmark") != std::string::npos) {
      saw_landmark = true;
    }
  }
  ASSERT_TRUE(saw_landmark);

  const std::string path = TempPath("io_backend_roundtrip.img");
  for (const storage::IoBackendKind requested : kFileBackends) {
    SCOPED_TRACE(storage::IoBackendKindName(requested));
    ASSERT_NO_FATAL_FAILURE(AttachBackend(disk, path, requested));

    // The spill is a regular MCNDISK1 image: LoadDiskImage must reproduce
    // every file, name and page byte-for-byte.
    auto loaded = storage::LoadDiskImage(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_files(), disk.num_files());
    for (storage::FileId f = 0; f < disk.num_files(); ++f) {
      EXPECT_EQ(loaded->FileName(f).value(), disk.FileName(f).value());
      ASSERT_EQ(loaded->NumPages(f).value(), disk.NumPages(f).value());
      for (uint32_t p = 0; p < disk.NumPages(f).value(); ++p) {
        const std::byte* want = disk.PageData({f, p}).value();
        const std::byte* got = loaded->PageData({f, p}).value();
        ASSERT_EQ(std::memcmp(got, want, storage::kPageSize), 0)
            << "file " << disk.FileName(f).value() << " page " << p;
      }
    }

    // And the physical read path must serve the same bytes: one batch
    // over every page of every file, compared against the in-memory truth.
    const std::vector<storage::PageId> ids = AllPages(disk);
    const auto bufs = FetchBatch(disk, ids);
    for (size_t i = 0; i < ids.size(); ++i) {
      const std::byte* want = disk.PageData(ids[i]).value();
      ASSERT_EQ(std::memcmp(bufs[i].data(), want, storage::kPageSize), 0)
          << "file " << disk.FileName(ids[i].file).value() << " page "
          << ids[i].page;
    }

    disk.DetachFileBackend();
    EXPECT_EQ(disk.io_backend(), storage::IoBackendKind::kMemory);
    std::remove(path.c_str());
  }
}

TEST(IoBackendTest, BatchedReadsTickCountersLikeSingleReads) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 16);
  storage::DiskManager& disk = fx.disk();
  const std::vector<storage::PageId> ids = AllPages(disk);
  ASSERT_GE(ids.size(), 2u);

  // Reference: n single reads.
  disk.ResetStats();
  std::vector<std::byte> page(storage::kPageSize);
  for (const storage::PageId& id : ids) {
    ASSERT_TRUE(disk.ReadPage(id, page.data()).ok());
  }
  const storage::DiskManager::Stats single = disk.stats();
  EXPECT_EQ(single.page_reads, ids.size());
  EXPECT_EQ(single.batch_reads, 0u);

  // One batch over the same pages: identical page_reads and per-file
  // slices, plus the batch_* accounting — in memory mode...
  disk.ResetStats();
  FetchBatch(disk, ids);
  storage::DiskManager::Stats batched = disk.stats();
  EXPECT_EQ(batched.page_reads, single.page_reads);
  ASSERT_EQ(batched.per_file_reads.size(), single.per_file_reads.size());
  for (size_t f = 0; f < single.per_file_reads.size(); ++f) {
    EXPECT_EQ(batched.per_file_reads[f].reads,
              single.per_file_reads[f].reads)
        << single.per_file_reads[f].name;
  }
  EXPECT_EQ(batched.batch_reads, 1u);
  EXPECT_EQ(batched.batch_pages, ids.size());
  EXPECT_EQ(batched.batch_max_pages, ids.size());

  // ...and identically with either file backend attached.
  const std::string path = TempPath("io_backend_counters.img");
  for (const storage::IoBackendKind requested : kFileBackends) {
    SCOPED_TRACE(storage::IoBackendKindName(requested));
    ASSERT_NO_FATAL_FAILURE(AttachBackend(disk, path, requested));
    disk.ResetStats();
    FetchBatch(disk, ids);
    batched = disk.stats();
    EXPECT_EQ(batched.page_reads, single.page_reads);
    for (size_t f = 0; f < single.per_file_reads.size(); ++f) {
      EXPECT_EQ(batched.per_file_reads[f].reads,
                single.per_file_reads[f].reads)
          << single.per_file_reads[f].name;
    }
    EXPECT_EQ(batched.batch_reads, 1u);
    EXPECT_EQ(batched.batch_pages, ids.size());
    disk.DetachFileBackend();
    std::remove(path.c_str());
  }
}

TEST(IoBackendTest, OpenDegradesIoUringGracefully) {
  // A real (tiny) image to open.
  storage::DiskManager disk;
  storage::FileId f = disk.CreateFile("solo");
  disk.AllocatePage(f).value();
  const std::string path = TempPath("io_backend_degrade.img");
  ASSERT_TRUE(storage::SaveDiskImage(disk, path).ok());

  auto backend =
      storage::FileIoBackend::Open(path, storage::IoBackendKind::kIoUring);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  if (storage::IoUringCompiledIn()) {
    // Either the ring came up or the kernel refused and we degraded; both
    // kinds are valid, crashing or erroring is not.
    EXPECT_TRUE((*backend)->kind() == storage::IoBackendKind::kIoUring ||
                (*backend)->kind() == storage::IoBackendKind::kPreadv);
  } else {
    EXPECT_EQ((*backend)->kind(), storage::IoBackendKind::kPreadv);
  }
  // kMemory is never a physical backend.
  EXPECT_FALSE(
      storage::FileIoBackend::Open(path, storage::IoBackendKind::kMemory)
          .ok());
  EXPECT_FALSE(storage::FileIoBackend::Open(TempPath("missing.img"),
                                            storage::IoBackendKind::kPreadv)
                   .ok());
  std::remove(path.c_str());
}

TEST(IoBackendTest, PreadvRingSurvivesBackToBackBatchChurn) {
  // Regression test: a late-waking preadv worker could read `current_`,
  // claim no run, and touch the batch after its owner had already
  // observed remaining_runs == 0, returned, and destroyed the
  // stack-allocated Batch. Back-to-back batches from several threads
  // maximize that window; the TSan run of this test is the real
  // assertion, the byte-parity checks are the Release-mode one.
  storage::DiskManager disk;
  const storage::FileId file = disk.CreateFile("churn");
  constexpr uint32_t kPages = 48;
  std::vector<std::byte> page(storage::kPageSize);
  for (uint32_t p = 0; p < kPages; ++p) {
    disk.AllocatePage(file).value();
    std::memset(page.data(), static_cast<int>(p + 1), storage::kPageSize);
    ASSERT_TRUE(disk.WritePage({file, p}, page.data()).ok());
  }
  const std::string path = TempPath("io_backend_churn.img");
  ASSERT_TRUE(storage::SaveDiskImage(disk, path).ok());
  auto backend =
      storage::FileIoBackend::Open(path, storage::IoBackendKind::kPreadv);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  // MCNDISK1 layout (persistence.cc): magic(8) + num_files(4) +
  // name_len(4) + name + num_pages(4), then file 0's raw pages.
  const uint64_t data_off = 8 + 4 + 4 + std::strlen("churn") + 4;

  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  constexpr int kBatch = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> bufs[kBatch];
      for (auto& b : bufs) b.resize(storage::kPageSize);
      for (int it = 0; it < kIters; ++it) {
        // Scattered (non-consecutive) pages force multiple preadv runs
        // per batch, so the worker ring engages every iteration.
        uint64_t offsets[kBatch];
        std::byte* ptrs[kBatch];
        uint32_t pages[kBatch];
        for (int j = 0; j < kBatch; ++j) {
          pages[j] =
              static_cast<uint32_t>((t * 7 + it * 11 + j * 13) % kPages);
          offsets[j] = data_off + uint64_t{pages[j]} * storage::kPageSize;
          ptrs[j] = bufs[j].data();
        }
        Status s = (*backend)->ReadBatch(offsets, ptrs, storage::kPageSize);
        if (!s.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (int j = 0; j < kBatch; ++j) {
          if (std::memcmp(bufs[j].data(),
                          disk.PageData({file, pages[j]}).value(),
                          storage::kPageSize) != 0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  std::remove(path.c_str());
}

TEST(IoBackendTest, FileEioFaultSeamFiresBeforeCounters) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 16);
  storage::DiskManager& disk = fx.disk();
  const std::vector<storage::PageId> ids = AllPages(disk);
  const std::string path = TempPath("io_backend_fault.img");
  ASSERT_TRUE(
      disk.AttachFileBackend(path, storage::IoBackendKind::kPreadv).ok());

  auto opts = FaultInjector::ParseSpec("file_eio=1.0,seed=9");
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  FaultInjector injector(opts.value());
  FaultInjector::Install(&injector);

  disk.ResetStats();
  std::vector<std::vector<std::byte>> bufs(
      ids.size(), std::vector<std::byte>(storage::kPageSize));
  std::vector<std::byte*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());
  Status status = disk.ReadPagesBatch(ids, ptrs);
  EXPECT_FALSE(status.ok());
  EXPECT_GE(injector.injected(), 1u);
  // The seam sits before any physical read or counter tick: a faulted
  // batch must leave the I/O accounting untouched.
  EXPECT_EQ(disk.stats().page_reads, 0u);
  EXPECT_EQ(disk.stats().batch_reads, 0u);

  // Healing the world (the chaos-test idiom) restores byte-exact service.
  injector.set_enabled(false);
  const auto healthy = FetchBatch(disk, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(healthy[i].data(), disk.PageData(ids[i]).value(),
                          storage::kPageSize),
              0);
  }
  FaultInjector::Install(nullptr);
  disk.DetachFileBackend();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mcn
