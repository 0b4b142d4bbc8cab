#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "mcn/storage/disk_manager.h"
#include "mcn/storage/page.h"
#include "mcn/storage/slotted_page.h"

namespace mcn::storage {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(DiskManagerTest, CreateFilesAndAllocate) {
  DiskManager disk;
  FileId a = disk.CreateFile("a");
  FileId b = disk.CreateFile("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(disk.num_files(), 2u);
  EXPECT_EQ(disk.FileName(a).value(), "a");

  EXPECT_EQ(disk.AllocatePage(a).value(), 0u);
  EXPECT_EQ(disk.AllocatePage(a).value(), 1u);
  EXPECT_EQ(disk.AllocatePage(b).value(), 0u);
  EXPECT_EQ(disk.NumPages(a).value(), 2u);
  EXPECT_EQ(disk.NumPages(b).value(), 1u);
  EXPECT_EQ(disk.TotalPages(), 3u);
}

TEST(DiskManagerTest, ReadWriteRoundTrip) {
  DiskManager disk;
  FileId f = disk.CreateFile("f");
  PageNo p = disk.AllocatePage(f).value();
  std::vector<std::byte> out(kPageSize, std::byte{0xAB});
  ASSERT_TRUE(disk.WritePage({f, p}, out.data()).ok());
  std::vector<std::byte> in(kPageSize);
  ASSERT_TRUE(disk.ReadPage({f, p}, in.data()).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), kPageSize), 0);
}

TEST(DiskManagerTest, FreshPagesAreZeroed) {
  DiskManager disk;
  FileId f = disk.CreateFile("f");
  PageNo p = disk.AllocatePage(f).value();
  std::vector<std::byte> in(kPageSize, std::byte{0xFF});
  ASSERT_TRUE(disk.ReadPage({f, p}, in.data()).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(in[i], std::byte{0});
  }
}

TEST(DiskManagerTest, CountsIo) {
  DiskManager disk;
  FileId f = disk.CreateFile("f");
  PageNo p = disk.AllocatePage(f).value();
  std::vector<std::byte> buf(kPageSize);
  EXPECT_EQ(disk.stats().page_reads, 0u);
  ASSERT_TRUE(disk.WritePage({f, p}, buf.data()).ok());
  ASSERT_TRUE(disk.ReadPage({f, p}, buf.data()).ok());
  ASSERT_TRUE(disk.ReadPage({f, p}, buf.data()).ok());
  EXPECT_EQ(disk.stats().page_writes, 1u);
  EXPECT_EQ(disk.stats().page_reads, 2u);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().page_reads, 0u);
}

TEST(DiskManagerTest, ErrorsOnBadAddresses) {
  DiskManager disk;
  FileId f = disk.CreateFile("f");
  std::vector<std::byte> buf(kPageSize);
  EXPECT_EQ(disk.ReadPage({f, 0}, buf.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(disk.ReadPage({f + 1, 0}, buf.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(disk.NumPages(f + 1).ok());
  EXPECT_FALSE(disk.AllocatePage(f + 1).ok());
}

TEST(PageIdTest, HashAndEquality) {
  PageId a{1, 2}, b{1, 2}, c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  PageIdHash h;
  EXPECT_EQ(h(a), h(b));
}

TEST(SlottedPageTest, AppendAndRead) {
  std::vector<std::byte> page(kPageSize, std::byte{0});
  SlottedPageBuilder builder(page.data());
  uint16_t s0, s1, s2;
  ASSERT_TRUE(builder.TryAppend(Bytes("hello"), &s0));
  ASSERT_TRUE(builder.TryAppend(Bytes(""), &s1));
  ASSERT_TRUE(builder.TryAppend(Bytes("worlds!"), &s2));
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
  EXPECT_EQ(s2, 2);
  EXPECT_EQ(builder.count(), 3);

  SlottedPageReader reader(page.data());
  EXPECT_EQ(reader.count(), 3);
  auto rec0 = reader.Record(0);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(rec0.data()),
                        rec0.size()),
            "hello");
  EXPECT_EQ(reader.Record(1).size(), 0u);
  auto rec2 = reader.Record(2);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(rec2.data()),
                        rec2.size()),
            "worlds!");
}

TEST(SlottedPageTest, RejectsWhenFull) {
  std::vector<std::byte> page(kPageSize, std::byte{0});
  SlottedPageBuilder builder(page.data());
  std::vector<std::byte> big(1500, std::byte{7});
  EXPECT_TRUE(builder.TryAppend(big, nullptr));
  EXPECT_TRUE(builder.TryAppend(big, nullptr));
  EXPECT_FALSE(builder.TryAppend(big, nullptr));  // 3 x 1504 > 4096
  EXPECT_EQ(builder.count(), 2);
}

TEST(SlottedPageTest, MaxRecordFitsExactly) {
  std::vector<std::byte> page(kPageSize, std::byte{0});
  SlottedPageBuilder builder(page.data());
  std::vector<std::byte> max(SlottedPageBuilder::MaxRecordSize(),
                             std::byte{1});
  EXPECT_TRUE(builder.Fits(max.size()));
  ASSERT_TRUE(builder.TryAppend(max, nullptr));
  EXPECT_EQ(builder.free_bytes(), 0u);
  EXPECT_FALSE(builder.Fits(1));

  SlottedPageReader reader(page.data());
  EXPECT_EQ(reader.Record(0).size(), max.size());
}

TEST(DiskManagerTest, StatsMergeWithPerFileBreakdown) {
  // Two managers playing the roles of two shards: same file names, so the
  // per-file rows fold by name when merged.
  DiskManager a, b;
  FileId a_adj = a.CreateFile("adjacency_file");
  FileId a_fac = a.CreateFile("facility_file");
  FileId b_adj = b.CreateFile("adjacency_file");
  std::vector<std::byte> buf(kPageSize, std::byte{0});
  ASSERT_TRUE(a.AllocatePage(a_adj).ok());
  ASSERT_TRUE(a.AllocatePage(a_fac).ok());
  ASSERT_TRUE(b.AllocatePage(b_adj).ok());

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.ReadPage({a_adj, 0}, buf.data()).ok());
  ASSERT_TRUE(a.ReadPageRef({a_fac, 0}).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(b.ReadPageRef({b_adj, 0}).ok());

  const DiskManager::Stats sa = a.stats();
  EXPECT_EQ(sa.page_reads, 4u);
  EXPECT_EQ(sa.ReadsForFile("adjacency_file"), 3u);
  EXPECT_EQ(sa.ReadsForFile("facility_file"), 1u);
  EXPECT_EQ(sa.ReadsForFile("no_such_file"), 0u);

  DiskManager::Stats merged = sa;
  merged += b.stats();
  EXPECT_EQ(merged.page_reads, 6u);
  EXPECT_EQ(merged.ReadsForFile("adjacency_file"), 5u);
  EXPECT_EQ(merged.ReadsForFile("facility_file"), 1u);

  const std::vector<DiskManager::Stats> parts = {a.stats(), b.stats()};
  const DiskManager::Stats merged2 = DiskManager::MergeStats(parts);
  EXPECT_EQ(merged2.page_reads, merged.page_reads);
  EXPECT_EQ(merged2.ReadsForFile("adjacency_file"), 5u);

  a.ResetStats();
  EXPECT_EQ(a.stats().page_reads, 0u);
  EXPECT_EQ(a.stats().ReadsForFile("adjacency_file"), 0u);
}

// The read counters are per-thread slots summed by stats(); concurrent
// single-page readers and a batch reader must still add up exactly, and a
// DiskManager moved after build must carry its counts along.
TEST(StorageTest, ConcurrentReadCountersAreExact) {
  constexpr int kFiles = 3;
  constexpr PageNo kPages = 8;
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 20000;
  constexpr int kBatches = 2000;

  DiskManager built;
  FileId files[kFiles];
  const char* names[kFiles] = {"adjacency_file", "facility_file",
                               "adjacency_tree"};
  for (int f = 0; f < kFiles; ++f) {
    files[f] = built.CreateFile(names[f]);
    for (PageNo p = 0; p < kPages; ++p) {
      ASSERT_TRUE(built.AllocatePage(files[f]).ok());
    }
  }
  ASSERT_TRUE(built.ReadPageRef({files[0], 0}).ok());
  DiskManager disk(std::move(built));
  ASSERT_EQ(disk.stats().page_reads, 1u);

  // Reader t's i-th read hits file (t + i) % kFiles; each batch reads one
  // page of every file.
  uint64_t want_per_file[kFiles] = {1, 0, 0};
  for (int t = 0; t < kReaders; ++t) {
    for (int i = 0; i < kReadsPerReader; ++i) ++want_per_file[(t + i) % kFiles];
  }
  for (int f = 0; f < kFiles; ++f) want_per_file[f] += kBatches;

  disk.BeginConcurrentReads();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        const PageId id{files[(t + i) % kFiles],
                        static_cast<PageNo>(i % kPages)};
        if (!disk.ReadPageRef(id).ok()) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    std::vector<std::byte> buffers(kFiles * kPageSize);
    std::byte* out[kFiles];
    for (int f = 0; f < kFiles; ++f) out[f] = buffers.data() + f * kPageSize;
    for (int i = 0; i < kBatches; ++i) {
      PageId ids[kFiles];
      for (int f = 0; f < kFiles; ++f) {
        ids[f] = PageId{files[f], static_cast<PageNo>(i % kPages)};
      }
      if (!disk.ReadPagesBatch(ids, out).ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();
  disk.EndConcurrentReads();
  ASSERT_EQ(failures.load(), 0);

  const DiskManager::Stats stats = disk.stats();
  EXPECT_EQ(stats.page_reads, 1u + uint64_t{kReaders} * kReadsPerReader +
                                  uint64_t{kBatches} * kFiles);
  ASSERT_EQ(stats.per_file_reads.size(), static_cast<size_t>(kFiles));
  for (int f = 0; f < kFiles; ++f) {
    EXPECT_EQ(stats.ReadsForFile(names[f]), want_per_file[f]) << names[f];
  }
  EXPECT_EQ(stats.batch_reads, uint64_t{kBatches});
  EXPECT_EQ(stats.batch_pages, uint64_t{kBatches} * kFiles);
  EXPECT_EQ(stats.batch_max_pages, uint64_t{kFiles});
}

TEST(SlottedPageTest, ManySmallRecords) {
  std::vector<std::byte> page(kPageSize, std::byte{0});
  SlottedPageBuilder builder(page.data());
  int count = 0;
  for (;; ++count) {
    std::string payload = "rec" + std::to_string(count);
    if (!builder.TryAppend(Bytes(payload), nullptr)) break;
  }
  EXPECT_GT(count, 300);
  SlottedPageReader reader(page.data());
  ASSERT_EQ(reader.count(), count);
  for (int i = 0; i < count; ++i) {
    auto rec = reader.Record(static_cast<uint16_t>(i));
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(rec.data()),
                          rec.size()),
              "rec" + std::to_string(i));
  }
}

}  // namespace
}  // namespace mcn::storage
