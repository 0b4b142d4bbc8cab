#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "mcn/algo/skyline_query.h"
#include "mcn/expand/engines.h"
#include "mcn/net/catalog.h"
#include "mcn/storage/persistence.h"
#include "test_util.h"

namespace mcn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PersistenceTest, DiskImageRoundTrip) {
  storage::DiskManager disk;
  storage::FileId a = disk.CreateFile("alpha");
  storage::FileId b = disk.CreateFile("beta");
  std::vector<std::byte> page(storage::kPageSize);
  for (int p = 0; p < 5; ++p) {
    storage::PageNo no = disk.AllocatePage(a).value();
    page[0] = static_cast<std::byte>(p);
    page[storage::kPageSize - 1] = static_cast<std::byte>(p * 3);
    ASSERT_TRUE(disk.WritePage({a, no}, page.data()).ok());
  }
  disk.AllocatePage(b).value();  // one zero page

  std::string path = TempPath("disk_roundtrip.img");
  ASSERT_TRUE(storage::SaveDiskImage(disk, path).ok());
  auto loaded = storage::LoadDiskImage(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_files(), 2u);
  EXPECT_EQ(loaded->FileName(a).value(), "alpha");
  EXPECT_EQ(loaded->NumPages(a).value(), 5u);
  EXPECT_EQ(loaded->NumPages(b).value(), 1u);
  for (int p = 0; p < 5; ++p) {
    const std::byte* data = loaded->PageData({a, uint32_t(p)}).value();
    EXPECT_EQ(data[0], static_cast<std::byte>(p));
    EXPECT_EQ(data[storage::kPageSize - 1], static_cast<std::byte>(p * 3));
  }
  EXPECT_EQ(loaded->stats().page_reads, 0u);  // load is not query I/O
}

TEST(PersistenceTest, RejectsCorruptImages) {
  std::string path = TempPath("bad.img");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTDISK0" << "garbage";
  }
  EXPECT_FALSE(storage::LoadDiskImage(path).ok());
  {
    std::ofstream out(path, std::ios::binary);
    out << "MCNDISK1";  // truncated after magic
  }
  EXPECT_FALSE(storage::LoadDiskImage(path).ok());
  EXPECT_FALSE(storage::LoadDiskImage(TempPath("missing.img")).ok());
}

TEST(PersistenceTest, CatalogRoundTrip) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 16);
  // The catalog persists one shard's file set; K = 1 holds everything.
  const net::NetworkFiles& files = fx.files.shards[0];
  std::string path = TempPath("catalog.cat");
  ASSERT_TRUE(net::SaveCatalog(files, path).ok());
  auto loaded = net::LoadCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes, files.num_nodes);
  EXPECT_EQ(loaded->num_edges, files.num_edges);
  EXPECT_EQ(loaded->num_facilities, files.num_facilities);
  EXPECT_EQ(loaded->num_costs, files.num_costs);
  EXPECT_EQ(loaded->total_pages, files.total_pages);
  EXPECT_EQ(loaded->adjacency_tree.root(), files.adjacency_tree.root());
  EXPECT_EQ(loaded->facility_tree.height(), files.facility_tree.height());
}

TEST(PersistenceTest, CatalogRejectsBadInput) {
  std::string path = TempPath("bad.cat");
  {
    std::ofstream out(path);
    out << "something-else\n";
  }
  EXPECT_FALSE(net::LoadCatalog(path).ok());
  {
    std::ofstream out(path);
    out << "mcn-catalog-v1\nnum_nodes=5\n";  // missing keys
  }
  EXPECT_FALSE(net::LoadCatalog(path).ok());
  {
    std::ofstream out(path);
    out << "mcn-catalog-v1\nbroken line without equals\n";
  }
  EXPECT_FALSE(net::LoadCatalog(path).ok());
}

TEST(PersistenceTest, FullDatabaseRoundTripAnswersQueries) {
  // Build, save, load in a "new process", and verify queries agree.
  test::SmallConfig config;
  config.seed = 5150;
  auto instance = test::MakeSmallInstance(config).value();
  std::string base = TempPath("netdb");
  ASSERT_TRUE(net::SaveNetworkDatabase(*instance->storage.disk(0),
                                       instance->files.shards[0], base)
                  .ok());

  auto db = net::LoadNetworkDatabase(base);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  storage::BufferPool pool(&db->disk, 64);
  net::NetworkReader reader(db->files, &pool);

  Random rng(2);
  for (int qi = 0; qi < 3; ++qi) {
    graph::Location q = instance->RandomQueryLocation(rng);
    auto oracle =
        test::OracleSkyline(instance->graph, instance->facilities, q);
    auto engine = expand::CeaEngine::Create(&reader, q).value();
    algo::SkylineQuery query(engine.get());
    std::set<graph::FacilityId> got;
    auto entries = query.ComputeAll().value();
    for (const auto& e : entries) got.insert(e.facility);
    EXPECT_EQ(got, oracle);
  }
}

}  // namespace
}  // namespace mcn
