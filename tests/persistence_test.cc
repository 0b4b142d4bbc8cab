#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "mcn/algo/skyline_query.h"
#include "mcn/expand/engines.h"
#include "mcn/net/catalog.h"
#include "mcn/storage/persistence.h"
#include "mcn/storage/slotted_page.h"
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

// Every CostVector of a query is sized by the catalog's num_costs, so a
// value outside [1, kMaxCostTypes] must be rejected at load, before it is
// narrowed to int (4294967300 would otherwise pass as 4).
TEST(PersistenceTest, CatalogRejectsOutOfRangeCostTypes) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 16);
  const net::NetworkFiles& files = fx.files.shards[0];
  const std::string path = TempPath("cost_types.cat");
  ASSERT_TRUE(net::SaveCatalog(files, path).ok());
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string line = "num_costs=" + std::to_string(files.num_costs);
  const size_t at = text.find(line + "\n");
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"0", "9", "4294967300"}) {
    std::string rewritten = text;
    rewritten.replace(at, line.size(), std::string("num_costs=") + bad);
    {
      std::ofstream out(path, std::ios::trunc);
      out << rewritten;
    }
    const Status status = net::LoadCatalog(path).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "num_costs=" << bad << ": " << status.ToString();
  }
  std::remove(path.c_str());
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

/// Overwrites the u16 at `at` within record `slot` of page `id`.
void PatchRecordU16(storage::DiskManager* disk, storage::PageId id,
                    uint16_t slot, size_t at, uint16_t value) {
  std::vector<std::byte> page(storage::kPageSize);
  ASSERT_TRUE(disk->ReadPage(id, page.data()).ok());
  auto record = storage::SlottedPageReader(page.data()).TryRecord(slot);
  ASSERT_TRUE(record.ok());
  ASSERT_GE(record->size(), at + sizeof(value));
  const size_t offset = static_cast<size_t>(record->data() - page.data());
  std::memcpy(page.data() + offset + at, &value, sizeof(value));
  ASSERT_TRUE(disk->WritePage(id, page.data()).ok());
}

/// Runs a CEA skyline query at `q`; returns the first failure (engine
/// set-up or expansion) or OK.
Status RunSkyline(net::NetworkReader* reader, const graph::Location& q) {
  MCN_ASSIGN_OR_RETURN(auto engine, expand::CeaEngine::Create(reader, q));
  algo::SkylineQuery query(engine.get());
  return query.ComputeAll().status();
}

// A loaded image is untrusted input: a record whose header declares more
// entries than it holds must fail the query with Corruption, not abort.
TEST(PersistenceTest, OversizedRecordCountsInImageAreCorruption) {
  test::SmallConfig config;
  config.seed = 5150;
  auto instance = test::MakeSmallInstance(config).value();
  std::string base = TempPath("netdb_corrupt");
  ASSERT_TRUE(net::SaveNetworkDatabase(*instance->storage.disk(0),
                                       instance->files.shards[0], base)
                  .ok());

  // Pick an edge that carries facilities, and a node elsewhere.
  auto db = net::LoadNetworkDatabase(base);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const net::NetworkFiles& files = db->files;
  graph::EdgeKey fac_edge;
  net::FacRef fac_ref;
  {
    storage::BufferPool pool(&db->disk, 64);
    net::NetworkReader reader(files, &pool);
    std::vector<net::AdjEntry> entries;
    for (graph::NodeId v = 0; v < files.num_nodes && fac_ref.empty(); ++v) {
      ASSERT_TRUE(reader.GetAdjacency(v, &entries).ok());
      for (const net::AdjEntry& e : entries) {
        if (e.fac.empty() || e.neighbor < v) continue;
        fac_edge = graph::EdgeKey(v, e.neighbor);
        fac_ref = e.fac;
        break;
      }
    }
  }
  ASSERT_FALSE(fac_ref.empty());
  graph::NodeId bad_node = 0;
  while (bad_node == fac_edge.u || bad_node == fac_edge.v) ++bad_node;
  std::optional<uint64_t> pos_value;
  {
    storage::BufferPool pool(&db->disk, 64);
    auto lookup = files.adjacency_tree.Lookup(pool, bad_node);
    ASSERT_TRUE(lookup.ok() && lookup->has_value());
    pos_value = **lookup;
  }
  const net::RecordPos pos = net::RecordPos::Unpack(*pos_value);

  // Degree (u16 at byte 4 of an adjacency record) and count (u16 at byte 8
  // of a facility record) set to 0xFFFF, written back into the image.
  PatchRecordU16(&db->disk, {files.adjacency_file, pos.page}, pos.slot, 4,
                 0xFFFF);
  PatchRecordU16(&db->disk, {files.facility_file, fac_ref.page},
                 fac_ref.slot, 8, 0xFFFF);
  ASSERT_TRUE(storage::SaveDiskImage(db->disk, base + ".img").ok());

  auto corrupt = net::LoadNetworkDatabase(base);
  ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();
  storage::BufferPool pool(&corrupt->disk, 64);
  net::NetworkReader reader(corrupt->files, &pool);
  const Status at_node =
      RunSkyline(&reader, graph::Location::AtNode(bad_node));
  EXPECT_EQ(at_node.code(), StatusCode::kCorruption) << at_node.ToString();
  const Status on_edge =
      RunSkyline(&reader, graph::Location::OnEdge(fac_edge, 0.5));
  EXPECT_EQ(on_edge.code(), StatusCode::kCorruption) << on_edge.ToString();
}

}  // namespace
}  // namespace mcn
