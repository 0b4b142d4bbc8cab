// Property tests for the sharded-partition layer (DESIGN.md §8):
//
//  * GridTilePartitioner produces valid, reasonably balanced partitions
//    and every edge's endpoints resolve to the recorded shards (the
//    canonical-u ownership rule);
//  * boundary records and the routing table round-trip through
//    storage/persistence.cc (SaveDiskImage + LoadDiskImage), so a sharded
//    database image is self-describing across processes;
//  * a K = 4 routing ShardedNetworkReader returns byte-identical records
//    to the single-shard (K = 1) reader for every node/edge/facility, with
//    the local/remote accounting consistent with the routing table.
//
// All randomness derives from MCN_TEST_SEED (logged on entry).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "mcn/gen/workload.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/net/network_reader.h"
#include "mcn/shard/partition.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/persistence.h"
#include "test_util.h"

namespace mcn::shard {
namespace {

std::unique_ptr<gen::ShardedInstance> SmallInstance(uint64_t seed,
                                                    int d = 3) {
  test::SmallConfig config;
  config.num_costs = d;
  config.seed = seed;
  return test::MakeSmallInstance(config).value();
}

TEST(GridTilePartitionerTest, ValidAndBalanced) {
  const uint64_t base = test::AnnounceSeed("shard_partition_test");
  for (int k : {1, 2, 4, 7}) {
    auto instance = SmallInstance(test::DeriveSeed(base, k));
    GridTilePartitioner partitioner;
    auto part = partitioner.Build(instance->graph, k).value();
    ASSERT_EQ(part.num_shards, k);
    ASSERT_EQ(part.num_nodes(), instance->graph.num_nodes());
    ASSERT_TRUE(part.Validate().ok());
    // Balance: every shard within a generous factor of the even split.
    const uint32_t even = instance->graph.num_nodes() / k;
    for (uint32_t size : part.ShardSizes()) {
      EXPECT_GE(size, 1u);
      if (k > 1) EXPECT_LE(size, 3 * even + 1) << "k=" << k;
    }
  }
}

TEST(GridTilePartitionerTest, Deterministic) {
  const uint64_t base = test::AnnounceSeed("shard_partition_test");
  auto instance = SmallInstance(test::DeriveSeed(base, 42));
  GridTilePartitioner partitioner;
  auto a = partitioner.Build(instance->graph, 4).value();
  auto b = partitioner.Build(instance->graph, 4).value();
  EXPECT_EQ(a.node_shard, b.node_shard);
}

TEST(GridTilePartitionerTest, RejectsDegenerateInputs) {
  graph::MultiCostGraph g(2);
  g.AddNode(0, 0);
  g.AddNode(1, 1);
  g.Finalize();
  GridTilePartitioner partitioner;
  EXPECT_FALSE(partitioner.Build(g, 0).ok());
  EXPECT_FALSE(partitioner.Build(g, 3).ok());  // more shards than nodes
  EXPECT_TRUE(partitioner.Build(g, 2).ok());
}

// Every edge's endpoints resolve to the shards the partition records, and
// edge/facility ownership follows the canonical-u rule the builder wrote
// into the routing table.
TEST(ShardedBuildTest, EdgeEndpointsResolveToRecordedShards) {
  const uint64_t base = test::AnnounceSeed("shard_partition_test");
  auto instance = SmallInstance(test::DeriveSeed(base, 7));
  const auto& g = instance->graph;
  GridTilePartitioner partitioner;
  auto part = partitioner.Build(g, 4).value();

  ShardedStorage sstore(part);
  auto files =
      BuildShardedNetwork(&sstore, g, instance->facilities).value();

  uint32_t boundary = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::EdgeRecord& er = g.edge(e);
    const graph::EdgeKey key(er.u, er.v);
    ASSERT_LT(part.of_node(er.u), static_cast<ShardId>(part.num_shards));
    ASSERT_LT(part.of_node(er.v), static_cast<ShardId>(part.num_shards));
    EXPECT_EQ(part.of_edge(key), part.of_node(er.u));
    if (part.is_boundary(key)) ++boundary;
  }
  EXPECT_EQ(files.num_boundary_edges, boundary);
  EXPECT_GT(boundary, 0u) << "4-way split of a connected graph must cut";

  // Facility ownership: the shard of the facility's edge.
  for (graph::FacilityId f = 0; f < instance->facilities.size(); ++f) {
    const graph::EdgeRecord& er =
        g.edge(instance->facilities[f].edge);
    EXPECT_EQ(files.facility_shard[f],
              part.of_edge(graph::EdgeKey(er.u, er.v)));
  }

  // Per-shard owned counts sum to the global totals.
  uint32_t edges = 0, facilities = 0;
  for (const auto& nf : files.shards) {
    edges += nf.num_edges;
    facilities += nf.num_facilities;
  }
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_EQ(facilities, instance->facilities.size());
}

// Boundary records round-trip: builder -> decode, and builder -> disk
// image (persistence.cc) -> reload -> decode.
TEST(ShardedBuildTest, BoundaryRecordsRoundTripThroughPersistence) {
  const uint64_t base = test::AnnounceSeed("shard_partition_test");
  auto instance = SmallInstance(test::DeriveSeed(base, 21));
  const auto& g = instance->graph;
  GridTilePartitioner partitioner;
  auto part = partitioner.Build(g, 4).value();
  ShardedStorage sstore(part);
  auto files =
      BuildShardedNetwork(&sstore, g, instance->facilities).value();

  // Expected boundary set per owner shard, straight from the graph.
  std::vector<std::vector<BoundaryEdge>> expected(part.num_shards);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::EdgeRecord& er = g.edge(e);
    const graph::EdgeKey key(er.u, er.v);
    if (!part.is_boundary(key)) continue;
    BoundaryEdge be;
    be.edge = key;
    be.owner_shard = part.of_edge(key);
    be.peer_shard = part.of_node(key.v);
    be.w = er.w;
    expected[be.owner_shard].push_back(be);
  }

  uint32_t total = 0;
  for (ShardId s = 0; s < static_cast<ShardId>(part.num_shards); ++s) {
    auto decoded =
        ReadBoundaryRecords(*sstore.disk(s), files.boundary_files[s])
            .value();
    ASSERT_EQ(decoded.size(), expected[s].size()) << "shard " << s;
    for (size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i], expected[s][i]) << "shard " << s << " rec " << i;
    }
    total += static_cast<uint32_t>(decoded.size());

    // Through persistence: the shard's disk image reloads to the same
    // boundary records.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mcn_shard_img_" + std::to_string(s) + ".img"))
            .string();
    ASSERT_TRUE(storage::SaveDiskImage(*sstore.disk(s), path).ok());
    auto loaded = storage::LoadDiskImage(path).value();
    std::filesystem::remove(path);
    auto reloaded =
        ReadBoundaryRecords(loaded, files.boundary_files[s]).value();
    ASSERT_EQ(reloaded.size(), decoded.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(reloaded[i], decoded[i]);
    }
  }
  EXPECT_EQ(total, files.num_boundary_edges);
}

TEST(ShardedBuildTest, RoutingTableRoundTripsThroughPersistence) {
  const uint64_t base = test::AnnounceSeed("shard_partition_test");
  auto instance = SmallInstance(test::DeriveSeed(base, 33));
  GridTilePartitioner partitioner;
  auto part = partitioner.Build(instance->graph, 4).value();
  ShardedStorage sstore(part);
  auto files =
      BuildShardedNetwork(&sstore, instance->graph, instance->facilities)
          .value();

  const std::string path =
      (std::filesystem::temp_directory_path() / "mcn_shard0_routing.img")
          .string();
  ASSERT_TRUE(storage::SaveDiskImage(*sstore.disk(0), path).ok());
  auto loaded = storage::LoadDiskImage(path).value();
  std::filesystem::remove(path);

  auto table = ReadRoutingTable(loaded, files.routing_file).value();
  EXPECT_EQ(table.partition.num_shards, part.num_shards);
  EXPECT_EQ(table.partition.node_shard, part.node_shard);
  EXPECT_EQ(table.facility_shard, files.facility_shard);
}

// The K = 4 routing reader serves byte-identical records to the K = 1
// reader and accounts local/remote against the routing table.
TEST(ShardedReaderTest, MatchesFlatReaderAndCountsRemote) {
  const uint64_t base = test::AnnounceSeed("shard_partition_test");
  auto instance = SmallInstance(test::DeriveSeed(base, 55));
  const auto& g = instance->graph;
  GridTilePartitioner partitioner;
  auto part = partitioner.Build(g, 4).value();
  ShardedStorage sstore(part);
  auto files =
      BuildShardedNetwork(&sstore, g, instance->facilities).value();
  ShardedNetworkReader reader(
      &sstore, files,
      std::vector<size_t>(static_cast<size_t>(part.num_shards), 8));

  EXPECT_EQ(reader.num_nodes(), g.num_nodes());
  EXPECT_EQ(reader.num_costs(), g.num_costs());
  EXPECT_EQ(reader.num_facilities(), instance->facilities.size());

  reader.set_home_shard(0);
  uint64_t expect_local = 0, expect_remote = 0;
  std::vector<net::AdjEntry> single_adj, sharded_adj;
  std::vector<net::FacilityOnEdge> single_fac, sharded_fac;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_TRUE(reader.GetAdjacency(v, &sharded_adj).ok());
    ASSERT_TRUE(instance->reader->GetAdjacency(v, &single_adj).ok());
    part.of_node(v) == 0 ? ++expect_local : ++expect_remote;
    ASSERT_EQ(sharded_adj.size(), single_adj.size()) << "node " << v;
    for (size_t i = 0; i < single_adj.size(); ++i) {
      EXPECT_EQ(sharded_adj[i].neighbor, single_adj[i].neighbor);
      EXPECT_EQ(sharded_adj[i].fac.count, single_adj[i].fac.count);
      for (int c = 0; c < g.num_costs(); ++c) {
        EXPECT_EQ(sharded_adj[i].w[c], single_adj[i].w[c]);
      }
      // Facility record contents are identical even though the sharded
      // FacRef points into a different (shard-local) file position.
      if (single_adj[i].fac.empty()) continue;
      graph::EdgeKey key(v, single_adj[i].neighbor);
      ASSERT_TRUE(
          reader.GetFacilities(key, sharded_adj[i].fac, &sharded_fac).ok());
      ASSERT_TRUE(instance->reader
                      ->GetFacilities(key, single_adj[i].fac, &single_fac)
                      .ok());
      part.of_edge(key) == 0 ? ++expect_local : ++expect_remote;
      ASSERT_EQ(sharded_fac.size(), single_fac.size());
      for (size_t j = 0; j < single_fac.size(); ++j) {
        EXPECT_EQ(sharded_fac[j].facility, single_fac[j].facility);
        EXPECT_EQ(sharded_fac[j].frac, single_fac[j].frac);
      }
    }
  }
  for (graph::FacilityId f = 0; f < instance->facilities.size(); ++f) {
    auto sharded_edge = reader.LocateFacilityEdge(f).value();
    auto single_edge = instance->reader->LocateFacilityEdge(f).value();
    EXPECT_EQ(sharded_edge, single_edge);
    files.facility_shard[f] == 0 ? ++expect_local : ++expect_remote;
  }

  const auto io = reader.shard_io_stats();
  EXPECT_EQ(io.local_fetches, expect_local);
  EXPECT_EQ(io.remote_fetches, expect_remote);
  EXPECT_GT(io.remote_fetches, 0u);

  // Per-shard page reads merge into one figure-parity total with a
  // by-name file breakdown.
  const auto merged = sstore.MergedStats();
  EXPECT_GT(merged.page_reads, 0u);
  uint64_t by_file = 0;
  for (const auto& fr : merged.per_file_reads) by_file += fr.reads;
  EXPECT_EQ(by_file, merged.page_reads);
  EXPECT_GT(merged.ReadsForFile("adjacency_file"), 0u);
}

}  // namespace
}  // namespace mcn::shard
