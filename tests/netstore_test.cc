#include <gtest/gtest.h>

#include <algorithm>

#include "mcn/net/format.h"
#include "mcn/net/network_reader.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "test_util.h"

namespace mcn::net {
namespace {

TEST(FormatTest, AdjRecordRoundTrip) {
  std::vector<AdjEntry> entries(3);
  entries[0].neighbor = 7;
  entries[0].fac = FacRef{12, 3, 2};
  entries[0].w = graph::CostVector{1.5, 2.5};
  entries[1].neighbor = 9;
  entries[1].w = graph::CostVector{0.0, 4.0};
  entries[2].neighbor = 1;
  entries[2].fac = FacRef{0, 0, 1};
  entries[2].w = graph::CostVector{3.25, 0.125};

  auto bytes = EncodeAdjRecord(42, entries, 2);
  EXPECT_EQ(bytes.size(), AdjRecordBytes(3, 2));

  std::vector<AdjEntry> decoded;
  auto node = DecodeAdjRecord(bytes, 2, &decoded);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 42u);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].neighbor, 7u);
  EXPECT_EQ(decoded[0].fac.page, 12u);
  EXPECT_EQ(decoded[0].fac.slot, 3);
  EXPECT_EQ(decoded[0].fac.count, 2);
  EXPECT_EQ(decoded[0].w, (graph::CostVector{1.5, 2.5}));
  EXPECT_TRUE(decoded[1].fac.empty());
  EXPECT_EQ(decoded[2].w[1], 0.125);
}

TEST(FormatTest, FacRecordRoundTrip) {
  std::vector<FacilityOnEdge> facs{{10, 0.25}, {11, 0.75}, {900, 1.0}};
  auto bytes = EncodeFacRecord(graph::EdgeKey(8, 3), facs);
  EXPECT_EQ(bytes.size(), FacRecordBytes(3));
  std::vector<FacilityOnEdge> decoded;
  auto key = DecodeFacRecord(bytes, &decoded);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, graph::EdgeKey(3, 8));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].facility, 10u);
  EXPECT_EQ(decoded[1].frac, 0.75);
}

TEST(FormatTest, DecodersRejectTruncatedRecords) {
  std::vector<AdjEntry> entries(2);
  entries[0].w = graph::CostVector{1.0, 2.0};
  entries[1].w = graph::CostVector{3.0, 4.0};
  const auto adj = EncodeAdjRecord(5, entries, 2);
  std::vector<AdjEntry> decoded(1);
  for (size_t len : {size_t{0}, kAdjRecordHeader - 1, adj.size() - 1}) {
    auto node =
        DecodeAdjRecord(std::span(adj).first(len), 2, &decoded);
    EXPECT_EQ(node.status().code(), StatusCode::kCorruption) << len;
    EXPECT_TRUE(decoded.empty()) << len;
    decoded.resize(1);
  }

  const auto fac =
      EncodeFacRecord(graph::EdgeKey(1, 2), {{7, 0.5}, {8, 0.25}});
  std::vector<FacilityOnEdge> facs(1);
  for (size_t len : {size_t{0}, kFacRecordHeader - 1, fac.size() - 1}) {
    auto key = DecodeFacRecord(std::span(fac).first(len), &facs);
    EXPECT_EQ(key.status().code(), StatusCode::kCorruption) << len;
    EXPECT_TRUE(facs.empty()) << len;
    facs.resize(1);
  }
}

TEST(FormatTest, RecordPosPacking) {
  RecordPos p{123456, 77};
  RecordPos q = RecordPos::Unpack(p.Pack());
  EXPECT_EQ(q.page, 123456u);
  EXPECT_EQ(q.slot, 77);
}

class NetStoreTest : public ::testing::Test {
 protected:
  NetStoreTest()
      : fixture_(test::TinyGraph(),
                 test::TinyFacilities(test::TinyGraph()), 64) {}

  test::DiskFixture fixture_;
};

TEST_F(NetStoreTest, MetadataMatches) {
  EXPECT_EQ(fixture_.files.num_nodes, fixture_.graph.num_nodes());
  EXPECT_EQ(fixture_.files.num_edges, fixture_.graph.num_edges());
  EXPECT_EQ(fixture_.files.num_facilities, fixture_.facilities.size());
  EXPECT_EQ(fixture_.files.num_costs, 2);
  EXPECT_GT(fixture_.files.total_pages, 0u);
}

TEST_F(NetStoreTest, AdjacencyMatchesGraph) {
  const auto& g = fixture_.graph;
  std::vector<AdjEntry> entries;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_TRUE(fixture_.reader->GetAdjacency(v, &entries).ok());
    auto neighbors = g.Neighbors(v);
    ASSERT_EQ(entries.size(), neighbors.size()) << "node " << v;
    for (const AdjEntry& e : entries) {
      auto it = std::find_if(neighbors.begin(), neighbors.end(),
                             [&](const graph::AdjacentEdge& adj) {
                               return adj.neighbor == e.neighbor;
                             });
      ASSERT_NE(it, neighbors.end());
      EXPECT_EQ(e.w, g.edge(it->edge).w);
      EXPECT_EQ(e.fac.count, fixture_.facilities.OnEdge(it->edge).size());
    }
  }
}

TEST_F(NetStoreTest, FacilityRecordsMatch) {
  const auto& g = fixture_.graph;
  std::vector<AdjEntry> entries;
  std::vector<FacilityOnEdge> facs;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_TRUE(fixture_.reader->GetAdjacency(v, &entries).ok());
    for (const AdjEntry& e : entries) {
      if (e.fac.empty()) continue;
      ASSERT_TRUE(fixture_.reader
                      ->GetFacilities(graph::EdgeKey(v, e.neighbor), e.fac,
                                      &facs)
                      .ok());
      graph::EdgeId edge = g.FindEdge(v, e.neighbor).value();
      auto expected = fixture_.facilities.OnEdge(edge);
      ASSERT_EQ(facs.size(), expected.size());
      for (size_t i = 0; i < facs.size(); ++i) {
        EXPECT_EQ(facs[i].facility, expected[i]);
        EXPECT_EQ(facs[i].frac, fixture_.facilities[expected[i]].frac);
      }
    }
  }
}

TEST_F(NetStoreTest, LocateFacilityEdge) {
  const auto& g = fixture_.graph;
  for (graph::FacilityId f = 0; f < fixture_.facilities.size(); ++f) {
    auto key = fixture_.reader->LocateFacilityEdge(f).value();
    const graph::EdgeRecord& er = g.edge(fixture_.facilities[f].edge);
    EXPECT_EQ(key, graph::EdgeKey(er.u, er.v));
  }
  EXPECT_FALSE(fixture_.reader->LocateFacilityEdge(9999).ok());
}

TEST_F(NetStoreTest, FindEdgeEntry) {
  auto entry = fixture_.reader->FindEdgeEntry(0, 1).value();
  EXPECT_EQ(entry.neighbor, 1u);
  EXPECT_EQ(entry.w, (graph::CostVector{4.0, 1.0}));
  EXPECT_FALSE(fixture_.reader->FindEdgeEntry(0, 8).ok());
}

TEST_F(NetStoreTest, ReadsGoThroughBufferPool) {
  fixture_.pool().ResetStats();
  std::vector<AdjEntry> entries;
  ASSERT_TRUE(fixture_.reader->GetAdjacency(4, &entries).ok());
  EXPECT_GT(fixture_.pool().stats().accesses(), 0u);
}

TEST_F(NetStoreTest, OutOfRangeNodeFails) {
  std::vector<AdjEntry> entries;
  EXPECT_FALSE(fixture_.reader->GetAdjacency(999, &entries).ok());
}

TEST(NetworkBuilderTest, RequiresFinalizedInputs) {
  graph::MultiCostGraph g(1);
  g.AddNode(0, 0);
  graph::FacilitySet f;
  f.Finalize();
  shard::ShardedStorage storage(shard::SingleShardPartition(1));
  EXPECT_EQ(shard::BuildShardedNetwork(&storage, g, f).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NetworkBuilderTest, IsolatedNodesAndEmptyFacilities) {
  graph::MultiCostGraph g(2);
  g.AddNode(0, 0);
  g.AddNode(1, 1);  // no edges at all
  g.Finalize();
  graph::FacilitySet f;
  f.Finalize();
  shard::ShardedStorage storage(shard::SingleShardPartition(2));
  auto files = shard::BuildShardedNetwork(&storage, g, f);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  shard::ShardedNetworkReader reader(&storage, files.value(), {8});
  std::vector<AdjEntry> entries;
  ASSERT_TRUE(reader.GetAdjacency(0, &entries).ok());
  EXPECT_TRUE(entries.empty());
}

}  // namespace
}  // namespace mcn::net
