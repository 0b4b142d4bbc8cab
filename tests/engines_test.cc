#include <gtest/gtest.h>

#include <vector>

#include "mcn/expand/engines.h"
#include "test_util.h"

namespace mcn::expand {
namespace {

using graph::EdgeKey;
using graph::Location;

struct Pop {
  int cost_index;
  graph::FacilityId facility;
  double cost;
};

/// Round-robin drain of all NNs from an engine.
std::vector<Pop> DrainRoundRobin(NnEngine& engine) {
  std::vector<Pop> pops;
  int d = engine.num_costs();
  std::vector<bool> active(d, true);
  int remaining = d;
  int i = 0;
  while (remaining > 0) {
    if (active[i]) {
      auto nn = engine.NextNN(i).value();
      if (!nn.has_value()) {
        active[i] = false;
        --remaining;
      } else {
        pops.push_back({i, nn->facility, nn->cost});
      }
    }
    i = (i + 1) % d;
  }
  return pops;
}

class EnginesTest : public ::testing::Test {
 protected:
  EnginesTest()
      : fixture_(test::TinyGraph(),
                 test::TinyFacilities(test::TinyGraph()), 64) {}

  test::DiskFixture fixture_;
};

TEST_F(EnginesTest, LsaCeaAndMemProduceIdenticalPopSequences) {
  for (const Location& q :
       {Location::AtNode(0), Location::AtNode(8),
        Location::OnEdge(EdgeKey(4, 5), 0.3),
        Location::OnEdge(EdgeKey(1, 2), 0.5)}) {
    auto lsa = LsaEngine::Create(fixture_.reader.get(), q).value();
    auto cea = CeaEngine::Create(fixture_.reader.get(), q).value();
    auto mem = MemEngine::Create(&fixture_.graph, &fixture_.facilities, q)
                   .value();
    auto pops_lsa = DrainRoundRobin(*lsa);
    auto pops_cea = DrainRoundRobin(*cea);
    auto pops_mem = DrainRoundRobin(*mem);
    ASSERT_EQ(pops_lsa.size(), pops_cea.size());
    ASSERT_EQ(pops_lsa.size(), pops_mem.size());
    for (size_t i = 0; i < pops_lsa.size(); ++i) {
      EXPECT_EQ(pops_lsa[i].cost_index, pops_cea[i].cost_index);
      EXPECT_EQ(pops_lsa[i].facility, pops_cea[i].facility);
      EXPECT_DOUBLE_EQ(pops_lsa[i].cost, pops_cea[i].cost);
      EXPECT_EQ(pops_lsa[i].facility, pops_mem[i].facility);
      EXPECT_DOUBLE_EQ(pops_lsa[i].cost, pops_mem[i].cost);
    }
  }
}

TEST_F(EnginesTest, CeaFetchesEachRecordAtMostOnce) {
  Location q = Location::AtNode(0);
  auto cea = CeaEngine::Create(fixture_.reader.get(), q).value();
  DrainRoundRobin(*cea);
  const auto& stats = cea->fetch().stats();
  // Logical requests exceed underlying fetches (d=2 expansions), and
  // underlying fetches are bounded by the number of distinct records.
  EXPECT_GT(stats.adjacency_requests, stats.adjacency_fetches);
  EXPECT_LE(stats.adjacency_fetches, fixture_.graph.num_nodes());
  EXPECT_LE(stats.facility_fetches,
            fixture_.facilities.EdgesWithFacilities().size());
  // Full drain of d=2 expansions visits every node twice.
  EXPECT_EQ(stats.adjacency_requests, 2u * fixture_.graph.num_nodes());
  EXPECT_EQ(stats.adjacency_fetches, fixture_.graph.num_nodes());
}

TEST_F(EnginesTest, LsaFetchesEachRecordOncePerExpansion) {
  Location q = Location::AtNode(0);
  auto lsa = LsaEngine::Create(fixture_.reader.get(), q).value();
  DrainRoundRobin(*lsa);
  const auto& stats = lsa->fetch().stats();
  EXPECT_EQ(stats.adjacency_requests, stats.adjacency_fetches);
  EXPECT_EQ(stats.adjacency_fetches, 2u * fixture_.graph.num_nodes());
}

TEST_F(EnginesTest, MemEngineDoesNoIo) {
  Location q = Location::AtNode(0);
  fixture_.disk().ResetStats();
  auto mem =
      MemEngine::Create(&fixture_.graph, &fixture_.facilities, q).value();
  DrainRoundRobin(*mem);
  EXPECT_EQ(fixture_.disk().stats().page_reads, 0u);
}

TEST_F(EnginesTest, FrontierInfiniteAfterExhaustion) {
  auto mem = MemEngine::Create(&fixture_.graph, &fixture_.facilities,
                               Location::AtNode(0))
                 .value();
  DrainRoundRobin(*mem);
  for (int i = 0; i < mem->num_costs(); ++i) {
    EXPECT_TRUE(mem->Exhausted(i));
    EXPECT_EQ(mem->Frontier(i), std::numeric_limits<double>::infinity());
  }
}

TEST_F(EnginesTest, LocateFacilityEdgeAgreesAcrossEngines) {
  Location q = Location::AtNode(0);
  auto lsa = LsaEngine::Create(fixture_.reader.get(), q).value();
  auto mem =
      MemEngine::Create(&fixture_.graph, &fixture_.facilities, q).value();
  for (graph::FacilityId f = 0; f < fixture_.facilities.size(); ++f) {
    EXPECT_EQ(lsa->LocateFacilityEdge(f).value(),
              mem->LocateFacilityEdge(f).value());
  }
  EXPECT_FALSE(mem->LocateFacilityEdge(999).ok());
}

TEST_F(EnginesTest, MakeEngineFactory) {
  Location q = Location::AtNode(4);
  auto lsa = MakeEngine(EngineKind::kLsa, fixture_.reader.get(), q).value();
  auto cea = MakeEngine(EngineKind::kCea, fixture_.reader.get(), q).value();
  EXPECT_EQ(lsa->num_costs(), 2);
  EXPECT_EQ(cea->num_costs(), 2);
}

TEST_F(EnginesTest, InvalidSeedLocations) {
  EXPECT_FALSE(LsaEngine::Create(fixture_.reader.get(),
                                 Location::AtNode(12345))
                   .ok());
  EXPECT_FALSE(LsaEngine::Create(fixture_.reader.get(),
                                 Location::OnEdge(EdgeKey(0, 8), 0.5))
                   .ok());  // no such edge
}

}  // namespace
}  // namespace mcn::expand
