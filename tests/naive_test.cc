#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mcn/algo/naive.h"
#include "test_util.h"

namespace mcn::algo {
namespace {

using graph::EdgeKey;
using graph::Location;

TEST(NaiveTest, AllCostsMatchOracle) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  Location q = Location::OnEdge(EdgeKey(4, 7), 0.5);
  auto oracle = test::OracleReachableCosts(fx.graph, fx.facilities, q);
  auto all = NaiveAllCosts(*fx.reader, q).value();
  ASSERT_EQ(all.size(), oracle.ids.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].facility, oracle.ids[i]);
    EXPECT_TRUE(all[i].costs.ApproxEquals(oracle.costs[i], 1e-9));
    EXPECT_EQ(all[i].known_mask, (1u << fx.graph.num_costs()) - 1);
  }
}

TEST(NaiveTest, SkylineMatchesOracle) {
  test::SmallConfig config;
  config.seed = 31;
  auto instance = test::MakeSmallInstance(config).value();
  Random rng(8);
  for (int qi = 0; qi < 3; ++qi) {
    Location q = instance->RandomQueryLocation(rng);
    auto oracle =
        test::OracleSkyline(instance->graph, instance->facilities, q);
    auto naive = NaiveSkyline(*instance->reader, q).value();
    std::set<graph::FacilityId> got;
    for (const auto& e : naive) got.insert(e.facility);
    EXPECT_EQ(got, oracle);
  }
}

TEST(NaiveTest, TopKMatchesOracle) {
  test::SmallConfig config;
  config.seed = 32;
  config.num_costs = 4;
  auto instance = test::MakeSmallInstance(config).value();
  AggregateFn f = WeightedSum(test::TestWeights(4, 55));
  Random rng(9);
  Location q = instance->RandomQueryLocation(rng);
  auto oracle =
      test::OracleTopK(instance->graph, instance->facilities, q, f, 6);
  auto naive = NaiveTopK(*instance->reader, q, f, 6).value();
  ASSERT_EQ(naive.size(), oracle.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i].score, oracle[i].score, 1e-9);
  }
}

TEST(NaiveTest, TopKRejectsBadK) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  EXPECT_FALSE(NaiveTopK(*fx.reader, Location::AtNode(0),
                         WeightedSum({1, 1}), 0)
                   .ok());
}

TEST(NaiveTest, ReadsNetworkDTimes) {
  // The strawman's defining property: it scans the whole MCN once per cost
  // type, so its adjacency requests are ~d * nodes even for easy queries.
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  fx.pool().ResetStats();
  NaiveSkyline(*fx.reader, Location::AtNode(0)).value();
  // 2 cost types * 9 nodes = 18 adjacency record reads, plus tree probes:
  // strictly more accesses than the node count.
  EXPECT_GT(fx.pool().stats().accesses(),
            2u * fx.graph.num_nodes());
}

}  // namespace
}  // namespace mcn::algo
