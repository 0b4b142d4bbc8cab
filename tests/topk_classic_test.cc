#include <gtest/gtest.h>

#include <cmath>

#include "mcn/common/random.h"
#include "mcn/gen/cost_generator.h"
#include "mcn/topk/topk.h"

namespace mcn::topk {
namespace {

std::vector<skyline::Tuple> RandomTuples(Random& rng, int n, int d,
                                         gen::CostDistribution dist) {
  std::vector<skyline::Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(skyline::Tuple{
        static_cast<uint32_t>(i), gen::GenerateEdgeCosts(rng, dist, d, 1.0)});
  }
  return tuples;
}

void ExpectSameScores(const std::vector<RankedItem>& got,
                      const std::vector<RankedItem>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, expected[i].score, 1e-12) << "rank " << i;
  }
}

TEST(ThresholdAlgorithmTest, EmptyInput) {
  algo::AggregateFn f = algo::WeightedSum({1.0, 1.0});
  EXPECT_TRUE(ThresholdAlgorithm({}, f, 3).empty());
}

TEST(ThresholdAlgorithmTest, HandExample) {
  std::vector<skyline::Tuple> data{
      {0, graph::CostVector{1, 9}},
      {1, graph::CostVector{5, 5}},
      {2, graph::CostVector{9, 1}},
      {3, graph::CostVector{2, 2}},
  };
  algo::AggregateFn f = algo::WeightedSum({1.0, 1.0});
  auto top2 = ThresholdAlgorithm(data, f, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id, 3u);  // score 4
  EXPECT_EQ(top2[0].score, 4.0);
  EXPECT_EQ(top2[1].score, 10.0);  // any of 0/1/2
}

TEST(ThresholdAlgorithmTest, StopsBeforeFullScanOnFriendlyData) {
  // One clearly-best tuple: TA should terminate after few rounds.
  std::vector<skyline::Tuple> data;
  Random rng(3);
  for (int i = 1; i <= 1000; ++i) {
    double v = 10.0 + i;
    data.push_back(skyline::Tuple{static_cast<uint32_t>(i),
                                  graph::CostVector{v, v}});
  }
  data.push_back(skyline::Tuple{0, graph::CostVector{1.0, 1.0}});
  algo::AggregateFn f = algo::WeightedSum({0.5, 0.5});
  TaStats stats;
  auto top1 = ThresholdAlgorithm(data, f, 1, &stats);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].id, 0u);
  EXPECT_LT(stats.rounds, 10u);
  EXPECT_LT(stats.sorted_accesses, 50u);
}

struct ClassicParam {
  int n;
  int d;
  int k;
  uint64_t seed;
};

class ClassicTopKSweep : public ::testing::TestWithParam<ClassicParam> {};

TEST_P(ClassicTopKSweep, TaMatchesBruteForce) {
  const ClassicParam& p = GetParam();
  Random rng(p.seed);
  auto data = RandomTuples(rng, p.n, p.d,
                           gen::CostDistribution::kIndependent);
  std::vector<double> weights(p.d);
  for (double& w : weights) w = rng.UniformDouble(0.1, 1.0);
  algo::AggregateFn f = algo::WeightedSum(weights);
  ExpectSameScores(ThresholdAlgorithm(data, f, p.k),
                   BruteForceTopK(data, f, p.k));
}

TEST_P(ClassicTopKSweep, KLargerThanInput) {
  const ClassicParam& p = GetParam();
  Random rng(p.seed + 200);
  auto data = RandomTuples(rng, 5, p.d, gen::CostDistribution::kCorrelated);
  std::vector<double> weights(p.d, 1.0);
  algo::AggregateFn f = algo::WeightedSum(weights);
  EXPECT_EQ(ThresholdAlgorithm(data, f, 50).size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClassicTopKSweep,
    ::testing::Values(ClassicParam{100, 2, 1, 11},
                      ClassicParam{100, 2, 5, 12},
                      ClassicParam{500, 3, 10, 13},
                      ClassicParam{500, 4, 3, 14},
                      ClassicParam{1000, 4, 16, 15},
                      ClassicParam{1000, 5, 7, 16}));

TEST(ThresholdAlgorithmTest, NonLinearMonotoneAggregate) {
  Random rng(9);
  auto data = RandomTuples(rng, 300, 3,
                           gen::CostDistribution::kIndependent);
  // max() is increasingly monotone too.
  algo::AggregateFn f = [](const graph::CostVector& c) {
    return c.MaxComponent();
  };
  ExpectSameScores(ThresholdAlgorithm(data, f, 5),
                   BruteForceTopK(data, f, 5));
}

}  // namespace
}  // namespace mcn::topk
