#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mcn/common/random.h"
#include "mcn/gen/cost_generator.h"
#include "mcn/skyline/skyline.h"

namespace mcn::skyline {
namespace {

std::vector<Tuple> RandomTuples(Random& rng, int n, int d,
                                gen::CostDistribution dist) {
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (int i = 0; i < n; ++i) {
    tuples.push_back(
        Tuple{static_cast<uint32_t>(i),
              gen::GenerateEdgeCosts(rng, dist, d, 1.0)});
  }
  return tuples;
}

std::set<uint32_t> AsSet(const std::vector<uint32_t>& v) {
  return {v.begin(), v.end()};
}

TEST(ClassicSkylineTest, EmptyAndSingle) {
  EXPECT_TRUE(SortFilterSkyline({}).empty());
  std::vector<Tuple> one{{7, graph::CostVector{1, 2}}};
  EXPECT_EQ(SortFilterSkyline(one), std::vector<uint32_t>{7});
}

TEST(ClassicSkylineTest, HandExample) {
  std::vector<Tuple> data{
      {0, graph::CostVector{1, 5}}, {1, graph::CostVector{2, 2}},
      {2, graph::CostVector{5, 1}}, {3, graph::CostVector{3, 3}},
      {4, graph::CostVector{2, 6}},  // dominated by 0? (1,5)<(2,6) yes
  };
  std::set<uint32_t> expected{0, 1, 2};
  EXPECT_EQ(AsSet(SortFilterSkyline(data)), expected);
  EXPECT_EQ(AsSet(BruteForceSkyline(data)), expected);
}

TEST(ClassicSkylineTest, DuplicateVectorsAllKept) {
  std::vector<Tuple> data{
      {0, graph::CostVector{1, 1}},
      {1, graph::CostVector{1, 1}},
      {2, graph::CostVector{2, 2}},
  };
  std::set<uint32_t> expected{0, 1};
  EXPECT_EQ(AsSet(SortFilterSkyline(data)), expected);
}

struct ClassicParam {
  int n;
  int d;
  gen::CostDistribution dist;
  uint64_t seed;
};

class ClassicSkylineSweep : public ::testing::TestWithParam<ClassicParam> {};

TEST_P(ClassicSkylineSweep, AllAlgorithmsAgreeWithBruteForce) {
  const ClassicParam& p = GetParam();
  Random rng(p.seed);
  auto data = RandomTuples(rng, p.n, p.d, p.dist);
  auto brute = AsSet(BruteForceSkyline(data));
  EXPECT_EQ(AsSet(SortFilterSkyline(data)), brute);
}

TEST_P(ClassicSkylineSweep, SfsOutputRespectsMonotoneOrder) {
  const ClassicParam& p = GetParam();
  Random rng(p.seed + 1);
  auto data = RandomTuples(rng, p.n, p.d, p.dist);
  auto result = SortFilterSkyline(data);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(data[result[i - 1]].values.Sum(),
              data[result[i]].values.Sum());
  }
}

TEST_P(ClassicSkylineSweep, SkylineIsMutuallyIncomparable) {
  const ClassicParam& p = GetParam();
  Random rng(p.seed + 2);
  auto data = RandomTuples(rng, p.n, p.d, p.dist);
  auto ids = SortFilterSkyline(data);
  for (uint32_t a : ids) {
    for (uint32_t b : ids) {
      if (a != b) {
        EXPECT_FALSE(data[a].values.Dominates(data[b].values));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClassicSkylineSweep,
    ::testing::Values(
        ClassicParam{50, 2, gen::CostDistribution::kIndependent, 1},
        ClassicParam{200, 2, gen::CostDistribution::kAntiCorrelated, 2},
        ClassicParam{200, 3, gen::CostDistribution::kCorrelated, 3},
        ClassicParam{500, 3, gen::CostDistribution::kIndependent, 4},
        ClassicParam{500, 4, gen::CostDistribution::kAntiCorrelated, 5},
        ClassicParam{300, 5, gen::CostDistribution::kIndependent, 6},
        ClassicParam{100, 6, gen::CostDistribution::kAntiCorrelated, 7}));

TEST(ClassicSkylineTest, AntiCorrelatedHasLargerSkylineThanCorrelated) {
  Random rng(42);
  auto anti =
      RandomTuples(rng, 2000, 3, gen::CostDistribution::kAntiCorrelated);
  auto corr =
      RandomTuples(rng, 2000, 3, gen::CostDistribution::kCorrelated);
  EXPECT_GT(SortFilterSkyline(anti).size(),
            SortFilterSkyline(corr).size());
}

}  // namespace
}  // namespace mcn::skyline
