// End-to-end tests on a moderately sized generated city: generator ->
// storage scheme -> buffer pool -> LSA/CEA skyline and top-k, all verified
// against the in-memory oracle, plus the naive baseline.
#include <gtest/gtest.h>

#include <set>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/naive.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/expand/engines.h"
#include "test_util.h"

namespace mcn {
namespace {

using algo::AggregateFn;
using algo::SkylineQuery;
using algo::TopKQuery;
using algo::WeightedSum;
using graph::Location;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::ExperimentConfig config;
    config.nodes = 3000;
    config.edges = 3823;
    config.facilities = 400;
    config.clusters = 6;
    config.num_costs = 4;
    config.distribution = gen::CostDistribution::kAntiCorrelated;
    config.buffer_pct = 1.0;
    config.seed = 2026;
    instance_ = gen::BuildShardedInstance(config, /*num_shards=*/1)
                    .value()
                    .release();
  }

  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }

  static gen::ShardedInstance* instance_;
};

gen::ShardedInstance* IntegrationTest::instance_ = nullptr;

TEST_F(IntegrationTest, SkylineLsaCeaOracleAgreeOnManyQueries) {
  Random rng(42);
  for (int qi = 0; qi < 8; ++qi) {
    Location q = instance_->RandomQueryLocation(rng);
    auto oracle =
        test::OracleSkyline(instance_->graph, instance_->facilities, q);

    auto lsa =
        expand::LsaEngine::Create(instance_->reader.get(), q).value();
    SkylineQuery lsa_query(lsa.get());
    auto lsa_ids = lsa_query.ComputeAll().value();

    auto cea =
        expand::CeaEngine::Create(instance_->reader.get(), q).value();
    SkylineQuery cea_query(cea.get());
    auto cea_ids = cea_query.ComputeAll().value();

    std::set<graph::FacilityId> lsa_set, cea_set;
    for (auto& e : lsa_ids) lsa_set.insert(e.facility);
    for (auto& e : cea_ids) cea_set.insert(e.facility);
    EXPECT_EQ(lsa_set, oracle) << q.ToString();
    EXPECT_EQ(cea_set, oracle) << q.ToString();
  }
}

TEST_F(IntegrationTest, TopKAgreesOnManyQueriesAndKs) {
  Random rng(43);
  for (int qi = 0; qi < 4; ++qi) {
    Location q = instance_->RandomQueryLocation(rng);
    std::vector<double> weights(4);
    for (double& w : weights) w = rng.UniformDouble(0.0, 1.0);
    AggregateFn f = WeightedSum(weights);
    for (int k : {1, 4, 16}) {
      auto oracle =
          test::OracleTopK(instance_->graph, instance_->facilities, q, f, k);
      auto cea =
          expand::CeaEngine::Create(instance_->reader.get(), q).value();
      algo::TopKOptions opts;
      opts.k = k;
      TopKQuery query(cea.get(), f, opts);
      auto result = query.Run().value();
      ASSERT_EQ(result.size(), oracle.size());
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_NEAR(result[i].score, oracle[i].score, 1e-9)
            << "k=" << k << " rank " << i;
      }
    }
  }
}

TEST_F(IntegrationTest, NaiveBaselineAgreesAndCostsMore) {
  Random rng(44);
  Location q = instance_->RandomQueryLocation(rng);

  instance_->ResetIoState();
  auto cea = expand::CeaEngine::Create(instance_->reader.get(), q).value();
  SkylineQuery cea_query(cea.get());
  auto cea_result = cea_query.ComputeAll().value();
  uint64_t cea_accesses = instance_->reader->PoolStats().accesses();

  instance_->ResetIoState();
  auto naive = algo::NaiveSkyline(*instance_->reader, q).value();
  uint64_t naive_accesses = instance_->reader->PoolStats().accesses();

  std::set<graph::FacilityId> a, b;
  for (auto& e : cea_result) a.insert(e.facility);
  for (auto& e : naive) b.insert(e.facility);
  EXPECT_EQ(a, b);
  // The baseline reads the entire MCN d times; local search touches a
  // neighborhood. On a 3000-node network the gap must be substantial.
  EXPECT_GT(naive_accesses, 2 * cea_accesses);
}

TEST_F(IntegrationTest, IncrementalTopKStreamsTheFullRanking) {
  Random rng(45);
  Location q = instance_->RandomQueryLocation(rng);
  AggregateFn f = WeightedSum({0.4, 0.3, 0.2, 0.1});
  auto oracle =
      test::OracleTopK(instance_->graph, instance_->facilities, q, f, 32);
  auto cea = expand::CeaEngine::Create(instance_->reader.get(), q).value();
  algo::IncrementalTopK inc(cea.get(), f);
  for (size_t i = 0; i < oracle.size(); ++i) {
    auto next = inc.NextBest().value();
    ASSERT_TRUE(next.has_value());
    EXPECT_NEAR(next->score, oracle[i].score, 1e-9) << "rank " << i;
  }
}

TEST_F(IntegrationTest, ProgressiveSkylineDeliversFirstResultEarly) {
  // The first skyline member (a first-NN) must arrive before the query
  // completes (progressiveness, paper §I) — strictly so for every query,
  // and much earlier on average.
  Random rng(46);
  double ratio_sum = 0;
  const int kQueries = 6;
  for (int qi = 0; qi < kQueries; ++qi) {
    Location q = instance_->RandomQueryLocation(rng);
    instance_->ResetIoState();
    auto cea = expand::CeaEngine::Create(instance_->reader.get(), q).value();
    SkylineQuery query(cea.get());
    auto first = query.Next().value();
    ASSERT_TRUE(first.has_value());
    uint64_t first_accesses = instance_->reader->PoolStats().accesses();
    query.ComputeAll().value();
    uint64_t total_accesses = instance_->reader->PoolStats().accesses();
    EXPECT_LT(first_accesses, total_accesses);
    ratio_sum += static_cast<double>(first_accesses) / total_accesses;
  }
  EXPECT_LT(ratio_sum / kQueries, 0.6);
}

TEST_F(IntegrationTest, QueriesAtNodesWork) {
  Random rng(47);
  for (int qi = 0; qi < 3; ++qi) {
    Location q = Location::AtNode(
        static_cast<graph::NodeId>(rng.Uniform(instance_->graph.num_nodes())));
    auto oracle =
        test::OracleSkyline(instance_->graph, instance_->facilities, q);
    auto cea =
        expand::CeaEngine::Create(instance_->reader.get(), q).value();
    SkylineQuery query(cea.get());
    auto entries = query.ComputeAll().value();
    std::set<graph::FacilityId> got;
    for (auto& e : entries) got.insert(e.facility);
    EXPECT_EQ(got, oracle);
  }
}

}  // namespace
}  // namespace mcn
