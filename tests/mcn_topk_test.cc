#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mcn/algo/result_hash.h"
#include "mcn/algo/topk_query.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::algo {
namespace {

using expand::CeaEngine;
using expand::LsaEngine;
using expand::MemEngine;
using graph::EdgeKey;
using graph::Location;

/// Scores must agree; ids may differ only within score ties.
void ExpectSameRanking(const std::vector<TopKEntry>& got,
                       const std::vector<TopKEntry>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, expected[i].score, 1e-9) << "rank " << i;
  }
  // Ids must match wherever the rank is unambiguous: strictly below the
  // k-th score (ties at the boundary are resolved arbitrarily, paper §III)
  // and unique within the expected ranking.
  if (expected.empty()) return;
  double kth = expected.back().score;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(expected[i].score - kth) < 1e-9) continue;
    bool tied = false;
    for (size_t j = 0; j < expected.size(); ++j) {
      if (i != j &&
          std::fabs(expected[i].score - expected[j].score) < 1e-9) {
        tied = true;
      }
    }
    if (!tied) {
      EXPECT_EQ(got[i].facility, expected[i].facility);
    }
  }
}

TEST(TopKTinyTest, MatchesOracleOnHandGraph) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  AggregateFn f = WeightedSum({0.7, 0.3});
  for (const Location& q :
       {Location::AtNode(0), Location::AtNode(8),
        Location::OnEdge(EdgeKey(4, 7), 0.25)}) {
    for (int k : {1, 2, 3, 5, 10}) {
      auto oracle = test::OracleTopK(fx.graph, fx.facilities, q, f, k);
      for (auto kind :
           {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
        auto engine = expand::MakeEngine(kind, fx.reader.get(), q).value();
        TopKOptions opts;
        opts.k = k;
        TopKQuery query(engine.get(), f, opts);
        auto result = query.Run().value();
        ExpectSameRanking(result, oracle);
      }
    }
  }
}

TEST(TopKTinyTest, KLargerThanFacilityCountReturnsAll) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  AggregateFn f = WeightedSum({0.5, 0.5});
  auto engine = expand::MakeEngine(expand::EngineKind::kCea, fx.reader.get(),
                                   Location::AtNode(0))
                    .value();
  TopKOptions opts;
  opts.k = 100;
  TopKQuery query(engine.get(), f, opts);
  auto result = query.Run().value();
  EXPECT_EQ(result.size(), fx.facilities.size());
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].score, result[i].score);
  }
}

TEST(TopKTinyTest, ResultVectorsAreComplete) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  AggregateFn f = WeightedSum({0.9, 0.1});
  Location q = Location::AtNode(4);
  auto oracle = test::OracleReachableCosts(fx.graph, fx.facilities, q);
  auto engine = expand::MakeEngine(expand::EngineKind::kLsa, fx.reader.get(),
                                   q)
                    .value();
  TopKOptions opts;
  opts.k = 3;
  TopKQuery query(engine.get(), f, opts);
  auto result = query.Run().value();
  for (const TopKEntry& e : result) {
    auto it = std::find(oracle.ids.begin(), oracle.ids.end(), e.facility);
    ASSERT_NE(it, oracle.ids.end());
    EXPECT_TRUE(
        e.costs.ApproxEquals(oracle.costs[it - oracle.ids.begin()], 1e-9));
    EXPECT_NEAR(e.score, f(e.costs), 1e-12);
  }
}

TEST(TopKTinyTest, EmptyFacilitySet) {
  graph::MultiCostGraph g = test::TinyGraph();
  graph::FacilitySet empty;
  empty.Finalize();
  test::DiskFixture fx(std::move(g), std::move(empty), 64);
  auto engine = expand::MakeEngine(expand::EngineKind::kLsa, fx.reader.get(),
                                   Location::AtNode(0))
                    .value();
  TopKQuery query(engine.get(), WeightedSum({0.5, 0.5}), TopKOptions{});
  EXPECT_TRUE(query.Run().value().empty());
}

TEST(TopKTinyTest, RejectsNonPositiveK) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  auto engine = expand::MakeEngine(expand::EngineKind::kLsa, fx.reader.get(),
                                   Location::AtNode(0))
                    .value();
  TopKOptions opts;
  opts.k = 0;
  EXPECT_DEATH(TopKQuery(engine.get(), WeightedSum({0.5, 0.5}), opts),
               "MCN_CHECK");
}


TEST(TopKTinyTest, NonLinearMonotoneAggregate) {
  // max() over the cost vector is increasingly monotone too; the algorithms
  // only assume monotonicity, not linearity.
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  AggregateFn f = [](const graph::CostVector& c) { return c.MaxComponent(); };
  Location q = Location::AtNode(4);
  auto oracle = test::OracleTopK(fx.graph, fx.facilities, q, f, 3);
  for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
    auto engine = expand::MakeEngine(kind, fx.reader.get(), q).value();
    TopKOptions opts;
    opts.k = 3;
    TopKQuery query(engine.get(), f, opts);
    ExpectSameRanking(query.Run().value(), oracle);
  }
}

TEST(TopKTinyTest, StatsAreConsistent) {
  test::SmallConfig config;
  config.seed = 909;
  auto instance = test::MakeSmallInstance(config).value();
  Random rng(3);
  Location q = instance->RandomQueryLocation(rng);
  auto cea = CeaEngine::Create(instance->reader.get(), q).value();
  TopKOptions opts;
  opts.k = 4;
  TopKQuery query(cea.get(),
                  WeightedSum(test::TestWeights(config.num_costs, 1)), opts);
  auto result = query.Run().value();
  const auto& stats = query.stats();
  EXPECT_EQ(result.size(), 4u);
  EXPECT_TRUE(stats.reached_shrinking);
  EXPECT_GE(stats.facilities_seen, 4u);
  EXPECT_GE(stats.nn_pops, 4u);
}

// ---------------------------------------------------------------------------
// Property sweep.

struct SweepParam {
  int d;
  gen::CostDistribution dist;
  int k;
  uint64_t seed;
};

class TopKSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TopKSweepTest, AllEnginesMatchOracle) {
  const SweepParam& p = GetParam();
  test::SmallConfig config;
  config.num_costs = p.d;
  config.distribution = p.dist;
  config.seed = p.seed;
  auto instance = test::MakeSmallInstance(config).value();
  AggregateFn f = WeightedSum(test::TestWeights(p.d, p.seed * 7 + 1));

  Random rng(p.seed * 131 + 5);
  for (int qi = 0; qi < 3; ++qi) {
    Location q = instance->RandomQueryLocation(rng);
    auto oracle =
        test::OracleTopK(instance->graph, instance->facilities, q, f, p.k);

    for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
      auto engine =
          expand::MakeEngine(kind, instance->reader.get(), q).value();
      TopKOptions opts;
      opts.k = p.k;
      TopKQuery query(engine.get(), f, opts);
      auto result = query.Run().value();
      ExpectSameRanking(result, oracle);
    }
    auto mem = MemEngine::Create(&instance->graph, &instance->facilities, q)
                   .value();
    TopKOptions opts;
    opts.k = p.k;
    TopKQuery query(mem.get(), f, opts);
    ExpectSameRanking(query.Run().value(), oracle);
  }
}

TEST_P(TopKSweepTest, OptionsDoNotChangeTheAnswer) {
  const SweepParam& p = GetParam();
  test::SmallConfig config;
  config.num_costs = p.d;
  config.distribution = p.dist;
  config.seed = p.seed + 500;
  auto instance = test::MakeSmallInstance(config).value();
  AggregateFn f = WeightedSum(test::TestWeights(p.d, p.seed * 3 + 2));
  Random rng(p.seed * 17 + 1);
  Location q = instance->RandomQueryLocation(rng);
  auto oracle =
      test::OracleTopK(instance->graph, instance->facilities, q, f, p.k);

  for (bool filter : {false, true}) {
    for (bool stop : {false, true}) {
      for (bool lb : {false, true}) {
        TopKOptions opts;
        opts.k = p.k;
        opts.use_facility_filter = filter;
        opts.stop_finished_expansions = stop;
        opts.lower_bound_pruning = lb;
        auto engine = CeaEngine::Create(instance->reader.get(), q).value();
        TopKQuery query(engine.get(), f, opts);
        ExpectSameRanking(query.Run().value(), oracle);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKSweepTest,
    ::testing::Values(
        SweepParam{2, gen::CostDistribution::kAntiCorrelated, 1, 21},
        SweepParam{2, gen::CostDistribution::kIndependent, 4, 22},
        SweepParam{2, gen::CostDistribution::kCorrelated, 8, 23},
        SweepParam{3, gen::CostDistribution::kAntiCorrelated, 4, 24},
        SweepParam{3, gen::CostDistribution::kIndependent, 16, 25},
        SweepParam{4, gen::CostDistribution::kAntiCorrelated, 2, 26},
        SweepParam{4, gen::CostDistribution::kCorrelated, 4, 27},
        SweepParam{5, gen::CostDistribution::kAntiCorrelated, 8, 28},
        SweepParam{5, gen::CostDistribution::kIndependent, 1, 29}));

struct TopKGoldenTotals {
  uint64_t nn_pops = 0;
  uint64_t lb_eliminations = 0;
  uint64_t replacements = 0;
  uint64_t logical_fetches = 0;
  uint64_t physical_fetches = 0;
  uint64_t misses = 0;
  uint64_t digest = kFnvOffsetBasis;
};

// Pins the exact work of the probe schedules, not just their answers (see
// SkylineGoldenTest.GoldenWorkAtScale002): four fixed top-4 queries at
// scale 0.02 (K = 1), summed per leg.
TEST(TopKGoldenTest, GoldenWorkAtScale002) {
  const gen::ExperimentConfig config = gen::ExperimentConfig().Scaled(0.02);
  struct Golden {
    expand::EngineKind engine;
    int parallelism;
    ProbePolicy policy;
    TopKGoldenTotals want;
  };
  using expand::EngineKind;
  constexpr EngineKind kLsa = EngineKind::kLsa;
  constexpr EngineKind kCea = EngineKind::kCea;
  constexpr ProbePolicy kRR = ProbePolicy::kRoundRobin;
  constexpr ProbePolicy kSF = ProbePolicy::kSmallestFrontier;
  const Golden kGolden[] = {
      {kLsa, 0, kRR,
       {1016, 465, 2, 3268, 3268, 8231, 0x27b2cbbf8b4ac5b5ull}},
      {kLsa, 1, kRR,
       {1156, 541, 2, 3579, 3579, 8876, 0x27b2cbbf8b4ac5b5ull}},
      {kLsa, 0, kSF,
       {2124, 1076, 1, 6568, 6568, 17114, 0x27b2cbbf8b4ac5b5ull}},
      {kCea, 0, kRR,
       {1016, 465, 2, 3268, 1448, 4681, 0x27b2cbbf8b4ac5b5ull}},
      {kCea, 1, kRR,
       {1156, 541, 2, 3579, 1445, 4723, 0x27b2cbbf8b4ac5b5ull}},
      {kCea, 0, kSF,
       {2124, 1076, 1, 6568, 2628, 8862, 0x27b2cbbf8b4ac5b5ull}},
  };
  auto instance = gen::BuildShardedInstance(config, 1).value();
  std::vector<Location> queries;
  std::vector<std::vector<double>> weights;
  Random rng(2024);
  for (uint64_t i = 0; i < 4; ++i) {
    queries.push_back(instance->RandomQueryLocation(rng));
    weights.push_back(test::TestWeights(config.num_costs, 90 + i));
  }
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.engine == kLsa ? "LSA" : "CEA") +
                 " p=" + std::to_string(g.parallelism) +
                 (g.policy == kRR ? " round-robin" : " smallest-frontier"));
    TopKGoldenTotals got;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      instance->ResetIoState();
      auto engine =
          expand::MakeEngine(g.engine, instance->reader.get(), queries[qi])
              .value();
      std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
      TopKOptions opts;
      opts.k = 4;
      opts.probe_policy = g.policy;
      opts.exec.parallelism = g.parallelism;
      if (g.parallelism >= 1) {
        scheduler = std::make_unique<expand::ParallelProbeScheduler>(
            engine.get(), /*pool=*/nullptr, /*striped=*/nullptr);
        opts.exec.scheduler = scheduler.get();
      }
      TopKQuery query(engine.get(), WeightedSum(weights[qi]), opts);
      const std::vector<TopKEntry> rows = query.Run().value();
      for (const TopKEntry& row : rows) {
        got.digest = FnvMixU64(got.digest, row.facility);
        got.digest = FnvMixU64(got.digest, DoubleBits(row.score));
      }
      const TopKQuery::Stats& st = query.stats();
      got.nn_pops += st.nn_pops;
      got.lb_eliminations += st.lb_eliminations;
      got.replacements += st.replacements;
      const expand::FetchProvider::Stats& fs = engine->fetch().stats();
      got.logical_fetches += fs.adjacency_requests + fs.facility_requests;
      got.physical_fetches += fs.adjacency_fetches + fs.facility_fetches;
      got.misses += instance->reader->PoolStats().misses;
    }
    EXPECT_EQ(got.nn_pops, g.want.nn_pops);
    EXPECT_EQ(got.lb_eliminations, g.want.lb_eliminations);
    EXPECT_EQ(got.replacements, g.want.replacements);
    EXPECT_EQ(got.logical_fetches, g.want.logical_fetches);
    EXPECT_EQ(got.physical_fetches, g.want.physical_fetches);
    EXPECT_EQ(got.misses, g.want.misses);
    EXPECT_EQ(got.digest, g.want.digest);
  }
}

/// Facilities in ascending cost, grouped into runs of equal cost.
using CostRuns = std::vector<std::pair<double, std::set<graph::FacilityId>>>;

void AddToRuns(CostRuns* runs, double cost, graph::FacilityId facility) {
  if (runs->empty() || runs->back().first != cost) {
    runs->push_back({cost, {}});
  }
  runs->back().second.insert(facility);
}

// Metamorphic (ROADMAP item 6): with the unit weight vector e_i the score
// is cost i alone, so the top-k is the first k of expansion i's NN order,
// under width-1 (parallelism 0) and wide (parallelism 1) turns alike. Runs
// of equal cost may come out in either order and are compared as sets;
// the run cut at rank k must be a subset of the NN run at its cost.
TEST(TopKMetamorphicTest, UnitWeightsGiveSingleCriterionNnPrefix) {
  const uint64_t seed = test::AnnounceSeed("TopKQuery.UnitWeights");
  test::SmallConfig config;
  config.num_costs = 3;
  config.seed = test::DeriveSeed(seed, 1);
  auto instance = test::MakeSmallInstance(config).value();
  Random rng(test::DeriveSeed(seed, 2));
  for (int qi = 0; qi < 2; ++qi) {
    const Location q = instance->RandomQueryLocation(rng);
    for (int i = 0; i < config.num_costs; ++i) {
      instance->ResetIoState();
      auto nn_engine = CeaEngine::Create(instance->reader.get(), q).value();
      CostRuns nn_runs;
      size_t reachable = 0;
      for (;;) {
        auto nn = nn_engine->NextNN(i).value();
        if (!nn.has_value()) break;
        AddToRuns(&nn_runs, nn->cost, nn->facility);
        ++reachable;
      }
      ASSERT_FALSE(nn_runs.empty());
      std::vector<double> unit(config.num_costs, 0.0);
      unit[i] = 1.0;
      for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
        for (int parallelism : {0, 1}) {
          for (int k : {1, 5, 17}) {
            SCOPED_TRACE("q=" + q.ToString() + " i=" + std::to_string(i) +
                         (kind == expand::EngineKind::kLsa ? " LSA" : " CEA") +
                         " p=" + std::to_string(parallelism) +
                         " k=" + std::to_string(k));
            instance->ResetIoState();
            auto engine =
                expand::MakeEngine(kind, instance->reader.get(), q).value();
            std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
            TopKOptions opts;
            opts.k = k;
            opts.exec.parallelism = parallelism;
            if (parallelism >= 1) {
              scheduler = std::make_unique<expand::ParallelProbeScheduler>(
                  engine.get(), /*pool=*/nullptr, /*striped=*/nullptr);
              opts.exec.scheduler = scheduler.get();
            }
            TopKQuery query(engine.get(), WeightedSum(unit), opts);
            const std::vector<TopKEntry> rows = query.Run().value();
            ASSERT_EQ(rows.size(), std::min<size_t>(k, reachable));
            CostRuns runs;
            for (const TopKEntry& row : rows) {
              AddToRuns(&runs, row.score, row.facility);
            }
            ASSERT_LE(runs.size(), nn_runs.size());
            for (size_t r = 0; r + 1 < runs.size(); ++r) {
              EXPECT_EQ(runs[r], nn_runs[r]) << "run " << r;
            }
            const auto& [cut_cost, cut] = runs.back();
            const auto& [nn_cost, nn_run] = nn_runs[runs.size() - 1];
            EXPECT_EQ(cut_cost, nn_cost);
            EXPECT_TRUE(std::includes(nn_run.begin(), nn_run.end(),
                                      cut.begin(), cut.end()));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcn::algo
