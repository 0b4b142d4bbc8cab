#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/gen/facility_generator.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::algo {
namespace {

using expand::CeaEngine;
using expand::LsaEngine;
using expand::MemEngine;
using graph::EdgeKey;
using graph::Location;

std::set<graph::FacilityId> Ids(const std::vector<SkylineEntry>& entries) {
  std::set<graph::FacilityId> ids;
  for (const auto& e : entries) ids.insert(e.facility);
  return ids;
}

TEST(SkylineTinyTest, MatchesOracleOnHandGraph) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  for (const Location& q :
       {Location::AtNode(0), Location::AtNode(4), Location::AtNode(8),
        Location::OnEdge(EdgeKey(3, 6), 0.5)}) {
    auto oracle = test::OracleSkyline(fx.graph, fx.facilities, q);
    for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
      auto engine = expand::MakeEngine(kind, fx.reader.get(), q).value();
      SkylineQuery query(engine.get());
      auto result = query.ComputeAll().value();
      EXPECT_EQ(Ids(result), oracle) << q.ToString();
    }
  }
}

TEST(SkylineTinyTest, ReportedCostsMatchOracle) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  Location q = Location::AtNode(0);
  auto oracle = test::OracleReachableCosts(fx.graph, fx.facilities, q);
  auto engine = expand::MakeEngine(expand::EngineKind::kCea, fx.reader.get(),
                                   q)
                    .value();
  SkylineQuery query(engine.get());
  auto result = query.ComputeAll().value();
  for (const SkylineEntry& e : result) {
    auto it = std::find(oracle.ids.begin(), oracle.ids.end(), e.facility);
    ASSERT_NE(it, oracle.ids.end());
    const graph::CostVector& exact =
        oracle.costs[it - oracle.ids.begin()];
    for (int i = 0; i < exact.dim(); ++i) {
      if ((e.known_mask >> i) & 1u) {
        EXPECT_NEAR(e.costs[i], exact[i], 1e-9);
      }
    }
  }
}

TEST(SkylineTinyTest, ProgressiveNextNeverRetracts) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  Location q = Location::AtNode(4);
  auto oracle = test::OracleSkyline(fx.graph, fx.facilities, q);
  auto engine =
      MemEngine::Create(&fx.graph, &fx.facilities, q).value();
  SkylineQuery query(engine.get());
  std::set<graph::FacilityId> seen;
  for (;;) {
    auto next = query.Next().value();
    if (!next.has_value()) break;
    // Every progressive report is already final skyline membership.
    EXPECT_TRUE(oracle.count(next->facility)) << next->facility;
    EXPECT_TRUE(seen.insert(next->facility).second);  // no duplicates
  }
  EXPECT_EQ(seen, oracle);
}

TEST(SkylineTinyTest, EmptyFacilitySet) {
  graph::MultiCostGraph g = test::TinyGraph();
  graph::FacilitySet empty;
  empty.Finalize();
  test::DiskFixture fx(std::move(g), std::move(empty), 64);
  auto engine = expand::MakeEngine(expand::EngineKind::kLsa, fx.reader.get(),
                                   Location::AtNode(0))
                    .value();
  SkylineQuery query(engine.get());
  EXPECT_TRUE(query.ComputeAll().value().empty());
}

TEST(SkylineTinyTest, SingleFacilityIsWholeSkyline) {
  graph::MultiCostGraph g = test::TinyGraph();
  graph::FacilitySet one;
  one.Add(g.FindEdge(4, 5).value(), 0.5);
  one.Finalize();
  test::DiskFixture fx(std::move(g), std::move(one), 64);
  auto engine = expand::MakeEngine(expand::EngineKind::kCea, fx.reader.get(),
                                   Location::AtNode(0))
                    .value();
  SkylineQuery query(engine.get());
  auto result = query.ComputeAll().value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].facility, 0u);
}

TEST(SkylineTinyTest, CoLocatedFacilitiesAllSurvive) {
  // Three facilities at the same point: identical cost vectors; strict
  // dominance keeps all three (the paper's footnote-4 shortcut would not —
  // see DESIGN.md §3).
  graph::MultiCostGraph g = test::TinyGraph();
  graph::FacilitySet facs;
  graph::EdgeId e = g.FindEdge(4, 5).value();
  facs.Add(e, 0.5);
  facs.Add(e, 0.5);
  facs.Add(e, 0.5);
  facs.Finalize();
  test::DiskFixture fx(std::move(g), std::move(facs), 64);
  Location q = Location::AtNode(0);
  auto oracle = test::OracleSkyline(fx.graph, fx.facilities, q);
  EXPECT_EQ(oracle.size(), 3u);
  for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
    auto engine = expand::MakeEngine(kind, fx.reader.get(), q).value();
    SkylineQuery query(engine.get());
    EXPECT_EQ(Ids(query.ComputeAll().value()), oracle);
  }
}

TEST(SkylineTinyTest, DisconnectedFacilitiesIgnored) {
  // Extra component with a facility: unreachable from q, not reported.
  graph::MultiCostGraph g(2);
  for (int i = 0; i < 4; ++i) g.AddNode(i, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, graph::CostVector{1, 1}).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, graph::CostVector{1, 1}).ok());
  g.Finalize();
  graph::FacilitySet facs;
  facs.Add(g.FindEdge(0, 1).value(), 0.5);
  facs.Add(g.FindEdge(2, 3).value(), 0.5);
  facs.Finalize();
  test::DiskFixture fx(std::move(g), std::move(facs), 64);
  auto engine = expand::MakeEngine(expand::EngineKind::kLsa, fx.reader.get(),
                                   Location::AtNode(0))
                    .value();
  SkylineQuery query(engine.get());
  auto result = query.ComputeAll().value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].facility, 0u);
}


TEST(SkylineTinyTest, FirstResultIsAFirstNearestNeighbor) {
  // Enhancement 1 (paper §IV-A): the first progressive report is the first
  // NN of some cost type, delivered before any facility is pinned.
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  Location q = Location::AtNode(0);
  auto costs = expand::AllFacilityCosts(fx.graph, fx.facilities, q);
  // First NN per cost type (by exact cost).
  std::set<graph::FacilityId> first_nns;
  for (int i = 0; i < 2; ++i) {
    graph::FacilityId best = 0;
    for (graph::FacilityId f = 1; f < fx.facilities.size(); ++f) {
      if (costs[f][i] < costs[best][i]) best = f;
    }
    first_nns.insert(best);
  }
  auto engine = expand::MakeEngine(expand::EngineKind::kCea, fx.reader.get(),
                                   q)
                    .value();
  SkylineQuery query(engine.get());
  auto first = query.Next().value();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first_nns.count(first->facility)) << first->facility;
}

TEST(SkylineTinyTest, DisabledFirstNnStillMatchesOracle) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  Location q = Location::AtNode(8);
  auto oracle = test::OracleSkyline(fx.graph, fx.facilities, q);
  SkylineOptions opts;
  opts.report_first_nn = false;
  auto engine = expand::MakeEngine(expand::EngineKind::kLsa, fx.reader.get(),
                                   q)
                    .value();
  SkylineQuery query(engine.get(), opts);
  EXPECT_EQ(Ids(query.ComputeAll().value()), oracle);
}

// ---------------------------------------------------------------------------
// Property sweep: LSA == CEA == Mem == oracle over random instances.

struct SweepParam {
  int d;
  gen::CostDistribution dist;
  uint64_t seed;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = "d" + std::to_string(info.param.d);
  switch (info.param.dist) {
    case gen::CostDistribution::kIndependent:
      name += "_ind";
      break;
    case gen::CostDistribution::kCorrelated:
      name += "_corr";
      break;
    case gen::CostDistribution::kAntiCorrelated:
      name += "_anti";
      break;
  }
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

class SkylineSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SkylineSweepTest, AllEnginesMatchOracle) {
  const SweepParam& p = GetParam();
  test::SmallConfig config;
  config.num_costs = p.d;
  config.distribution = p.dist;
  config.seed = p.seed;
  auto instance = test::MakeSmallInstance(config).value();

  Random rng(p.seed * 977 + 13);
  for (int qi = 0; qi < 3; ++qi) {
    Location q = instance->RandomQueryLocation(rng);
    auto oracle =
        test::OracleSkyline(instance->graph, instance->facilities, q);
    ASSERT_FALSE(oracle.empty());

    auto lsa = LsaEngine::Create(instance->reader.get(), q).value();
    SkylineQuery lsa_query(lsa.get());
    auto lsa_result = lsa_query.ComputeAll().value();

    auto cea = CeaEngine::Create(instance->reader.get(), q).value();
    SkylineQuery cea_query(cea.get());
    auto cea_result = cea_query.ComputeAll().value();

    auto mem = MemEngine::Create(&instance->graph, &instance->facilities, q)
                   .value();
    SkylineQuery mem_query(mem.get());
    auto mem_result = mem_query.ComputeAll().value();

    EXPECT_EQ(Ids(lsa_result), oracle) << "LSA, q=" << q.ToString();
    EXPECT_EQ(Ids(cea_result), oracle) << "CEA, q=" << q.ToString();
    EXPECT_EQ(Ids(mem_result), oracle) << "Mem, q=" << q.ToString();

    // LSA and CEA must report in the same order (identical pin order).
    ASSERT_EQ(lsa_result.size(), cea_result.size());
    for (size_t i = 0; i < lsa_result.size(); ++i) {
      EXPECT_EQ(lsa_result[i].facility, cea_result[i].facility);
    }
  }
}

TEST_P(SkylineSweepTest, EnhancementsDoNotChangeTheAnswer) {
  const SweepParam& p = GetParam();
  test::SmallConfig config;
  config.num_costs = p.d;
  config.distribution = p.dist;
  config.seed = p.seed + 1000;
  auto instance = test::MakeSmallInstance(config).value();

  Random rng(p.seed * 31 + 7);
  Location q = instance->RandomQueryLocation(rng);
  auto oracle =
      test::OracleSkyline(instance->graph, instance->facilities, q);

  for (bool first_nn : {false, true}) {
    for (bool filter : {false, true}) {
      for (bool stop : {false, true}) {
        SkylineOptions opts;
        opts.report_first_nn = first_nn;
        opts.use_facility_filter = filter;
        opts.stop_finished_expansions = stop;
        auto engine = CeaEngine::Create(instance->reader.get(), q).value();
        SkylineQuery query(engine.get(), opts);
        EXPECT_EQ(Ids(query.ComputeAll().value()), oracle)
            << "first_nn=" << first_nn << " filter=" << filter
            << " stop=" << stop;
      }
    }
  }
}

TEST_P(SkylineSweepTest, ProbePoliciesAgree) {
  const SweepParam& p = GetParam();
  test::SmallConfig config;
  config.num_costs = p.d;
  config.distribution = p.dist;
  config.seed = p.seed + 2000;
  auto instance = test::MakeSmallInstance(config).value();
  Random rng(p.seed * 53 + 3);
  Location q = instance->RandomQueryLocation(rng);
  auto oracle =
      test::OracleSkyline(instance->graph, instance->facilities, q);
  for (ProbePolicy policy :
       {ProbePolicy::kRoundRobin, ProbePolicy::kSmallestFrontier,
        ProbePolicy::kLargestFrontier}) {
    SkylineOptions opts;
    opts.probe_policy = policy;
    auto engine = MemEngine::Create(&instance->graph, &instance->facilities,
                                    q)
                      .value();
    SkylineQuery query(engine.get(), opts);
    EXPECT_EQ(Ids(query.ComputeAll().value()), oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineSweepTest,
    ::testing::Values(
        SweepParam{2, gen::CostDistribution::kAntiCorrelated, 1},
        SweepParam{2, gen::CostDistribution::kIndependent, 2},
        SweepParam{2, gen::CostDistribution::kCorrelated, 3},
        SweepParam{3, gen::CostDistribution::kAntiCorrelated, 4},
        SweepParam{3, gen::CostDistribution::kIndependent, 5},
        SweepParam{3, gen::CostDistribution::kCorrelated, 6},
        SweepParam{4, gen::CostDistribution::kAntiCorrelated, 7},
        SweepParam{4, gen::CostDistribution::kIndependent, 8},
        SweepParam{4, gen::CostDistribution::kCorrelated, 9},
        SweepParam{5, gen::CostDistribution::kAntiCorrelated, 10},
        SweepParam{5, gen::CostDistribution::kIndependent, 11},
        SweepParam{5, gen::CostDistribution::kCorrelated, 12}),
    SweepName);

// ---------------------------------------------------------------------------
// Regression tests.

// Regression: a candidate whose only dominator is a *non-pinned* first-NN
// skyline member (excluded from further pops by the shrinking filter in the
// original formulation) must still be eliminated. These seeds reproduced
// exactly that false positive before the fix (DESIGN.md §3).
TEST(SkylineRegressionTest, NonPinnedFirstNnDominatorIsNotLost) {
  struct Case {
    int d;
    uint64_t seed;
  };
  for (const Case& c : {Case{2, 1}, Case{4, 7}, Case{5, 10}}) {
    test::SmallConfig config;
    config.num_costs = c.d;
    config.distribution = gen::CostDistribution::kAntiCorrelated;
    config.seed = c.seed;
    auto instance = test::MakeSmallInstance(config).value();
    Random rng(c.seed * 977 + 13);
    for (int qi = 0; qi < 3; ++qi) {
      Location q = instance->RandomQueryLocation(rng);
      auto oracle =
          test::OracleSkyline(instance->graph, instance->facilities, q);
      auto cea = CeaEngine::Create(instance->reader.get(), q).value();
      SkylineQuery query(cea.get());
      EXPECT_EQ(Ids(query.ComputeAll().value()), oracle)
          << "d=" << c.d << " seed=" << c.seed << " q=" << q.ToString();
    }
  }
}

// A crafted exact-tie threat: facility A is the first NN of cost 0 (reported
// directly, never pinned by the time B pins) and dominates facility B with a
// tie in cost 1. The deferred-pin drain must eliminate B.
TEST(SkylineRegressionTest, DeferredPinEliminatesTiedDominatedCandidate) {
  // Path graph: q=node0 -- n1 -- n2 -- n3, with facilities on the edges.
  graph::MultiCostGraph g(2);
  for (int i = 0; i < 4; ++i) g.AddNode(i, 0);
  // Edge costs chosen so that (with integer arithmetic, exactly):
  //   A on edge(0,1)@0.5: c(A) = (1, 4)
  //   B on edge(2,3)@0.5: c(B) = (9, 4)   -> A dominates B (tie in cost 1).
  graph::EdgeId e01 = g.AddEdge(0, 1, graph::CostVector{2, 8}).value();
  ASSERT_TRUE(g.AddEdge(1, 2, graph::CostVector{4, 1}).ok());
  graph::EdgeId e23 = g.AddEdge(2, 3, graph::CostVector{6, 6}).value();
  g.Finalize();
  graph::FacilitySet facs;
  graph::FacilityId fa = facs.Add(e01, 0.5);
  graph::FacilityId fb = facs.Add(e23, 0.5);
  facs.Finalize();
  ASSERT_EQ(fa, 0u);
  ASSERT_EQ(fb, 1u);

  test::DiskFixture fx(std::move(g), std::move(facs), 64);
  Location q = Location::AtNode(0);
  auto oracle = test::OracleSkyline(fx.graph, fx.facilities, q);
  EXPECT_EQ(oracle, std::set<graph::FacilityId>{fa});
  for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
    auto engine = expand::MakeEngine(kind, fx.reader.get(), q).value();
    SkylineQuery query(engine.get());
    EXPECT_EQ(Ids(query.ComputeAll().value()), oracle);
  }
}

TEST(SkylineStatsTest, StatsAreConsistent) {
  test::SmallConfig config;
  config.seed = 321;
  auto instance = test::MakeSmallInstance(config).value();
  Random rng(5);
  Location q = instance->RandomQueryLocation(rng);
  auto cea = CeaEngine::Create(instance->reader.get(), q).value();
  SkylineQuery query(cea.get());
  auto result = query.ComputeAll().value();
  const auto& stats = query.stats();
  EXPECT_EQ(stats.skyline_size, result.size());
  EXPECT_TRUE(stats.reached_shrinking);
  EXPECT_GE(stats.facilities_seen, result.size());
  EXPECT_GE(stats.nn_pops, stats.facilities_seen);
  EXPECT_GT(stats.dominance_checks, 0u);
  EXPECT_GE(stats.candidates_peak, 1u);
  EXPECT_TRUE(query.done());
}

struct SkylineGoldenTotals {
  uint64_t nn_pops = 0;
  uint64_t dominance_checks = 0;
  uint64_t drain_rounds = 0;
  uint64_t prune_checked = 0;
  uint64_t prune_cut = 0;
  uint64_t logical_fetches = 0;
  uint64_t physical_fetches = 0;
  uint64_t misses = 0;
  uint64_t digest = kFnvOffsetBasis;
};

// Pins the exact work of the probe schedules, not just their answers: a
// change to how the expansions are driven that kept the skyline but moved
// a single pop, fetch or dominance test fails here. Four fixed queries at
// scale 0.02 (K = 1, landmark index built), summed per leg; pool misses
// include the index pool's.
TEST(SkylineGoldenTest, GoldenWorkAtScale002) {
  gen::ExperimentConfig config = gen::ExperimentConfig().Scaled(0.02);
  config.landmarks = 64;
  struct Golden {
    expand::EngineKind engine;
    int parallelism;
    ProbePolicy policy;
    bool landmarks;
    SkylineGoldenTotals want;
  };
  using expand::EngineKind;
  constexpr EngineKind kLsa = EngineKind::kLsa;
  constexpr EngineKind kCea = EngineKind::kCea;
  constexpr ProbePolicy kRR = ProbePolicy::kRoundRobin;
  constexpr ProbePolicy kSF = ProbePolicy::kSmallestFrontier;
  const Golden kGolden[] = {
      {kLsa, 0, kRR, false,
       {827, 3341, 4, 0, 0, 8308, 8308, 23632, 0x9be3f8c8806998a1ull}},
      {kLsa, 1, kRR, false,
       {871, 1818, 4, 0, 0, 6935, 6935, 19383, 0x06f13795f54dd346ull}},
      {kLsa, 0, kSF, false,
       {2131, 5258, 4, 0, 0, 9604, 9604, 25976, 0xb791c7056fbea2dbull}},
      {kCea, 0, kRR, false,
       {827, 3341, 4, 0, 0, 8308, 4066, 12219, 0x9be3f8c8806998a1ull}},
      {kCea, 1, kRR, false,
       {871, 1818, 4, 0, 0, 6935, 2846, 8472, 0x06f13795f54dd346ull}},
      {kCea, 0, kSF, false,
       {2131, 5258, 4, 0, 0, 9604, 3530, 11070, 0xb791c7056fbea2dbull}},
      {kCea, 0, kRR, true,
       {827, 3341, 4, 777, 332, 4548, 1839, 6132, 0x9be3f8c8806998a1ull}},
  };
  auto instance = gen::BuildShardedInstance(config, 1).value();
  ASSERT_NE(instance->landmark_reader, nullptr);
  std::vector<Location> queries;
  // A query set whose skylines reach the shrinking stage and the prune
  // oracle at this scale (many random locations sit next to a facility
  // that dominates everything).
  Random rng(9);
  for (int i = 0; i < 4; ++i) {
    queries.push_back(instance->RandomQueryLocation(rng));
  }
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.engine == kLsa ? "LSA" : "CEA") +
                 " p=" + std::to_string(g.parallelism) +
                 (g.policy == kRR ? " round-robin" : " smallest-frontier") +
                 (g.landmarks ? " landmarks" : ""));
    SkylineGoldenTotals got;
    for (const Location& q : queries) {
      instance->ResetIoState();
      auto engine =
          expand::MakeEngine(g.engine, instance->reader.get(), q).value();
      std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
      SkylineOptions opts;
      opts.probe_policy = g.policy;
      opts.exec.parallelism = g.parallelism;
      if (g.parallelism >= 1) {
        scheduler = std::make_unique<expand::ParallelProbeScheduler>(
            engine.get(), /*pool=*/nullptr, /*striped=*/nullptr);
        opts.exec.scheduler = scheduler.get();
      }
      if (g.landmarks) {
        opts.exec.landmark_index = instance->landmark_reader.get();
      }
      SkylineQuery query(engine.get(), opts);
      const std::vector<SkylineEntry> rows = query.ComputeAll().value();
      for (const SkylineEntry& row : rows) {
        got.digest = FnvMixU64(got.digest, row.facility);
        for (int j = 0; j < row.costs.dim(); ++j) {
          got.digest = FnvMixU64(got.digest, DoubleBits(row.costs[j]));
        }
      }
      const SkylineQuery::Stats& st = query.stats();
      got.nn_pops += st.nn_pops;
      got.dominance_checks += st.dominance_checks;
      got.drain_rounds += st.drain_rounds;
      got.prune_checked += st.prune_checked;
      got.prune_cut += st.prune_cut;
      const expand::FetchProvider::Stats& fs = engine->fetch().stats();
      got.logical_fetches += fs.adjacency_requests + fs.facility_requests;
      got.physical_fetches += fs.adjacency_fetches + fs.facility_fetches;
      got.misses += instance->reader->PoolStats().misses +
                    instance->landmark_reader->pool().stats().misses;
    }
    EXPECT_EQ(got.nn_pops, g.want.nn_pops);
    EXPECT_EQ(got.dominance_checks, g.want.dominance_checks);
    EXPECT_EQ(got.drain_rounds, g.want.drain_rounds);
    EXPECT_EQ(got.prune_checked, g.want.prune_checked);
    EXPECT_EQ(got.prune_cut, g.want.prune_cut);
    EXPECT_EQ(got.logical_fetches, g.want.logical_fetches);
    EXPECT_EQ(got.physical_fetches, g.want.physical_fetches);
    EXPECT_EQ(got.misses, g.want.misses);
    EXPECT_EQ(got.digest, g.want.digest);
  }
}

}  // namespace
}  // namespace mcn::algo
