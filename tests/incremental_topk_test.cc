#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/topk_query.h"
#include "mcn/common/cancel.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::algo {
namespace {

using expand::CeaEngine;
using expand::MemEngine;
using graph::Location;

TEST(IncrementalTopKTest, DrainsAllReachableInScoreOrder) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  AggregateFn f = WeightedSum({0.6, 0.4});
  Location q = Location::AtNode(0);
  auto oracle = test::OracleTopK(fx.graph, fx.facilities, q, f, 1000);

  auto engine = CeaEngine::Create(fx.reader.get(), q).value();
  IncrementalTopK inc(engine.get(), f);
  std::vector<TopKEntry> drained;
  for (;;) {
    auto next = inc.NextBest().value();
    if (!next.has_value()) break;
    drained.push_back(*next);
  }
  ASSERT_EQ(drained.size(), oracle.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_NEAR(drained[i].score, oracle[i].score, 1e-9) << "rank " << i;
  }
  // Non-decreasing score order.
  for (size_t i = 1; i < drained.size(); ++i) {
    EXPECT_GE(drained[i].score, drained[i - 1].score - 1e-12);
  }
  // Exhausted: stays nullopt.
  EXPECT_FALSE(inc.NextBest().value().has_value());
  EXPECT_FALSE(inc.NextBest().value().has_value());
}

TEST(IncrementalTopKTest, PrefixEqualsKnownKResult) {
  test::SmallConfig config;
  config.num_costs = 3;
  config.seed = 77;
  auto instance = test::MakeSmallInstance(config).value();
  AggregateFn f = WeightedSum(test::TestWeights(3, 99));
  Random rng(123);

  for (int qi = 0; qi < 3; ++qi) {
    Location q = instance->RandomQueryLocation(rng);

    auto inc_engine = CeaEngine::Create(instance->reader.get(), q).value();
    IncrementalTopK inc(inc_engine.get(), f);
    std::vector<TopKEntry> prefix;
    for (int i = 0; i < 8; ++i) {
      auto next = inc.NextBest().value();
      if (!next.has_value()) break;
      prefix.push_back(*next);
    }

    auto k_engine = CeaEngine::Create(instance->reader.get(), q).value();
    TopKOptions opts;
    opts.k = static_cast<int>(prefix.size());
    TopKQuery query(k_engine.get(), f, opts);
    auto known = query.Run().value();

    ASSERT_EQ(known.size(), prefix.size());
    for (size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_NEAR(prefix[i].score, known[i].score, 1e-9)
          << "q=" << q.ToString() << " rank " << i;
    }
  }
}

TEST(IncrementalTopKTest, MatchesOracleOnRandomInstances) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    test::SmallConfig config;
    config.num_costs = 2 + seed % 3;
    config.seed = seed + 400;
    auto instance = test::MakeSmallInstance(config).value();
    AggregateFn f =
        WeightedSum(test::TestWeights(config.num_costs, seed * 11));
    Random rng(seed);
    Location q = instance->RandomQueryLocation(rng);
    auto oracle =
        test::OracleTopK(instance->graph, instance->facilities, q, f, 12);

    auto engine = MemEngine::Create(&instance->graph, &instance->facilities,
                                    q)
                      .value();
    IncrementalTopK inc(engine.get(), f);
    for (size_t i = 0; i < oracle.size(); ++i) {
      auto next = inc.NextBest().value();
      ASSERT_TRUE(next.has_value()) << "rank " << i;
      EXPECT_NEAR(next->score, oracle[i].score, 1e-9) << "rank " << i;
      EXPECT_NEAR(next->score, f(next->costs), 1e-12);
    }
  }
}

TEST(IncrementalTopKTest, ReportedEntriesHaveCompleteVectors) {
  test::DiskFixture fx(test::TinyGraph(),
                       test::TinyFacilities(test::TinyGraph()), 64);
  AggregateFn f = WeightedSum({0.5, 0.5});
  Location q = Location::AtNode(8);
  auto oracle = test::OracleReachableCosts(fx.graph, fx.facilities, q);
  auto engine = CeaEngine::Create(fx.reader.get(), q).value();
  IncrementalTopK inc(engine.get(), f);
  for (;;) {
    auto next = inc.NextBest().value();
    if (!next.has_value()) break;
    auto it = std::find(oracle.ids.begin(), oracle.ids.end(),
                        next->facility);
    ASSERT_NE(it, oracle.ids.end());
    EXPECT_TRUE(next->costs.ApproxEquals(
        oracle.costs[it - oracle.ids.begin()], 1e-9));
  }
}

TEST(IncrementalTopKTest, EmptyFacilitySetYieldsNothing) {
  graph::MultiCostGraph g = test::TinyGraph();
  graph::FacilitySet empty;
  empty.Finalize();
  test::DiskFixture fx(std::move(g), std::move(empty), 64);
  auto engine = CeaEngine::Create(fx.reader.get(), Location::AtNode(0))
                    .value();
  IncrementalTopK inc(engine.get(), WeightedSum({0.5, 0.5}));
  EXPECT_FALSE(inc.NextBest().value().has_value());
}

// A pull that fails ends the stream: the rows the failed batch had already
// passed are gone with it, so every later pull must refuse rather than
// resume past them (the expansion may also hold a node settled without
// its adjacency).
TEST(IncrementalTopKTest, FailedPullLatchesTheStream) {
  test::SmallConfig config;
  config.seed = 5;
  auto instance = test::MakeSmallInstance(config).value();
  Random rng(8);
  const Location q = instance->RandomQueryLocation(rng);
  auto engine = CeaEngine::Create(instance->reader.get(), q).value();
  CancelToken token;
  engine->SetCancelToken(&token);
  IncrementalTopK inc(engine.get(),
                      WeightedSum(test::TestWeights(config.num_costs, 3)));
  int kept = 0;
  auto batch = inc.NextBatch(8, [&](const TopKEntry&) {
    if (++kept == 3) token.Cancel();
    return true;
  });
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(kept, 3);

  // Clearing the token revives the engine, not the stream.
  engine->SetCancelToken(nullptr);
  auto next_batch = inc.NextBatch(8);
  ASSERT_FALSE(next_batch.ok());
  EXPECT_EQ(next_batch.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(next_batch.status().message().find("Cancelled"),
            std::string::npos)
      << next_batch.status().ToString();
  auto next = inc.NextBest();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(inc.NextBatch(0).status().code(),
            StatusCode::kFailedPrecondition);
}

/// One incremental query at `q` on a cold pool, pulling `n` rows: the
/// classic schedule, or (`turns`) the turn schedule inline at
/// parallelism 1.
struct Pulled {
  std::vector<TopKEntry> rows;
  IncrementalTopK::Stats stats;
  uint64_t misses = 0;
  bool exhausted = false;
};

Pulled PullRows(gen::ShardedInstance& instance, const Location& q,
                const AggregateFn& f, bool turns, int n) {
  instance.ResetIoState();
  auto engine = CeaEngine::Create(instance.reader.get(), q).value();
  std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
  QueryOptions exec;
  if (turns) {
    scheduler = std::make_unique<expand::ParallelProbeScheduler>(
        engine.get(), /*pool=*/nullptr, /*striped=*/nullptr);
    exec.parallelism = 1;
    exec.scheduler = scheduler.get();
  }
  IncrementalTopK inc(engine.get(), f, ProbePolicy::kRoundRobin, exec);
  Pulled out;
  out.rows = inc.NextBatch(n).value();
  out.stats = inc.stats();
  out.misses = instance.reader->PoolStats().misses;
  out.exhausted = inc.exhausted();
  return out;
}

/// Summed work and a (facility, score bits) digest of one golden leg.
struct GoldenTotals {
  uint64_t nn_pops = 0;
  uint64_t safety_checks = 0;
  uint64_t reported = 0;
  uint64_t facilities_seen = 0;
  uint64_t misses = 0;
  uint64_t digest = kFnvOffsetBasis;
};

// Pins the report rule's exact work, not just its answers: a safety check
// that turned conservative would report the same rows after more pops.
// The constants were captured with the full candidate rescan per check.
TEST(IncrementalTopKTest, GoldenWorkAtScale002) {
  const gen::ExperimentConfig config = gen::ExperimentConfig().Scaled(0.02);
  struct Golden {
    int shards;
    bool turns;
    int ranks;
    GoldenTotals want;
  };
  const Golden kGolden[] = {
      // clang-format off
      {1, false, 3,  {1050,  140,  12, 512,  4221,  0xc2db336624ba52f3ull}},
      {1, false, 64, {10382, 9563, 256, 3870, 20506, 0x8e1418d7a8a4dee7ull}},
      {1, true,  3,  {1245,  30,   12, 591,  3728,  0xc2db336624ba52f3ull}},
      {1, true,  64, {9594,  882,  256, 3861, 19353, 0x8e1418d7a8a4dee7ull}},
      {4, false, 3,  {1050,  140,  12, 512,  4218,  0xc2db336624ba52f3ull}},
      {4, false, 64, {10382, 9563, 256, 3870, 20465, 0x8e1418d7a8a4dee7ull}},
      {4, true,  3,  {1245,  30,   12, 591,  3721,  0xc2db336624ba52f3ull}},
      {4, true,  64, {9594,  882,  256, 3861, 19313, 0x8e1418d7a8a4dee7ull}},
      // clang-format on
  };
  std::vector<Location> queries;
  std::vector<std::vector<double>> weights;
  std::unique_ptr<gen::ShardedInstance> instances[2];
  instances[0] = gen::BuildShardedInstance(config, 1).value();
  instances[1] = gen::BuildShardedInstance(config, 4).value();
  Random rng(2024);
  for (uint64_t i = 0; i < 4; ++i) {
    queries.push_back(instances[0]->RandomQueryLocation(rng));
    weights.push_back(test::TestWeights(config.num_costs, 90 + i));
  }
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("K=" + std::to_string(g.shards) +
                 (g.turns ? " turns" : " classic") +
                 " ranks=" + std::to_string(g.ranks));
    gen::ShardedInstance& instance = *instances[g.shards == 1 ? 0 : 1];
    GoldenTotals got;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Pulled p = PullRows(instance, queries[qi],
                                WeightedSum(weights[qi]), g.turns, g.ranks);
      for (const TopKEntry& row : p.rows) {
        got.digest = FnvMixU64(got.digest, row.facility);
        got.digest = FnvMixU64(got.digest, DoubleBits(row.score));
      }
      got.nn_pops += p.stats.nn_pops;
      got.safety_checks += p.stats.safety_checks;
      got.reported += p.stats.reported;
      got.facilities_seen += p.stats.facilities_seen;
      got.misses += p.misses;
    }
    EXPECT_EQ(got.nn_pops, g.want.nn_pops);
    EXPECT_EQ(got.safety_checks, g.want.safety_checks);
    EXPECT_EQ(got.reported, g.want.reported);
    EXPECT_EQ(got.facilities_seen, g.want.facilities_seen);
    EXPECT_EQ(got.misses, g.want.misses);
    EXPECT_EQ(got.digest, g.want.digest);
  }
}

/// Pulls every reachable facility (see PullRows).
Pulled DrainAll(gen::ShardedInstance& instance, const Location& q,
                const AggregateFn& f, bool turns) {
  Pulled out = PullRows(instance, q, f, turns, 1 << 30);
  EXPECT_TRUE(out.exhausted);
  return out;
}

// Metamorphic (ROADMAP item 5): doubling every weight is exact in binary
// floating point, so every score and every candidate bound doubles bit
// for bit and every comparison the report rule makes comes out the same —
// identical report order and work, doubled scores.
TEST(IncrementalTopKTest, DoublingWeightsDoublesScoresExactly) {
  const uint64_t seed = test::AnnounceSeed("IncrementalTopK.DoubleWeights");
  for (uint64_t c = 0; c < 3; ++c) {
    test::SmallConfig config;
    config.num_costs = 2 + static_cast<int>(c);
    config.seed = test::DeriveSeed(seed, c);
    auto instance = test::MakeSmallInstance(config).value();
    Random rng(test::DeriveSeed(seed, 10 + c));
    const Location q = instance->RandomQueryLocation(rng);
    std::vector<double> w =
        test::TestWeights(config.num_costs, test::DeriveSeed(seed, 20 + c));
    std::vector<double> w2 = w;
    for (double& x : w2) x *= 2.0;
    for (bool turns : {false, true}) {
      SCOPED_TRACE("d=" + std::to_string(config.num_costs) +
                   (turns ? " turns" : " classic"));
      const Pulled base = DrainAll(*instance, q, WeightedSum(w), turns);
      const Pulled twice = DrainAll(*instance, q, WeightedSum(w2), turns);
      ASSERT_EQ(base.rows.size(), twice.rows.size());
      ASSERT_FALSE(base.rows.empty());
      for (size_t i = 0; i < base.rows.size(); ++i) {
        EXPECT_EQ(base.rows[i].facility, twice.rows[i].facility)
            << "rank " << i;
        EXPECT_EQ(DoubleBits(2.0 * base.rows[i].score),
                  DoubleBits(twice.rows[i].score))
            << "rank " << i;
      }
      EXPECT_EQ(base.stats.nn_pops, twice.stats.nn_pops);
      EXPECT_EQ(base.stats.safety_checks, twice.stats.safety_checks);
      EXPECT_EQ(base.stats.reported, twice.stats.reported);
      EXPECT_EQ(base.stats.facilities_seen, twice.stats.facilities_seen);
    }
  }
}

// Metamorphic (ROADMAP item 5): with the unit weight vector e_i the score
// is cost i alone, so the ranking is expansion i's NN order; the zero
// weights meet exhausted (+inf) frontiers on the way. Runs of equal cost
// may come out in either order and are compared as sets.
TEST(IncrementalTopKTest, UnitWeightsReportSingleCriterionNnOrder) {
  const uint64_t seed = test::AnnounceSeed("IncrementalTopK.UnitWeights");
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
      std::vector<std::pair<double, std::set<graph::FacilityId>>> nn_runs;
      for (;;) {
        auto nn = nn_engine->NextNN(i).value();
        if (!nn.has_value()) break;
        if (nn_runs.empty() || nn_runs.back().first != nn->cost) {
          nn_runs.push_back({nn->cost, {}});
        }
        nn_runs.back().second.insert(nn->facility);
      }
      ASSERT_FALSE(nn_runs.empty());
      std::vector<double> unit(config.num_costs, 0.0);
      unit[i] = 1.0;
      for (bool turns : {false, true}) {
        SCOPED_TRACE("q=" + q.ToString() + " i=" + std::to_string(i) +
                     (turns ? " turns" : " classic"));
        const Pulled drain = DrainAll(*instance, q, WeightedSum(unit), turns);
        std::vector<std::pair<double, std::set<graph::FacilityId>>> runs;
        for (const TopKEntry& row : drain.rows) {
          if (runs.empty() || runs.back().first != row.score) {
            runs.push_back({row.score, {}});
          }
          runs.back().second.insert(row.facility);
        }
        EXPECT_EQ(runs, nn_runs);
      }
    }
  }
}

}  // namespace
}  // namespace mcn::algo
