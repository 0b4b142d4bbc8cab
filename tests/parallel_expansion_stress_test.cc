// ThreadSanitizer stress suite for intra-query parallel d-expansion
// (DESIGN.md §7): oversubscribed probe workers, 1-frame-per-slot buffer
// pools, and raw thread gangs hammering one StripedCachedFetch — the
// configurations most likely to expose a missing happens-before edge in
// the stripe / single-flight / turn-barrier machinery. Runs in the CI
// TSan job (ctest label `stress`).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/common/random.h"
#include "mcn/exec/expansion_executor.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/expand/striped_fetch.h"
#include "test_util.h"

namespace mcn::expand {
namespace {

constexpr int kHammerThreads = 8;

struct StressRig {
  explicit StressRig(const test::SmallConfig& config, size_t frames,
                     int slots)
      : instance(test::MakeSmallInstance(config).value()) {
    instance->storage.BeginConcurrentReads();
    for (int s = 0; s < slots; ++s) {
      readers.push_back(std::make_unique<shard::ShardedNetworkReader>(
          &instance->storage, instance->files, std::vector<size_t>{frames}));
      reader_ptrs.push_back(readers.back().get());
    }
  }
  ~StressRig() { instance->storage.EndConcurrentReads(); }

  std::unique_ptr<gen::ShardedInstance> instance;
  std::vector<std::unique_ptr<shard::ShardedNetworkReader>> readers;
  std::vector<const net::NetworkReader*> reader_ptrs;
};

// Raw thread gang, every thread fetching a random walk of adjacency +
// facility records through one shared cache over 1-frame pools. Contents
// must match a private serial reader; afterwards every physical fetch
// must correspond to exactly one cached record (fetched at most once).
TEST(ParallelExpansionStressTest, StripedFetchHammer) {
  const uint64_t seed = test::AnnounceSeed("parallel_expansion_stress_test");
  test::SmallConfig config;
  config.num_costs = 4;
  config.seed = test::DeriveSeed(seed, 1);
  StressRig rig(config, /*frames=*/1, /*slots=*/kHammerThreads + 1);

  StripedCachedFetch fetch(rig.reader_ptrs);
  const uint32_t n = fetch.num_nodes();

  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      StripedCachedFetch::BindWorkerSlot(t + 1);
      Random rng(test::DeriveSeed(seed, 1000 + t));
      for (int iter = 0; iter < 400; ++iter) {
        graph::NodeId v = static_cast<graph::NodeId>(rng.Uniform(n));
        auto adj = fetch.GetAdjacency(v);
        if (!adj.ok()) {
          errors.fetch_add(1);
          continue;
        }
        for (const net::AdjEntry& e : adj.value()) {
          if (e.fac.empty()) continue;
          auto facs = fetch.GetFacilities(graph::EdgeKey(v, e.neighbor),
                                          e.fac);
          if (!facs.ok()) errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);

  // Contents: every cached adjacency row equals a fresh serial read.
  StripedCachedFetch::BindWorkerSlot(0);
  Random rng(test::DeriveSeed(seed, 2));
  std::vector<net::AdjEntry> expected;
  for (int check = 0; check < 200; ++check) {
    graph::NodeId v = static_cast<graph::NodeId>(rng.Uniform(n));
    auto adj = fetch.GetAdjacency(v);
    ASSERT_TRUE(adj.ok());
    ASSERT_TRUE(rig.readers[0]->GetAdjacency(v, &expected).ok());
    ASSERT_EQ(adj.value().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const net::AdjEntry& got = adj.value()[i];
      EXPECT_EQ(got.neighbor, expected[i].neighbor);
      EXPECT_EQ(got.fac.count, expected[i].fac.count);
      for (int j = 0; j < config.num_costs; ++j) {
        EXPECT_EQ(got.w[j], expected[i].w[j]);
      }
    }
  }

  // §IV-B accounting under contention: at most one physical fetch per
  // record, despite kHammerThreads racing for the same stripes.
  const FetchProvider::Stats& stats = fetch.stats();
  EXPECT_EQ(stats.adjacency_fetches, fetch.cached_nodes());
  EXPECT_EQ(stats.facility_fetches, fetch.cached_edges());
  EXPECT_LE(stats.adjacency_fetches, stats.adjacency_requests);
}

// All threads demand the same record at once: the single-flight guard must
// collapse the stampede into one physical fetch, and every waiter must see
// the same published row.
TEST(ParallelExpansionStressTest, SingleFlightCollapsesStampede) {
  const uint64_t seed = test::AnnounceSeed("parallel_expansion_stress_test");
  test::SmallConfig config;
  config.seed = test::DeriveSeed(seed, 3);
  StressRig rig(config, /*frames=*/1, /*slots=*/kHammerThreads + 1);

  for (graph::NodeId v : {0u, 17u, 123u}) {
    StripedCachedFetch fetch(rig.reader_ptrs);
    std::atomic<int> ready{0};
    std::vector<std::optional<std::span<const net::AdjEntry>>> rows(
        kHammerThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kHammerThreads; ++t) {
      threads.emplace_back([&, t] {
        StripedCachedFetch::BindWorkerSlot(t + 1);
        ready.fetch_add(1);
        while (ready.load() < kHammerThreads) std::this_thread::yield();
        auto adj = fetch.GetAdjacency(v);
        if (adj.ok()) rows[t] = adj.value();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < kHammerThreads; ++t) {
      ASSERT_TRUE(rows[t].has_value());
      // one published row, stable address
      EXPECT_EQ(rows[t]->data(), rows[0]->data());
      EXPECT_EQ(rows[t]->size(), rows[0]->size());
    }
    EXPECT_EQ(fetch.stats().adjacency_fetches, 1u);
    EXPECT_EQ(fetch.stats().adjacency_requests,
              static_cast<uint64_t>(kHammerThreads));
    // Waits are counted once per waiting probe: at most every thread but
    // the fetcher (fewer when late arrivals find the row published).
    EXPECT_LE(fetch.concurrency_stats().single_flight_waits,
              static_cast<uint64_t>(kHammerThreads - 1));
  }
}

// Full queries under an oversubscribed probe pool (8 workers for d = 4
// expansions) with 1-frame-per-slot pools: concurrent turns hammer one
// StripedCachedFetch per query, and every parallelism level must still
// produce the inline schedule's exact result hash.
TEST(ParallelExpansionStressTest, OversubscribedTurnsStayDeterministic) {
  const uint64_t seed = test::AnnounceSeed("parallel_expansion_stress_test");
  test::SmallConfig config;
  config.num_costs = 4;
  config.seed = test::DeriveSeed(seed, 4);
  auto instance = test::MakeSmallInstance(config).value();

  auto inline_exec = exec::ExpansionExecutor::Create(
                         &instance->storage, instance->files,
                         /*parallelism=*/1, /*pool_frames_per_slot=*/1)
                         .value();
  auto wide_exec = exec::ExpansionExecutor::Create(
                       &instance->storage, instance->files,
                       /*parallelism=*/2 * config.num_costs,
                       /*pool_frames_per_slot=*/1)
                       .value();

  Random rng(test::DeriveSeed(seed, 5));
  for (int qi = 0; qi < 6; ++qi) {
    graph::Location q = instance->RandomQueryLocation(rng);
    algo::AggregateFn f = algo::WeightedSum(
        test::TestWeights(config.num_costs, test::DeriveSeed(seed, 50 + qi)));

    auto run = [&](exec::ExpansionExecutor& executor,
                   int parallelism) -> std::pair<uint64_t, uint64_t> {
      executor.ResetIoState();
      auto rig = executor.NewQuery(q).value();
      algo::QueryOptions exec_opts;
      exec_opts.parallelism = parallelism;
      exec_opts.scheduler = rig.scheduler.get();

      algo::SkylineOptions sky;
      sky.exec = exec_opts;
      algo::SkylineQuery sky_query(rig.engine.get(), sky);
      uint64_t sky_hash = algo::HashResult(sky_query.ComputeAll().value());
      // Scheduler accounting: turns ran, and no turn was ever wider than
      // the number of expansions.
      const expand::ParallelProbeScheduler::Stats& ss =
          rig.scheduler->stats();
      EXPECT_GT(ss.turns, 0u);
      EXPECT_GE(ss.probes, ss.turns);
      EXPECT_LE(ss.max_width, static_cast<uint64_t>(config.num_costs));
      if (parallelism > 1) EXPECT_GT(ss.pooled_probes, 0u);

      auto rig2 = executor.NewQuery(q).value();
      exec_opts.scheduler = rig2.scheduler.get();
      algo::TopKOptions topk;
      topk.k = 4;
      topk.exec = exec_opts;
      algo::TopKQuery topk_query(rig2.engine.get(), f, topk);
      uint64_t topk_hash = algo::HashResult(topk_query.Run().value());
      return {sky_hash, topk_hash};
    };

    // Repeat the oversubscribed run: scheduling jitter across repetitions
    // must never leak into the results.
    auto expected = run(*inline_exec, 1);
    for (int rep = 0; rep < 3; ++rep) {
      auto got = run(*wide_exec, 2 * config.num_costs);
      EXPECT_EQ(got.first, expected.first) << "skyline, rep " << rep;
      EXPECT_EQ(got.second, expected.second) << "topk, rep " << rep;
    }
  }
}

}  // namespace
}  // namespace mcn::expand
