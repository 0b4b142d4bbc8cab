// exec::QueryService across shard counts (DESIGN.md §8): one work queue
// over a shard::ShardedStorage, per-shard service statistics booked on
// each request's home tile (one-shot queries and session batches alike)
// whatever the worker count, a one-tile burst spreading over several
// workers, an over-asking session draining a whole component, and the
// determinism contract — result hashes are byte-identical
// to a single-worker K = 1 service for every K in {1, 2, 4}, every worker
// count, and every intra-query parallelism level. Runs under TSan in CI
// (label: stress).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mcn/exec/affinity.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

namespace mn = metric_names;

gen::ExperimentConfig SmallServiceConfig(uint64_t seed) {
  gen::ExperimentConfig config;
  config.nodes = 400;
  config.edges = 520;
  config.facilities = 60;
  config.clusters = 4;
  config.num_costs = 3;
  config.buffer_pct = 1.0;
  config.seed = seed;
  return config;
}

std::vector<api::QuerySpec> MixedWorkload(
    const gen::ShardedInstance& instance, uint64_t seed, int count) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<api::QuerySpec> requests;
  requests.reserve(count);
  for (int i = 0; i < count; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    api::QuerySpec request;
    switch (i % 3) {
      case 0:
        request = api::SkylineSpec(loc);
        break;
      case 1:
        request = api::TopKSpec(loc, 4, test::TestWeights(d, seed + i));
        break;
      case 2:
        request =
            api::IncrementalSpec(loc, 3, test::TestWeights(d, seed + i));
        break;
    }
    request.parallelism = i % 4 == 3 ? 2 : 0;  // mix in pooled turns
    requests.push_back(request);
  }
  return requests;
}

struct RunOutcome {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> misses;
  std::vector<int> shards;   ///< home shard per query
  std::vector<int> workers;  ///< executing worker per query
  obs::Snapshot snapshot;
};

RunOutcome RunThrough(QueryService& service,
                      const std::vector<api::QuerySpec>& requests) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(requests.size());
  for (const api::QuerySpec& request : requests) {
    futures.push_back(service.Submit(request));
  }
  RunOutcome outcome;
  for (auto& future : futures) {
    QueryResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    outcome.hashes.push_back(result.result_hash);
    outcome.misses.push_back(result.stats.buffer_misses);
    outcome.shards.push_back(result.stats.shard);
    outcome.workers.push_back(result.stats.worker);
  }
  outcome.snapshot = service.MetricsSnapshot();
  return outcome;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = test::AnnounceSeed("sharded_service_test");
  }
  uint64_t seed_ = 0;
};

// Result hashes are invariant in K, worker count, and pinning; per-query
// miss counts are invariant in worker count at fixed K.
TEST_F(ShardedServiceTest, DeterministicAcrossShardAndWorkerCounts) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto reference = gen::BuildShardedInstance(config, 1).value();

  // Single-worker K = 1 reference.
  const std::vector<api::QuerySpec> requests =
      MixedWorkload(*reference, test::DeriveSeed(seed_, 1), 24);
  std::vector<uint64_t> reference_hashes;
  {
    ServiceOptions opts;
    opts.num_workers = 1;
    opts.pool_frames_per_worker = reference->pool_frames;
    opts.per_query_parallelism = 2;
    auto service = QueryService::Create(&reference->storage,
                                        reference->files, opts)
                       .value();
    reference_hashes = RunThrough(*service, requests).hashes;
    service->Shutdown();
  }

  for (int k : {1, 2, 4}) {
    auto instance = gen::BuildShardedInstance(config, k).value();
    if (k == 1) {
      ASSERT_EQ(instance->pool_frames, reference->pool_frames);
    }
    std::optional<std::vector<uint64_t>> miss_baseline;
    for (int workers : {1, 4}) {
      for (bool pin : {false, true}) {
        ServiceOptions opts;
        opts.num_workers = workers;
        opts.pool_frames_per_worker = instance->pool_frames;
        opts.per_query_parallelism = 2;
        opts.pin_workers = pin;
        auto service = QueryService::Create(&instance->storage,
                                            instance->files, opts)
                           .value();
        RunOutcome outcome = RunThrough(*service, requests);
        service->Shutdown();

        for (size_t i = 0; i < requests.size(); ++i) {
          EXPECT_EQ(outcome.hashes[i], reference_hashes[i])
              << "K=" << k << " workers=" << workers << " query " << i;
        }
        // Same-K miss counts must not depend on worker count or pinning
        // (each worker's pool set has identical capacity).
        if (!miss_baseline.has_value()) {
          miss_baseline = outcome.misses;
        } else {
          EXPECT_EQ(*miss_baseline, outcome.misses)
              << "K=" << k << " workers=" << workers << " pin=" << pin;
        }
      }
    }
  }
}

shard::ShardId TileOf(const shard::Partition& part,
                      const graph::Location& loc) {
  return loc.is_node() ? part.of_node(loc.node()) : part.of_edge(loc.edge());
}

// Every request is booked on the tile of its location, whichever worker
// runs it — also with fewer workers than shards.
TEST_F(ShardedServiceTest, PerShardStatsFollowTheQueryTile) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  const int k = 4;
  auto instance = gen::BuildShardedInstance(config, k).value();
  const auto requests =
      MixedWorkload(*instance, test::DeriveSeed(seed_, 2), 32);
  const shard::Partition& part = instance->storage.partition();
  std::vector<uint64_t> homed(k, 0);
  for (const api::QuerySpec& request : requests) {
    ++homed[TileOf(part, request.location)];
  }

  for (int workers : {4, 2}) {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.pool_frames_per_worker = instance->pool_frames;
    opts.per_query_parallelism = 2;
    auto service =
        QueryService::Create(&instance->storage, instance->files, opts)
            .value();
    RunOutcome outcome = RunThrough(*service, requests);
    service->Shutdown();

    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(outcome.shards[i],
                static_cast<int>(TileOf(part, requests[i].location)))
          << "workers=" << workers << " query " << i;
    }

    // Per-shard rows: completions match the requests homed on each tile,
    // and expansions escaping their tile show up as remote fetches.
    const obs::Snapshot& snap = outcome.snapshot;
    ASSERT_EQ(snap.GaugeValue(mn::kNumShards), static_cast<double>(k));
    uint64_t completed = 0, local = 0, remote = 0;
    for (int s = 0; s < k; ++s) {
      const uint64_t done = snap.CounterValue(mn::Shard(s, "completed"));
      const uint64_t row_local =
          snap.CounterValue(mn::Shard(s, "local_fetches"));
      const uint64_t row_remote =
          snap.CounterValue(mn::Shard(s, "remote_fetches"));
      EXPECT_EQ(done, homed[s]) << "workers=" << workers << " shard " << s;
      completed += done;
      local += row_local;
      remote += row_remote;
      EXPECT_GE(shard::RemoteRatio(row_local, row_remote), 0.0);
      EXPECT_LE(shard::RemoteRatio(row_local, row_remote), 1.0);
    }
    EXPECT_EQ(completed, snap.CounterValue(mn::kCompleted));
    EXPECT_EQ(completed, requests.size());
    EXPECT_GT(local, 0u);
    EXPECT_GT(remote, 0u) << "d-expansions over 4 tiles must cross a cut";
  }
}

// Requests that all start in one tile are not queued behind one worker:
// with their I/O stalls slept, a burst of them overlaps on several
// workers, and their results match a single-worker run.
TEST_F(ShardedServiceTest, OneTileBurstUsesSeveralWorkers) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto instance = gen::BuildShardedInstance(config, 4).value();
  const shard::Partition& part = instance->storage.partition();
  const int d = instance->graph.num_costs();
  Random rng(test::DeriveSeed(seed_, 8));
  std::vector<api::QuerySpec> requests;
  while (requests.size() < 16) {
    const graph::Location loc = instance->RandomQueryLocation(rng);
    if (TileOf(part, loc) != 0) continue;
    const uint64_t weight_seed = test::DeriveSeed(seed_, 9 + requests.size());
    requests.push_back(requests.size() % 2 == 0
                           ? api::SkylineSpec(loc)
                           : api::TopKSpec(loc, 4, test::TestWeights(
                                                       d, weight_seed)));
  }

  auto run = [&](int workers) {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.pool_frames_per_worker = instance->pool_frames;
    opts.simulate_io_stalls = true;
    opts.io_latency_ms = 0.05;
    auto service =
        QueryService::Create(&instance->storage, instance->files, opts)
            .value();
    RunOutcome outcome = RunThrough(*service, requests);
    service->Shutdown();
    return outcome;
  };
  const RunOutcome reference = run(1);
  const RunOutcome burst = run(4);
  EXPECT_EQ(burst.hashes, reference.hashes);
  const std::set<int> workers(burst.workers.begin(), burst.workers.end());
  EXPECT_GE(workers.size(), 2u)
      << "16 queries in tile 0 ran on one worker of four";
  for (int shard : burst.shards) EXPECT_EQ(shard, 0);
}

/// Shard `shard`'s routed fetches, local plus remote.
uint64_t RoutedFetches(const obs::Snapshot& snap, int shard) {
  return snap.CounterValue(mn::Shard(shard, "local_fetches")) +
         snap.CounterValue(mn::Shard(shard, "remote_fetches"));
}

uint64_t RoutedFetches(const obs::Snapshot& snap) {
  uint64_t total = 0;
  const int num_shards = static_cast<int>(snap.GaugeValue(mn::kNumShards));
  for (int shard = 0; shard < num_shards; ++shard) {
    total += RoutedFetches(snap, shard);
  }
  return total;
}

// Session batches read through the session's own reader set, not a
// worker's: their routed fetches must still reach the per-shard
// local/remote counters, on the session's home shard, batch by batch.
TEST_F(ShardedServiceTest, SessionBatchesCountRoutedFetches) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  const int k = 4;
  auto instance = gen::BuildShardedInstance(config, k).value();
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  const shard::Partition& part = instance->storage.partition();
  const int d = instance->graph.num_costs();
  Random rng(test::DeriveSeed(seed_, 5));
  int batches_with_io = 0;
  for (int s = 0; s < 8; ++s) {
    const graph::Location loc = instance->RandomQueryLocation(rng);
    const shard::ShardId home = TileOf(part, loc);
    const SessionId id =
        service
            ->OpenSession(api::IncrementalSpec(
                loc, 4, test::TestWeights(d, test::DeriveSeed(seed_, s))))
            .value();
    for (int batch = 0; batch < 3; ++batch) {
      const obs::Snapshot before = service->MetricsSnapshot();
      QueryResult result = service->SessionNext(id, 4).get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      const obs::Snapshot after = service->MetricsSnapshot();
      EXPECT_EQ(after.CounterValue(mn::kSessionBatches),
                before.CounterValue(mn::kSessionBatches) + 1);
      // Every record the batch read went through a routed fetch (each of
      // which touches the pool), so the counters rise exactly when the
      // batch did any I/O — and only on the session's home shard.
      if (result.stats.buffer_accesses == 0) {
        EXPECT_EQ(RoutedFetches(after), RoutedFetches(before));
        continue;
      }
      ++batches_with_io;
      EXPECT_GT(RoutedFetches(after), RoutedFetches(before))
          << "session " << s << " batch " << batch;
      for (int shard = 0; shard < k; ++shard) {
        const uint64_t delta =
            RoutedFetches(after, shard) - RoutedFetches(before, shard);
        if (shard == static_cast<int>(home)) {
          EXPECT_GT(delta, 0u) << "session " << s << " batch " << batch;
        } else {
          EXPECT_EQ(delta, 0u) << "session " << s << " batch " << batch;
        }
      }
    }
    ASSERT_TRUE(service->CloseSession(id).ok());
  }
  // The first batch of a session always reads (engine seeding).
  EXPECT_GE(batches_with_io, 8);
  service->Shutdown();
}

TEST_F(ShardedServiceTest, SingleShardHasNoRemoteFetches) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto instance = gen::BuildShardedInstance(config, 1).value();
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  RunOutcome outcome = RunThrough(
      *service, MixedWorkload(*instance, test::DeriveSeed(seed_, 3), 12));
  service->Shutdown();
  const obs::Snapshot& snap = outcome.snapshot;
  ASSERT_EQ(snap.GaugeValue(mn::kNumShards), 1.0);
  EXPECT_EQ(snap.CounterValue(mn::Shard(0, "remote_fetches")), 0u);
  EXPECT_GT(snap.CounterValue(mn::Shard(0, "local_fetches")), 0u);
}

TEST_F(ShardedServiceTest, DrainAndShutdownAcrossShards) {
  const gen::ExperimentConfig config = SmallServiceConfig(seed_);
  auto instance = gen::BuildShardedInstance(config, 2).value();
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  const auto requests =
      MixedWorkload(*instance, test::DeriveSeed(seed_, 4), 16);
  std::vector<std::future<QueryResult>> futures;
  for (const api::QuerySpec& request : requests) {
    futures.push_back(service->Submit(request));
  }
  service->Drain();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  service->Shutdown();
  // Submitting after shutdown resolves immediately with an error.
  auto rejected = service->Submit(requests[0]);
  EXPECT_FALSE(rejected.get().status.ok());
}

// The session contract lets a client over-ask (the wire accepts n up to
// INT32_MAX): one such batch streams every reachable facility in rank
// order, reports the stream exhausted, and later batches are empty.
TEST_F(ShardedServiceTest, OverAskingSessionDrainsTheComponent) {
  const gen::ExperimentConfig config = gen::ExperimentConfig().Scaled(0.02);
  auto instance = gen::BuildShardedInstance(config, 4).value();
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts)
          .value();
  Random rng(test::DeriveSeed(seed_, 6));
  const graph::Location loc = instance->RandomQueryLocation(rng);
  const std::vector<double> weights =
      test::TestWeights(config.num_costs, test::DeriveSeed(seed_, 7));
  const std::vector<algo::TopKEntry> oracle =
      test::OracleTopK(instance->graph, instance->facilities, loc,
                       algo::WeightedSum(weights), INT32_MAX);
  ASSERT_FALSE(oracle.empty());

  const SessionId id =
      service->OpenSession(api::IncrementalSpec(loc, 4, weights)).value();
  QueryResult all = service->SessionNext(id, INT32_MAX).get();
  ASSERT_TRUE(all.status.ok()) << all.status.ToString();
  EXPECT_TRUE(all.exhausted);
  ASSERT_EQ(all.topk.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(all.topk[i].facility, oracle[i].facility) << "rank " << i;
    EXPECT_NEAR(all.topk[i].score, oracle[i].score, 1e-9) << "rank " << i;
  }

  QueryResult after = service->SessionNext(id, INT32_MAX).get();
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_TRUE(after.topk.empty());
  EXPECT_TRUE(after.exhausted);
  ASSERT_TRUE(service->CloseSession(id).ok());
  service->Shutdown();
}

}  // namespace
}  // namespace mcn::exec
