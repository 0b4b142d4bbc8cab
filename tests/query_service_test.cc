// QueryService end-to-end tests: determinism across worker counts (result
// hashes AND per-query buffer-miss counts), parity with direct
// single-threaded execution, shutdown/drain semantics (inline requests
// included), oversubscription, and the storage layer's concurrent-read
// contract.
#include "mcn/exec/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/common/random.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

namespace mn = metric_names;

struct ServiceFixture {
  std::unique_ptr<gen::ShardedInstance> instance;
  size_t frames = 0;

  explicit ServiceFixture(uint64_t seed = 11) {
    test::SmallConfig config;
    config.seed = seed;
    auto built = test::MakeSmallInstance(config);
    EXPECT_TRUE(built.ok());
    instance = std::move(built).value();
    frames = instance->pool_frames;
  }

  ServiceOptions Options(int workers) const {
    ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 64;
    opts.pool_frames_per_worker = frames;
    return opts;
  }

  /// A deterministic mixed workload (same for every service under test).
  std::vector<api::QuerySpec> MixedWorkload(int n) const {
    std::vector<api::QuerySpec> requests;
    Random rng(1234);
    int d = instance->graph.num_costs();
    for (int i = 0; i < n; ++i) {
      const graph::Location loc = instance->RandomQueryLocation(rng);
      api::QuerySpec req;
      switch (i % 3) {
        case 0:
          req = api::SkylineSpec(loc);
          break;
        case 1:
          req = api::TopKSpec(loc, 3, test::TestWeights(d, 99 + i));
          break;
        case 2:
          req = api::IncrementalSpec(loc, 5, test::TestWeights(d, 7 + i));
          break;
      }
      req.engine = (i % 2 == 0) ? expand::EngineKind::kCea
                                : expand::EngineKind::kLsa;
      requests.push_back(std::move(req));
    }
    return requests;
  }
};

struct RunRecord {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> misses;
  std::vector<size_t> result_sizes;
};

RunRecord RunThrough(QueryService& service,
                     const std::vector<api::QuerySpec>& requests) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(requests.size());
  for (const api::QuerySpec& req : requests) {
    futures.push_back(service.Submit(req));
  }
  RunRecord record;
  for (auto& future : futures) {
    QueryResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    record.hashes.push_back(result.result_hash);
    record.misses.push_back(result.stats.buffer_misses);
    record.result_sizes.push_back(result.kind == QueryKind::kSkyline
                                      ? result.skyline.size()
                                      : result.topk.size());
  }
  return record;
}

TEST(QueryServiceTest, DeterministicAcrossWorkerCounts) {
  ServiceFixture fx;
  auto requests = fx.MixedWorkload(30);

  auto s1 = QueryService::Create(&fx.instance->storage, fx.instance->files,
                                 fx.Options(1));
  ASSERT_TRUE(s1.ok());
  RunRecord r1 = RunThrough(**s1, requests);
  (*s1)->Shutdown();

  auto s8 = QueryService::Create(&fx.instance->storage, fx.instance->files,
                                 fx.Options(8));
  ASSERT_TRUE(s8.ok());
  RunRecord r8 = RunThrough(**s8, requests);
  (*s8)->Shutdown();

  // Same workload, 1 vs 8 workers: identical result hashes AND identical
  // per-query buffer-miss counts (cold cache per query).
  EXPECT_EQ(r1.hashes, r8.hashes);
  EXPECT_EQ(r1.misses, r8.misses);
  EXPECT_EQ(r1.result_sizes, r8.result_sizes);
}

TEST(QueryServiceTest, MatchesDirectSingleThreadedExecution) {
  ServiceFixture fx;
  auto requests = fx.MixedWorkload(18);

  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(4));
  ASSERT_TRUE(service.ok());
  RunRecord concurrent = RunThrough(**service, requests);
  (*service)->Shutdown();

  // Reference: the same requests executed inline on the instance's own
  // pool/reader, exactly like the paper's single-query experiments.
  for (size_t i = 0; i < requests.size(); ++i) {
    const api::QuerySpec& req = requests[i];
    fx.instance->ResetIoState();
    auto engine = expand::MakeEngine(req.engine, fx.instance->reader.get(),
                                     req.location);
    ASSERT_TRUE(engine.ok());
    uint64_t hash = 0;
    switch (req.kind) {
      case QueryKind::kSkyline: {
        algo::SkylineQuery query(engine.value().get());
        auto rows = query.ComputeAll();
        ASSERT_TRUE(rows.ok());
        hash = algo::HashResult(rows.value());
        break;
      }
      case QueryKind::kTopK: {
        algo::TopKOptions opts;
        opts.k = req.k;
        algo::TopKQuery query(engine.value().get(),
                              algo::WeightedSum(req.preference.weights),
                              opts);
        auto rows = query.Run();
        ASSERT_TRUE(rows.ok());
        hash = algo::HashResult(rows.value());
        break;
      }
      case QueryKind::kIncrementalTopK: {
        algo::IncrementalTopK query(
            engine.value().get(), algo::WeightedSum(req.preference.weights));
        std::vector<algo::TopKEntry> rows;
        for (int j = 0; j < req.k; ++j) {
          auto next = query.NextBest();
          ASSERT_TRUE(next.ok());
          if (!next.value().has_value()) break;
          rows.push_back(*next.value());
        }
        hash = algo::HashResult(rows);
        break;
      }
    }
    EXPECT_EQ(concurrent.hashes[i], hash) << "request " << i;
    EXPECT_EQ(concurrent.misses[i], fx.instance->reader->PoolStats().misses)
        << "request " << i;
  }
}

TEST(QueryServiceTest, OversubscriptionManyMoreQueriesThanWorkers) {
  ServiceFixture fx;
  // Queue capacity 8 with 2 workers and 60 queries: Submit applies
  // back-pressure; everything still completes exactly once.
  ServiceOptions opts = fx.Options(2);
  opts.queue_capacity = 8;
  auto service =
      QueryService::Create(&fx.instance->storage, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto requests = fx.MixedWorkload(60);
  RunRecord record = RunThrough(**service, requests);
  EXPECT_EQ(record.hashes.size(), 60u);
  const obs::Snapshot snap = (*service)->MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue(mn::kCompleted), 60u);
  EXPECT_EQ(snap.CounterValue(mn::kFailed), 0u);
  EXPECT_GT(snap.GaugeValue(mn::kWallSeconds), 0.0);
  const obs::HistogramSnapshot* latency_us = snap.FindHistogram(mn::kLatencyUs);
  ASSERT_NE(latency_us, nullptr);
  EXPECT_EQ(latency_us->count, 60u);
  EXPECT_GT(latency_us->ValueAtQuantile(0.50), 0.0);
  EXPECT_LE(latency_us->ValueAtQuantile(0.50),
            latency_us->ValueAtQuantile(0.95));
  EXPECT_LE(latency_us->ValueAtQuantile(0.95),
            latency_us->ValueAtQuantile(0.99));
  (*service)->Shutdown();
}

TEST(QueryServiceTest, DrainCompletesBacklogAndShutdownRejects) {
  ServiceFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  auto requests = fx.MixedWorkload(20);
  std::vector<std::future<QueryResult>> futures;
  for (const auto& req : requests) futures.push_back((*service)->Submit(req));
  (*service)->Drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().status.ok());
  }
  (*service)->Shutdown(/*drain=*/true);
  // Submitting after shutdown resolves immediately with an error.
  auto rejected = (*service)->Submit(requests[0]);
  QueryResult result = rejected.get();
  EXPECT_FALSE(result.status.ok());
  // Shutdown is idempotent.
  (*service)->Shutdown();
}

TEST(QueryServiceTest, NonDrainingShutdownResolvesBacklogWithErrors) {
  ServiceFixture fx;
  ServiceOptions opts = fx.Options(1);
  opts.queue_capacity = 64;
  auto service =
      QueryService::Create(&fx.instance->storage, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto requests = fx.MixedWorkload(40);
  std::vector<std::future<QueryResult>> futures;
  for (const auto& req : requests) futures.push_back((*service)->Submit(req));
  (*service)->Shutdown(/*drain=*/false);
  int completed = 0, dropped = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();  // must never hang or throw
    (result.status.ok() ? completed : dropped) += 1;
  }
  EXPECT_EQ(completed + dropped, 40);
}

TEST(QueryServiceTest, ShutdownWaitsOutInlineRequestsThenRefusesThem) {
  // An inline request runs on its caller's thread, outside the pool that
  // Shutdown joins. Shutdown must still wait for it before the storage
  // thaws, and afterwards the synchronous entries fail like Submit.
  ServiceFixture fx;
  ServiceOptions opts = fx.Options(1);
  opts.io_latency_ms = 0.5;
  opts.simulate_io_stalls = true;  // the inline request sleeps its stall
  auto service =
      QueryService::Create(&fx.instance->storage, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  const auto requests = fx.MixedWorkload(2);
  QueryResult ran;
  std::thread caller([&] { ran = (*service)->SubmitAndWait(requests[0]); });
  // The inline counter ticks once the caller holds the slot.
  while ((*service)->MetricsSnapshot().CounterValue(mn::kInline) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*service)->Shutdown();
  // Execute books the request before it releases the slot.
  EXPECT_EQ((*service)->MetricsSnapshot().CounterValue(mn::kCompleted), 1u)
      << "Shutdown returned while an inline request was still executing";
  caller.join();
  ASSERT_TRUE(ran.status.ok()) << ran.status.ToString();
  ASSERT_GE(ran.stats.stall_seconds, 0.02)
      << "the inline request must outlast the pool's shutdown";
  EXPECT_EQ((*service)->pool_executed(), 0u);

  const QueryResult refused = (*service)->SubmitAndWait(requests[1]);
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition)
      << refused.status.ToString();
}

TEST(QueryServiceTest, InvalidRequestsFailCleanlyWithoutPoisoningWorkers) {
  ServiceFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  Random rng(5);

  // Wrong weight dimension.
  api::QuerySpec bad_weights =
      api::TopKSpec(fx.instance->RandomQueryLocation(rng), 4, {1.0});
  QueryResult bad = (*service)->Submit(bad_weights).get();
  EXPECT_FALSE(bad.status.ok());

  api::QuerySpec bad_k = api::IncrementalSpec(
      fx.instance->RandomQueryLocation(rng), /*first_batch=*/0,
      test::TestWeights(fx.instance->graph.num_costs(), 3));
  EXPECT_FALSE((*service)->Submit(bad_k).get().status.ok());

  // The worker that executed the failures still serves good queries.
  auto good = fx.MixedWorkload(6);
  RunRecord record = RunThrough(**service, good);
  EXPECT_EQ(record.hashes.size(), 6u);
  const obs::Snapshot snap = (*service)->MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue(mn::kFailed), 2u);
  EXPECT_EQ(snap.CounterValue(mn::kCompleted), 6u);
}

TEST(QueryServiceTest, DiskIsFrozenWhileServiceLives) {
  ServiceFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(1));
  ASSERT_TRUE(service.ok());
  const storage::DiskManager& disk = *fx.instance->storage.disk(0);
  EXPECT_EQ(disk.concurrent_reader_scopes(), 1);
  (*service)->Shutdown();
  EXPECT_EQ(disk.concurrent_reader_scopes(), 0);
}

TEST(QueryServiceTest, IntraQueryParallelismKeepsHashesIdentical) {
  // QuerySpec::parallelism routes a query onto the worker's turn-barrier
  // rig (DESIGN.md §7). The turn schedule must be byte-identical whether it
  // runs inline (parallelism 1) or on probe workers (parallelism 4), for
  // every query kind; the width-1 schedule (parallelism 0) must agree on
  // the result sets, checked here via skyline sizes and top-k hashes.
  ServiceFixture fx;
  std::vector<api::QuerySpec> base = fx.MixedWorkload(12);
  for (api::QuerySpec& req : base) req.engine = expand::EngineKind::kCea;

  auto run_with_parallelism = [&](int parallelism) {
    ServiceOptions opts = fx.Options(2);
    opts.per_query_parallelism = 4;
    auto service = QueryService::Create(&fx.instance->storage,
                                        fx.instance->files, opts);
    EXPECT_TRUE(service.ok());
    std::vector<api::QuerySpec> requests = base;
    for (api::QuerySpec& req : requests) req.parallelism = parallelism;
    RunRecord record = RunThrough(**service, requests);
    (*service)->Shutdown();
    return record;
  };

  RunRecord inline_turns = run_with_parallelism(1);
  RunRecord pooled_turns = run_with_parallelism(4);
  EXPECT_EQ(inline_turns.hashes, pooled_turns.hashes);
  EXPECT_EQ(inline_turns.result_sizes, pooled_turns.result_sizes);

  RunRecord serial = run_with_parallelism(0);
  EXPECT_EQ(serial.result_sizes, inline_turns.result_sizes);
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].kind != QueryKind::kSkyline) {
      // Complete cost vectors: top-k / incremental results are identical
      // across the serial and turn schedules, entry for entry.
      EXPECT_EQ(serial.hashes[i], inline_turns.hashes[i]) << "request " << i;
    }
  }
}

TEST(QueryServiceTest, WarmCacheModeReducesMisses) {
  ServiceFixture fx;
  ServiceOptions opts = fx.Options(1);
  opts.cold_cache_per_query = false;
  opts.pool_frames_per_worker = 4096;  // large enough to keep every page
  auto service =
      QueryService::Create(&fx.instance->storage, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  // The same query twice on one worker: the second run hits the warm pool.
  Random rng(21);
  const api::QuerySpec req =
      api::SkylineSpec(fx.instance->RandomQueryLocation(rng));
  QueryResult first = (*service)->Submit(req).get();
  QueryResult second = (*service)->Submit(req).get();
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.result_hash, second.result_hash);
  EXPECT_LT(second.stats.buffer_misses, first.stats.buffer_misses);
}

// The service's one I/O charge: stall = buffer_misses x io_latency_ms,
// slept once per request after it executes. The sleep is part of the
// request's latency, never of its queue wait, and the registry books the
// same stall the results report.
TEST(QueryServiceTest, SleptStallIsChargedPerMissNotAsQueueWait) {
  auto instance =
      gen::BuildShardedInstance(gen::ExperimentConfig().Scaled(0.02), 1)
          .value();
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.pool_frames_per_worker = instance->pool_frames;
  opts.simulate_io_stalls = true;
  opts.io_latency_ms = 0.01;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts).value();

  // Sequential requests: each one finds the worker idle.
  Random rng(29);
  std::vector<QueryResult> results;
  for (int i = 0; i < 4; ++i) {
    results.push_back(
        service->Submit(api::SkylineSpec(instance->RandomQueryLocation(rng)))
            .get());
  }
  const SessionId session =
      service
          ->OpenSession(api::IncrementalSpec(
              instance->RandomQueryLocation(rng), 8,
              test::TestWeights(instance->graph.num_costs(), 3)))
          .value();
  results.push_back(service->SessionNext(session, 8).get());
  results.push_back(service->SessionNext(session, 8).get());

  uint64_t stall_micros = 0;
  int heavy = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryStats& stats = results[i].stats;
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_EQ(stats.stall_seconds, static_cast<double>(stats.buffer_misses) *
                                       opts.io_latency_ms / 1000.0);
    // 1 ns of slack absorbs double rounding; the sleep overshoots anyway.
    EXPECT_GE(stats.latency_seconds + 1e-9,
              stats.queue_seconds + stats.exec_seconds + stats.stall_seconds);
    if (stats.buffer_misses >= 200) {
      ++heavy;
      EXPECT_LT(stats.queue_seconds, stats.stall_seconds / 4)
          << stats.buffer_misses << " misses";
    }
    stall_micros += static_cast<uint64_t>(stats.stall_seconds * 1e6);
  }
  EXPECT_GT(heavy, 0);
  EXPECT_EQ(service->MetricsSnapshot().CounterValue(mn::kStallMicros),
            stall_micros);
}

/// The counter rows (and histogram counts) of `snap` that are not zero,
/// as "name=value".
std::vector<std::string> NonZeroCounts(const obs::Snapshot& snap) {
  std::vector<std::string> rows;
  for (const obs::CounterRow& row : snap.counters) {
    if (row.value != 0) {
      rows.push_back(row.name + "=" + std::to_string(row.value));
    }
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.count != 0) rows.push_back(h.name + "=" + std::to_string(h.count));
  }
  return rows;
}

// Every row of the snapshot counts the stats window — since construction
// or the last ResetStats — although the storage and the result cache
// count over their whole life: a service over a storage an earlier
// service has read starts at zero, reads one page per buffer miss, and
// ResetStats zeroes every counter, disk reads and cache evictions too.
TEST(QueryServiceTest, EveryCounterCountsTheStatsWindow) {
  ServiceFixture fx;
  const std::vector<api::QuerySpec> requests = fx.MixedWorkload(12);
  ServiceOptions opts = fx.Options(2);
  opts.result_cache_entries = 2;  // twelve distinct specs evict
  {
    auto earlier =
        QueryService::Create(&fx.instance->storage, fx.instance->files, opts)
            .value();
    RunThrough(*earlier, requests);
  }
  ASSERT_GT(fx.instance->storage.MergedStats().page_reads, 0u);

  auto service =
      QueryService::Create(&fx.instance->storage, fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(NonZeroCounts((*service)->MetricsSnapshot()),
            std::vector<std::string>{});
  for (int window = 0; window < 2; ++window) {
    SCOPED_TRACE("window " + std::to_string(window));
    RunThrough(**service, requests);
    const obs::Snapshot snap = (*service)->MetricsSnapshot();
    EXPECT_GT(snap.CounterValue(mn::kBufferMisses), 0u);
    EXPECT_EQ(snap.CounterValue(mn::kDiskPageReads),
              snap.CounterValue(mn::kBufferMisses));
    EXPECT_GT(snap.CounterValue(mn::kCacheEvictions), 0u);
    (*service)->ResetStats();
    EXPECT_EQ(NonZeroCounts((*service)->MetricsSnapshot()),
              std::vector<std::string>{});
  }
}

}  // namespace
}  // namespace mcn::exec
