// Unified-API service tests (DESIGN.md §9): QuerySpec submission parity
// between field-wise and convenience-built specs, Status-based rejection
// of malformed specs (no worker crashes), preference-constraint semantics,
// and the streaming incremental session lifecycle — local-iterator parity,
// bounded session table with LRU + idle eviction, close/unknown-id
// behavior, and a failed batch ending the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/algo/constraints.h"
#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/api/query_spec.h"
#include "mcn/common/fault_injector.h"
#include "mcn/common/random.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/engines.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

struct ApiFixture {
  std::unique_ptr<gen::ShardedInstance> instance;
  size_t frames = 0;

  explicit ApiFixture(uint64_t seed = 11) {
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

  int d() const { return instance->graph.num_costs(); }

  graph::Location Location(uint64_t salt) const {
    Random rng(1000 + salt);
    return instance->RandomQueryLocation(rng);
  }

  /// The local ground truth a session must replay: a fresh
  /// IncrementalTopK over its own engine + pool of the same capacity.
  std::vector<algo::TopKEntry> LocalStream(const api::QuerySpec& spec,
                                           int limit) {
    shard::ShardedNetworkReader reader(&instance->storage, instance->files,
                                       {frames});
    auto engine = expand::MakeEngine(spec.engine, &reader, spec.location);
    EXPECT_TRUE(engine.ok());
    algo::IncrementalTopK query(
        engine.value().get(),
        algo::WeightedSum(spec.preference.weights));
    std::vector<algo::TopKEntry> rows;
    while (static_cast<int>(rows.size()) < limit) {
      auto next = query.NextBest();
      EXPECT_TRUE(next.ok());
      if (!next.value().has_value()) break;
      if (!algo::PassesCaps(spec.preference.constraints, *next.value())) {
        continue;
      }
      rows.push_back(*std::move(next).value());
    }
    return rows;
  }
};

// The legacy request shape — fields assigned one by one, weights only on
// the top-k kinds — and the convenience constructors build the same spec,
// with the same result hash and logical I/O.
TEST(ApiSpecTest, SpecAndLegacyRequestAreHashIdentical) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  Random rng(42);
  for (int i = 0; i < 9; ++i) {
    api::QuerySpec fieldwise;
    fieldwise.location = fx.instance->RandomQueryLocation(rng);
    fieldwise.kind = static_cast<QueryKind>(i % 3);
    api::QuerySpec built = api::SkylineSpec(fieldwise.location);
    if (fieldwise.kind != QueryKind::kSkyline) {
      fieldwise.k = 3;
      fieldwise.preference.weights = test::TestWeights(fx.d(), 77 + i);
      built = fieldwise.kind == QueryKind::kTopK
                  ? api::TopKSpec(fieldwise.location, 3,
                                  fieldwise.preference.weights)
                  : api::IncrementalSpec(fieldwise.location, 3,
                                         fieldwise.preference.weights);
    }
    EXPECT_EQ(fieldwise, built);
    QueryResult via_fields = (*service)->Submit(fieldwise).get();
    QueryResult via_builder = (*service)->Submit(built).get();
    ASSERT_TRUE(via_fields.status.ok());
    ASSERT_TRUE(via_builder.status.ok());
    EXPECT_EQ(via_fields.result_hash, via_builder.result_hash);
    EXPECT_EQ(via_fields.stats.buffer_misses,
              via_builder.stats.buffer_misses);
  }
  (*service)->Shutdown();
}

TEST(ApiSpecTest, MalformedSpecsRejectedWithStatusNotCrash) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());

  auto expect_invalid = [&](api::QuerySpec spec) {
    QueryResult result = (*service)->Submit(std::move(spec)).get();
    EXPECT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << result.status.ToString();
  };

  // Wrong-dimension weights (the old DCHECK path).
  expect_invalid(api::TopKSpec(fx.Location(1), 3, {1.0}));
  // Negative weight: previously an MCN_CHECK crash inside WeightedSum.
  expect_invalid(
      api::TopKSpec(fx.Location(2), 3,
                    std::vector<double>(fx.d(), -1.0)));
  // k <= 0.
  expect_invalid(api::TopKSpec(fx.Location(3), 0,
                               test::TestWeights(fx.d(), 5)));
  // Skyline with weights.
  {
    api::QuerySpec spec = api::SkylineSpec(fx.Location(4));
    spec.preference.weights = test::TestWeights(fx.d(), 6);
    expect_invalid(std::move(spec));
  }
  // Wrong-size cost caps.
  {
    api::QuerySpec spec = api::SkylineSpec(fx.Location(5));
    spec.preference.constraints.cost_caps = {1.0};
    expect_invalid(std::move(spec));
  }
  // Epsilon on a non-skyline kind.
  {
    api::QuerySpec spec =
        api::TopKSpec(fx.Location(6), 3, test::TestWeights(fx.d(), 7));
    spec.preference.constraints.epsilon = 0.1;
    expect_invalid(std::move(spec));
  }
  // Unset location.
  expect_invalid(api::QuerySpec{});

  // The workers that executed the failures still serve good queries.
  QueryResult good = (*service)->Submit(api::SkylineSpec(fx.Location(8))).get();
  EXPECT_TRUE(good.status.ok());
  const obs::Snapshot snap = (*service)->MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue(metric_names::kFailed), 7u);
  EXPECT_EQ(snap.CounterValue(metric_names::kCompleted), 1u);
  (*service)->Shutdown();
}

TEST(ApiSpecTest, ConstraintsFilterResultsAndUnconstrainedIsNoOp) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  const graph::Location loc = fx.Location(9);

  QueryResult base = (*service)->Submit(api::SkylineSpec(loc)).get();
  ASSERT_TRUE(base.status.ok());
  ASSERT_FALSE(base.skyline.empty());

  // An explicitly-default constraint block is byte-identical to none.
  api::QuerySpec defaulted = api::SkylineSpec(loc);
  defaulted.preference.constraints = algo::PreferenceConstraints{};
  QueryResult same = (*service)->Submit(defaulted).get();
  EXPECT_EQ(same.result_hash, base.result_hash);
  EXPECT_EQ(same.stats.buffer_misses, base.stats.buffer_misses);

  // Cap every dimension at the base result's max: still a no-op filter
  // on rows, then tighten dimension 0 below the known minimum — every
  // surviving row must satisfy the cap, and some row must go.
  graph::CostVector maxima(fx.d(), 0.0);
  double min0 = expand::kInfCost;
  for (const auto& e : base.skyline) {
    for (int j = 0; j < fx.d(); ++j) {
      if ((e.known_mask >> j) & 1u) {
        maxima[j] = std::max(maxima[j], e.costs[j]);
      }
    }
    if (e.known_mask & 1u) min0 = std::min(min0, e.costs[0]);
  }
  api::QuerySpec capped = api::SkylineSpec(loc);
  for (int j = 0; j < fx.d(); ++j) {
    capped.preference.constraints.cost_caps.push_back(maxima[j]);
  }
  QueryResult all_pass = (*service)->Submit(capped).get();
  ASSERT_TRUE(all_pass.status.ok());
  EXPECT_EQ(all_pass.result_hash, base.result_hash);

  capped.preference.constraints.cost_caps[0] = min0 * 0.5;
  QueryResult filtered = (*service)->Submit(capped).get();
  ASSERT_TRUE(filtered.status.ok());
  EXPECT_LT(filtered.skyline.size(), base.skyline.size());
  for (const auto& e : filtered.skyline) {
    if (e.known_mask & 1u) EXPECT_LE(e.costs[0], min0 * 0.5);
  }

  // Epsilon thinning: a large epsilon collapses the skyline to (at
  // least) far fewer rows; epsilon 0 stays exact.
  api::QuerySpec thinned = api::SkylineSpec(loc);
  thinned.preference.constraints.epsilon = 1e9;
  QueryResult thin = (*service)->Submit(thinned).get();
  ASSERT_TRUE(thin.status.ok());
  EXPECT_LE(thin.skyline.size(), base.skyline.size());
  EXPECT_GE(thin.skyline.size(), 1u);
  (*service)->Shutdown();
}

TEST(ApiSessionTest, SessionReplaysLocalIncrementalIterator) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(3));
  ASSERT_TRUE(service.ok());

  api::QuerySpec spec = api::IncrementalSpec(
      fx.Location(21), 4, test::TestWeights(fx.d(), 13));
  const std::vector<algo::TopKEntry> expected = fx.LocalStream(spec, 1 << 20);

  auto session = (*service)->OpenSession(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Stream the whole component in uneven batches; the concatenation must
  // replay the local iterator row for row (ids, scores, cost vectors —
  // compared via the shared FNV hash), and logical I/O must match a
  // fresh local pool of the same capacity.
  std::vector<algo::TopKEntry> streamed;
  uint64_t streamed_misses = 0;
  bool exhausted = false;
  const int batch_sizes[] = {1, 3, 2, 100};
  for (int n : batch_sizes) {
    QueryResult batch = (*service)->SessionNext(*session, n).get();
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    EXPECT_EQ(batch.result_hash, algo::HashResult(batch.topk));
    streamed_misses += batch.stats.buffer_misses;
    for (auto& row : batch.topk) streamed.push_back(std::move(row));
    if (static_cast<int>(batch.topk.size()) < n) {
      EXPECT_TRUE(batch.exhausted);
      exhausted = true;
      break;
    }
  }
  EXPECT_TRUE(exhausted);
  EXPECT_EQ(algo::HashResult(streamed), algo::HashResult(expected));

  shard::ShardedNetworkReader reader(&fx.instance->storage, fx.instance->files,
                                     {fx.frames});
  auto engine = expand::MakeEngine(spec.engine, &reader, spec.location);
  ASSERT_TRUE(engine.ok());
  algo::IncrementalTopK local(engine.value().get(),
                              algo::WeightedSum(spec.preference.weights));
  while (true) {
    auto next = local.NextBest();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
  }
  EXPECT_EQ(streamed_misses, reader.PoolStats().misses);

  // Past exhaustion: empty OK batches forever, never an error.
  QueryResult after = (*service)->SessionNext(*session, 5).get();
  EXPECT_TRUE(after.status.ok());
  EXPECT_TRUE(after.topk.empty());
  EXPECT_TRUE(after.exhausted);

  EXPECT_EQ((*service)->CloseSession(*session), Status::OK());
  EXPECT_EQ((*service)->num_open_sessions(), 0u);
  QueryResult closed = (*service)->SessionNext(*session, 1).get();
  EXPECT_EQ(closed.status.code(), StatusCode::kNotFound);
  (*service)->Shutdown();
}

TEST(ApiSessionTest, ConstrainedSessionStillFillsBatches) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());

  api::QuerySpec spec = api::IncrementalSpec(
      fx.Location(33), 4, test::TestWeights(fx.d(), 29));
  // Cap dimension 0 at the stream's median so a real fraction of rows is
  // filtered out.
  std::vector<algo::TopKEntry> unfiltered = fx.LocalStream(spec, 1 << 20);
  ASSERT_GT(unfiltered.size(), 4u);
  std::vector<double> dim0;
  for (const auto& row : unfiltered) dim0.push_back(row.costs[0]);
  std::sort(dim0.begin(), dim0.end());
  spec.preference.constraints.cost_caps.assign(fx.d(), expand::kInfCost);
  spec.preference.constraints.cost_caps[0] = dim0[dim0.size() / 2];

  const std::vector<algo::TopKEntry> expected = fx.LocalStream(spec, 1 << 20);
  ASSERT_LT(expected.size(), unfiltered.size());

  auto session = (*service)->OpenSession(spec);
  ASSERT_TRUE(session.ok());
  std::vector<algo::TopKEntry> streamed;
  for (;;) {
    QueryResult batch = (*service)->SessionNext(*session, 2).get();
    ASSERT_TRUE(batch.status.ok());
    // A constrained batch still fills to n until exhaustion.
    for (auto& row : batch.topk) {
      EXPECT_LE(row.costs[0], spec.preference.constraints.cost_caps[0]);
      streamed.push_back(std::move(row));
    }
    if (batch.exhausted) break;
  }
  EXPECT_EQ(algo::HashResult(streamed), algo::HashResult(expected));
  (*service)->Shutdown();
}

TEST(ApiSessionTest, SessionTableBoundsAndLruEviction) {
  ApiFixture fx;
  ServiceOptions opts = fx.Options(2);
  opts.max_sessions = 2;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto spec = [&](uint64_t salt) {
    return api::IncrementalSpec(fx.Location(salt), 2,
                                test::TestWeights(fx.d(), salt));
  };

  auto s1 = (*service)->OpenSession(spec(1));
  auto s2 = (*service)->OpenSession(spec(2));
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ((*service)->num_open_sessions(), 2u);

  // Touch s1 so s2 becomes the LRU victim.
  ASSERT_TRUE((*service)->SessionNext(*s1, 1).get().status.ok());
  auto s3 = (*service)->OpenSession(spec(3));
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ((*service)->num_open_sessions(), 2u);
  EXPECT_EQ((*service)->SessionNext(*s2, 1).get().status.code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*service)->SessionNext(*s1, 1).get().status.ok());

  // Wrong kind is rejected at open.
  auto bad = (*service)->OpenSession(api::SkylineSpec(fx.Location(4)));
  EXPECT_FALSE(bad.ok());
  // Malformed spec is rejected at open (not at first batch).
  auto malformed =
      (*service)->OpenSession(api::IncrementalSpec(fx.Location(5), 2, {}));
  EXPECT_FALSE(malformed.ok());
  (*service)->Shutdown();
}

TEST(ApiSessionTest, IdleSessionsAreEvictedLazily) {
  ApiFixture fx;
  ServiceOptions opts = fx.Options(2);
  opts.max_sessions = 2;
  opts.session_idle_seconds = 0.05;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, opts);
  ASSERT_TRUE(service.ok());
  auto spec = [&](uint64_t salt) {
    return api::IncrementalSpec(fx.Location(salt), 2,
                                test::TestWeights(fx.d(), salt));
  };
  auto s1 = (*service)->OpenSession(spec(1));
  auto s2 = (*service)->OpenSession(spec(2));
  ASSERT_TRUE(s1.ok() && s2.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The next open finds both expired: the table shrinks to just s3.
  auto s3 = (*service)->OpenSession(spec(3));
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ((*service)->num_open_sessions(), 1u);
  EXPECT_EQ((*service)->SessionNext(*s1, 1).get().status.code(),
            StatusCode::kNotFound);
  (*service)->Shutdown();
}

TEST(ApiSessionTest, SessionsSurviveAcrossSubmitTraffic) {
  // A session's engine stays pinned and warm while one-shot queries churn
  // through the same workers: interleaved traffic must not perturb the
  // stream (its reader is private) nor the one-shot determinism.
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());

  api::QuerySpec spec = api::IncrementalSpec(
      fx.Location(55), 4, test::TestWeights(fx.d(), 31));
  const std::vector<algo::TopKEntry> expected = fx.LocalStream(spec, 7);

  auto session = (*service)->OpenSession(spec);
  ASSERT_TRUE(session.ok());
  std::vector<algo::TopKEntry> streamed;
  for (int round = 0; round < 7; ++round) {
    // Interleave unrelated one-shot queries.
    QueryResult noise =
        (*service)->Submit(api::SkylineSpec(fx.Location(60 + round))).get();
    ASSERT_TRUE(noise.status.ok());
    QueryResult batch = (*service)->SessionNext(*session, 1).get();
    ASSERT_TRUE(batch.status.ok());
    if (batch.topk.empty()) break;
    streamed.push_back(batch.topk[0]);
    if (static_cast<int>(streamed.size()) == 7) break;
  }
  const size_t n = std::min(streamed.size(), expected.size());
  std::vector<algo::TopKEntry> exp_prefix(expected.begin(),
                                          expected.begin() + n);
  std::vector<algo::TopKEntry> got_prefix(streamed.begin(),
                                          streamed.begin() + n);
  EXPECT_EQ(algo::HashResult(got_prefix), algo::HashResult(exp_prefix));
  EXPECT_GT(n, 0u);
  (*service)->Shutdown();
}

// A session batch that fails inside the iterator ends the stream: the
// rows it had already passed are gone, so after the fault heals the next
// batch must refuse (FailedPrecondition) instead of resuming past them.
TEST(ApiSessionTest, FailedBatchEndsTheSession) {
  ApiFixture fx;
  auto service = QueryService::Create(&fx.instance->storage,
                                      fx.instance->files, fx.Options(2));
  ASSERT_TRUE(service.ok());
  auto session = (*service)->OpenSession(api::IncrementalSpec(
      fx.Location(71), 4, test::TestWeights(fx.d(), 71)));
  ASSERT_TRUE(session.ok());

  QueryResult good = (*service)->SessionNext(*session, 2).get();
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  ASSERT_EQ(good.topk.size(), 2u);

  FaultInjector::Options fault_options;
  fault_options.disk_eio = 1.0;
  FaultInjector injector(fault_options);
  FaultInjector::Install(&injector);
  // Asks for the whole component, so the batch must read past the pool.
  QueryResult faulted = (*service)->SessionNext(*session, 1 << 20).get();
  FaultInjector::Install(nullptr);
  ASSERT_FALSE(faulted.status.ok());
  EXPECT_EQ(faulted.status.code(), StatusCode::kIOError)
      << faulted.status.ToString();

  QueryResult after = (*service)->SessionNext(*session, 2).get();
  EXPECT_EQ(after.status.code(), StatusCode::kFailedPrecondition)
      << after.status.ToString();
  EXPECT_TRUE(after.topk.empty());
  // The session stays in the table until closed; a reopen starts afresh.
  EXPECT_EQ((*service)->CloseSession(*session), Status::OK());
  (*service)->Shutdown();
}

}  // namespace
}  // namespace mcn::exec
