// Tests for the cross-query ResultCache (DESIGN.md §13): hit / miss /
// coalesce outcomes, the LRU entry bound, epoch-bump invalidation (stale
// flights resolve but are not stored), canonical key normalization, and
// the single-flight guarantee under concurrent identical requests (the
// TSan stress angle).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "mcn/exec/query_service.h"
#include "mcn/exec/result_cache.h"

namespace mcn::exec {
namespace {

using Outcome = ResultCache::Lookup::Outcome;

QueryResult OkResult(uint64_t hash) {
  QueryResult result;
  result.result_hash = hash;
  algo::SkylineEntry entry;
  entry.facility = static_cast<graph::FacilityId>(hash);
  result.skyline.push_back(entry);
  result.stats.buffer_misses = 123;  // must NOT survive into served copies
  result.stats.exec_seconds = 1.5;
  return result;
}

TEST(ResultCacheTest, MissThenCompleteThenHit) {
  ResultCache cache(/*max_entries=*/8);
  ResultCache::Lookup miss = cache.Acquire("k1", 0);
  ASSERT_EQ(miss.outcome, Outcome::kMiss);
  ASSERT_NE(miss.flight, nullptr);

  EXPECT_EQ(cache.Complete(miss.flight, "k1", 0, OkResult(77)), 0u);

  ResultCache::Lookup hit = cache.Acquire("k1", 0);
  ASSERT_EQ(hit.outcome, Outcome::kHit);
  EXPECT_EQ(hit.cached.result_hash, 77u);
  ASSERT_EQ(hit.cached.skyline.size(), 1u);
  // Served copies carry rows + hash but a fresh QueryStats: a cached
  // answer did no I/O and ran on no worker.
  EXPECT_EQ(hit.cached.stats.buffer_misses, 0u);
  EXPECT_EQ(hit.cached.stats.exec_seconds, 0.0);

  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ResultCacheTest, CoalescedWaiterSharesTheFlightsResult) {
  ResultCache cache(8);
  ResultCache::Lookup owner = cache.Acquire("k", 0);
  ASSERT_EQ(owner.outcome, Outcome::kMiss);

  ResultCache::Lookup waiter = cache.Acquire("k", 0);
  ASSERT_EQ(waiter.outcome, Outcome::kCoalesced);
  ASSERT_TRUE(waiter.future.valid());

  EXPECT_EQ(cache.Complete(owner.flight, "k", 0, OkResult(5)), 1u);
  QueryResult shared = waiter.future.get();
  EXPECT_TRUE(shared.status.ok());
  EXPECT_EQ(shared.result_hash, 5u);
  EXPECT_EQ(shared.stats.buffer_misses, 0u);  // sanitized for waiters too
}

TEST(ResultCacheTest, FailuresAreSharedButNeverStored) {
  ResultCache cache(8);
  ResultCache::Lookup owner = cache.Acquire("k", 0);
  ResultCache::Lookup waiter = cache.Acquire("k", 0);

  QueryResult failed;
  failed.status = Status::IOError("disk on fire");
  failed.result_hash = algo::kFnvOffsetBasis;
  cache.Complete(owner.flight, "k", 0, failed);

  EXPECT_FALSE(waiter.future.get().status.ok());
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is free again: the next request re-runs the query.
  EXPECT_EQ(cache.Acquire("k", 0).outcome, Outcome::kMiss);
}

TEST(ResultCacheTest, LruBoundEvictsTheColdestEntry) {
  ResultCache cache(/*max_entries=*/2);
  for (const char* key : {"a", "b"}) {
    ResultCache::Lookup miss = cache.Acquire(key, 0);
    ASSERT_EQ(miss.outcome, Outcome::kMiss);
    cache.Complete(miss.flight, key, 0, OkResult(1));
  }
  // Touch "a" so "b" is the LRU victim.
  ASSERT_EQ(cache.Acquire("a", 0).outcome, Outcome::kHit);

  ResultCache::Lookup miss = cache.Acquire("c", 0);
  ASSERT_EQ(miss.outcome, Outcome::kMiss);
  cache.Complete(miss.flight, "c", 0, OkResult(3));

  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.Acquire("a", 0).outcome, Outcome::kHit);
  EXPECT_EQ(cache.Acquire("c", 0).outcome, Outcome::kHit);
  EXPECT_EQ(cache.Acquire("b", 0).outcome, Outcome::kMiss);
}

TEST(ResultCacheTest, ZeroCapacityCacheStoresNothing) {
  ResultCache cache(0);
  ResultCache::Lookup miss = cache.Acquire("k", 0);
  ASSERT_EQ(miss.outcome, Outcome::kMiss);
  cache.Complete(miss.flight, "k", 0, OkResult(9));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Acquire("k", 0).outcome, Outcome::kMiss);
}

TEST(ResultCacheTest, EpochBumpDropsEntriesAndRefusesStaleStores) {
  ResultCache cache(8);
  ResultCache::Lookup miss = cache.Acquire("k", 0);
  cache.Complete(miss.flight, "k", 0, OkResult(1));
  ASSERT_EQ(cache.stats().entries, 1u);

  // A flight still running when the network epoch moves on...
  ResultCache::Lookup stale = cache.Acquire("k2", 0);
  ResultCache::Lookup stale_waiter = cache.Acquire("k2", 0);
  cache.InvalidateAll(1);
  EXPECT_EQ(cache.stats().entries, 0u);  // stored entries dropped

  // ...must still resolve its waiters, but its result is not stored.
  EXPECT_EQ(cache.Complete(stale.flight, "k2", 0, OkResult(2)), 1u);
  EXPECT_EQ(stale_waiter.future.get().result_hash, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Acquire("k2", 1).outcome, Outcome::kMiss);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, CanonicalKeyNormalizesExecutionHints) {
  api::QuerySpec a;
  a.kind = QueryKind::kSkyline;
  a.location = graph::Location::AtNode(3);
  api::QuerySpec b = a;
  // Execution hints never change results (api/query_spec.h), so they must
  // not fragment the cache...
  b.engine = expand::EngineKind::kLsa;
  b.parallelism = 7;
  b.deadline_ms = 1000;
  EXPECT_EQ(QueryService::CanonicalCacheKey(a, 4),
            QueryService::CanonicalCacheKey(b, 4));
  // ...while the epoch and anything result-relevant must.
  EXPECT_NE(QueryService::CanonicalCacheKey(a, 4),
            QueryService::CanonicalCacheKey(a, 5));
  api::QuerySpec c = a;
  c.location = graph::Location::AtNode(4);
  EXPECT_NE(QueryService::CanonicalCacheKey(a, 4),
            QueryService::CanonicalCacheKey(c, 4));
  api::QuerySpec d = a;
  d.kind = QueryKind::kTopK;
  d.k = 5;
  EXPECT_NE(QueryService::CanonicalCacheKey(a, 4),
            QueryService::CanonicalCacheKey(d, 4));
}

// The single-flight guarantee under racing identical requests: exactly
// one thread owns the computation, everyone observes the same result.
TEST(ResultCacheTest, SingleFlightUnderConcurrentAcquires) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  ResultCache cache(64);
  for (int round = 0; round < kRounds; ++round) {
    const std::string key = "k" + std::to_string(round);
    std::atomic<int> owners{0};
    std::atomic<int> followers{0};  ///< hits and coalesced waiters
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ResultCache::Lookup lookup = cache.Acquire(key, 0);
        switch (lookup.outcome) {
          case Outcome::kMiss:
            owners.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(50 * t));
            cache.Complete(lookup.flight, key, 0,
                           OkResult(static_cast<uint64_t>(round)));
            break;
          case Outcome::kCoalesced: {
            QueryResult result = lookup.future.get();
            EXPECT_EQ(result.result_hash, static_cast<uint64_t>(round));
            followers.fetch_add(1);
            break;
          }
          case Outcome::kHit:
            EXPECT_EQ(lookup.cached.result_hash,
                      static_cast<uint64_t>(round));
            followers.fetch_add(1);
            break;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(owners.load(), 1) << "round " << round;
    EXPECT_EQ(followers.load(), kThreads - 1) << "round " << round;
  }
  EXPECT_EQ(cache.stats().inflight, 0u);
}

// Mixed-key churn with a tiny bound: exercises eviction, invalidation and
// completion racing each other — the TSan meat.
TEST(ResultCacheTest, ConcurrentChurnStress) {
  ResultCache cache(4);
  std::atomic<uint64_t> epoch{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const uint64_t e = epoch.load();
        const std::string key = "k" + std::to_string(i % 7) + "@" +
                                std::to_string(e);
        ResultCache::Lookup lookup = cache.Acquire(key, e);
        if (lookup.outcome == Outcome::kMiss) {
          cache.Complete(lookup.flight, key, e,
                         OkResult(static_cast<uint64_t>(i % 7)));
        } else if (lookup.outcome == Outcome::kCoalesced) {
          lookup.future.get();
        }
        if (t == 0 && i % 100 == 99) {
          cache.InvalidateAll(epoch.fetch_add(1) + 1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().inflight, 0u);
}

}  // namespace
}  // namespace mcn::exec
