// Stress regression for the session idle-eviction seams (DESIGN.md §9).
// The hazard: idle eviction runs lazily on every OpenSession, and a
// session is evictable the instant its inflight count hits zero. Three
// protections keep an actively streamed session alive under a tiny idle
// timeout, and this test hammers all of them from concurrent threads:
//
//  * SessionNext refreshes last_used (and takes the inflight ticket)
//    under sessions_mu_ *before* the batch is enqueued, so a session is
//    never evictable between submit and execution;
//  * a running batch holds inflight > 0, which every eviction pass
//    (EvictExpiredSessions / MakeSessionRoom) skips;
//  * batch completion refreshes last_used and returns the inflight ticket
//    only once the completion is client-visible — *after* the modeled I/O
//    stall sleep, immediately before the promise resolves. This is the
//    regression this test caught: the ticket used to be returned before
//    the stall, so a stall longer than the idle timeout left the session
//    evictable (with an aging timestamp) while the client was still
//    blocked on that very batch, and the lazy timeout sweep reclaimed it.
//
// With an idle timeout far below the (stall-simulated) batch duration and
// churn threads triggering eviction passes continuously, every batch on
// the streamed sessions must resolve OK — a single NotFound means an
// active session was reclaimed. Runs under the `stress` label and must be
// TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

TEST(SessionEvictionStressTest, ActiveSessionsSurviveTinyIdleTimeout) {
  const uint64_t base = test::AnnounceSeed("session_eviction_stress_test");
  test::SmallConfig config;
  config.seed = base;
  auto instance = test::MakeSmallInstance(config).value();

  ServiceOptions options;
  options.num_workers = 4;
  options.pool_frames_per_worker = instance->pool_frames;
  // The regression dials: an idle timeout below one batch's modeled I/O
  // time. Each miss sleeps 2ms for real, so a cold batch over the tiny
  // pool takes well over the 50ms timeout — any eviction pass that
  // ignores the inflight pin or reads a stale last_used mid-batch
  // reclaims the session. (The timeout is not made arbitrarily small: a
  // *legitimately* idle session may be evicted by design, so the window
  // between back-to-back batches must stay far below the timeout.)
  options.session_idle_seconds = 0.05;
  options.io_latency_ms = 2.0;
  options.simulate_io_stalls = true;
  // Roomy table: capacity-pressure eviction (MakeSessionRoom) reclaims
  // the LRU *idle* session regardless of the timeout — documented LRU
  // semantics, not the race under test — so keep the table from filling
  // and let the idle timeout be the only reclaim path.
  options.max_sessions = 64;
  auto service =
      QueryService::Create(&instance->storage, instance->files, options)
          .value();

  std::atomic<bool> stop{false};
  std::atomic<int> not_found{0};
  std::atomic<int> batches_ok{0};

  // Streamers: each pins one session and pulls batches back to back. The
  // first batches are slow (cold pools + engine build under simulated
  // stalls), exactly the window where last_used goes stale mid-batch.
  auto stream = [&](uint64_t seed) {
    Random rng(seed);
    api::QuerySpec spec;
    spec.kind = api::QueryKind::kIncrementalTopK;
    spec.location = instance->RandomQueryLocation(rng);
    spec.preference.weights = test::TestWeights(config.num_costs, seed);
    spec.k = 2;
    auto id = service->OpenSession(spec);
    ASSERT_TRUE(id.ok());
    for (int b = 0; b < 25; ++b) {
      QueryResult result = service->SessionNext(id.value(), 2).get();
      if (result.status.code() == StatusCode::kNotFound) {
        ++not_found;
        return;
      }
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ++batches_ok;
      // Past exhaustion batches resolve OK and empty — the fast-path
      // completion (near-zero exec time) races the timeout too.
    }
    EXPECT_TRUE(service->CloseSession(id.value()).ok());
  };

  // Churners: every OpenSession runs an eviction pass under sessions_mu_;
  // open/close continuously so passes interleave with every stage of the
  // streamers' batches (and table pressure exercises MakeSessionRoom).
  auto churn = [&](uint64_t seed) {
    Random rng(seed);
    while (!stop.load(std::memory_order_acquire)) {
      api::QuerySpec spec;
      spec.kind = api::QueryKind::kIncrementalTopK;
      spec.location = instance->RandomQueryLocation(rng);
      spec.preference.weights = test::TestWeights(config.num_costs, seed);
      auto id = service->OpenSession(spec);
      if (id.ok() && rng.Next() % 2 == 0) {
        // Half are abandoned idle — fodder for the idle-timeout sweep.
        service->CloseSession(id.value());
      }
      // Throttled so abandoned sessions expire (50ms) faster than they
      // accumulate — the table never fills and MakeSessionRoom stays out
      // of the picture (see the max_sessions comment above).
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(stream, test::DeriveSeed(base, 1));
  threads.emplace_back(stream, test::DeriveSeed(base, 2));
  threads.emplace_back(churn, test::DeriveSeed(base, 3));
  threads.emplace_back(churn, test::DeriveSeed(base, 4));
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  // The invariant under test: an actively streamed session is never
  // reclaimed, no matter how often eviction runs or how slow a batch is.
  EXPECT_EQ(not_found.load(), 0);
  EXPECT_EQ(batches_ok.load(), 50);
  service->Shutdown();
}

}  // namespace
}  // namespace mcn::exec
