// Failure-model coverage for the service stack (DESIGN.md §10): deadline
// propagation (expiry in queue and mid-expansion, both in-process and over
// the wire), cooperative cancellation through the engine layer, admission
// control (bounded in-flight load shedding with immediate typed
// rejection), client reconnect/retry with backoff, sessions-never-retried
// semantics, and the server's connection reaper + session-leak assertion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/common/cancel.h"
#include "mcn/common/fault_injector.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/engines.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::exec {
namespace {

using api::Client;
using api::IncrementalSpec;
using api::QuerySpec;
using api::Server;
using api::SkylineSpec;
using api::TopKSpec;
namespace mn = metric_names;

gen::ExperimentConfig SmallConfig(uint64_t seed) {
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

struct Rig {
  std::unique_ptr<gen::ShardedInstance> instance;
  std::unique_ptr<QueryService> service;

  static Rig Make(const ServiceOptions& options, uint64_t seed = 11) {
    Rig rig;
    auto built = gen::BuildShardedInstance(SmallConfig(seed), 1);
    EXPECT_TRUE(built.ok());
    rig.instance = std::move(built).value();
    ServiceOptions opts = options;
    opts.pool_frames_per_worker = rig.instance->pool_frames;
    auto service = QueryService::Create(&rig.instance->storage,
                                        rig.instance->files, opts);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    return rig;
  }

  QuerySpec Skyline(Random& rng) const {
    return SkylineSpec(instance->RandomQueryLocation(rng));
  }
};

TEST(CancelTokenTest, ChecksCancellationAndDeadlineAsTypedStatuses) {
  CancelToken plain;
  EXPECT_TRUE(plain.Check().ok());
  plain.Cancel();
  EXPECT_EQ(plain.Check().code(), StatusCode::kCancelled);

  CancelToken no_deadline(0);
  EXPECT_FALSE(no_deadline.has_deadline());
  EXPECT_TRUE(no_deadline.Check().ok());

  CancelToken expired(0);
  expired.ArmDeadline(CancelToken::Clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(expired.expired());
  EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded);

  CancelToken future_token(60'000);
  EXPECT_TRUE(future_token.has_deadline());
  EXPECT_TRUE(future_token.Check().ok());
  // Cancellation wins over a live deadline.
  future_token.Cancel();
  EXPECT_EQ(future_token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, CancelledEngineUnwindsWithTypedStatus) {
  // The expansion layer observes the token at its settle steps: a
  // cancelled token must surface as kCancelled from NextNN, not as a
  // wrong answer or a crash.
  auto instance = test::MakeSmallInstance({});
  ASSERT_TRUE(instance.ok());
  Random rng(5);
  const graph::Location q = (*instance)->RandomQueryLocation(rng);
  for (const auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
    auto engine = expand::MakeEngine(kind, (*instance)->reader.get(), q);
    ASSERT_TRUE(engine.ok());
    CancelToken token;
    token.Cancel();
    (*engine)->SetCancelToken(&token);
    auto next = (*engine)->NextNN(0);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
    // Clearing the token lets the same engine resume normally.
    (*engine)->SetCancelToken(nullptr);
    EXPECT_TRUE((*engine)->NextNN(0).ok());
  }
}

TEST(ServiceRobustnessTest, DeadlinedQueriesBehindSlowTrafficTimeOut) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 64;
  // Every buffer miss sleeps: the filler query provably occupies the one
  // worker for longer than the 1ms deadlines queued behind it.
  opts.io_latency_ms = 1.0;
  opts.simulate_io_stalls = true;
  Rig rig = Rig::Make(opts);
  Random rng(3);

  std::vector<std::future<QueryResult>> futures;
  futures.push_back(rig.service->Submit(rig.Skyline(rng)));  // slow filler
  constexpr int kDeadlined = 16;
  for (int i = 0; i < kDeadlined; ++i) {
    QuerySpec spec = rig.Skyline(rng);
    spec.deadline_ms = 1;
    futures.push_back(rig.service->Submit(std::move(spec)));
  }

  QueryResult filler = futures[0].get();
  EXPECT_TRUE(filler.status.ok()) << filler.status.ToString();
  int timed_out = 0;
  for (size_t i = 1; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    if (result.status.ok()) continue;
    // The only acceptable failure is the typed deadline status.
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << result.status.ToString();
    ++timed_out;
  }
  EXPECT_GT(timed_out, 0) << "no deadline fired behind a slow filler";
  const obs::Snapshot snap = rig.service->MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue(mn::kTimedOut),
            static_cast<uint64_t>(timed_out));
  EXPECT_EQ(snap.CounterValue(mn::kFailed), static_cast<uint64_t>(timed_out));
  EXPECT_EQ(snap.CounterValue(mn::kRejected), 0u);
  rig.service->Shutdown();
}

// A request that fails while executing spent that time executing: its
// expiry must not be booked as queue wait, and the I/O it did before it
// failed is counted. Every disk read sleeps 1 ms, so a cold skyline and a
// first session batch both outlive their 30 ms deadline mid-expansion on
// an otherwise idle one-worker service.
TEST(ServiceRobustnessTest, FailedRequestsBookExecutionNotQueueWait) {
  auto instance =
      gen::BuildShardedInstance(gen::ExperimentConfig().Scaled(0.02), 1)
          .value();
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.pool_frames_per_worker = instance->pool_frames;
  auto service =
      QueryService::Create(&instance->storage, instance->files, opts).value();
  Random rng(17);
  QuerySpec skyline = SkylineSpec(instance->RandomQueryLocation(rng));
  skyline.deadline_ms = 30;
  QuerySpec incremental = IncrementalSpec(
      instance->RandomQueryLocation(rng), 3,
      test::TestWeights(instance->graph.num_costs(), 5));
  incremental.deadline_ms = 30;
  const SessionId session = service->OpenSession(incremental).value();

  FaultInjector::Options faults;
  faults.disk_delay = 1.0;
  faults.disk_delay_us = 1000;
  FaultInjector injector(faults);
  FaultInjector::Install(&injector);
  // Sequential: each request finds the worker idle.
  const QueryResult one_shot = service->Submit(skyline).get();
  const QueryResult batch = service->SessionNext(session, 64).get();
  FaultInjector::Install(nullptr);

  for (const QueryResult* r : {&one_shot, &batch}) {
    SCOPED_TRACE(r == &one_shot ? "one-shot skyline" : "session batch");
    EXPECT_EQ(r->status.code(), StatusCode::kDeadlineExceeded)
        << r->status.ToString();
    EXPECT_GT(r->stats.exec_seconds, r->stats.queue_seconds);
    EXPECT_GT(r->stats.buffer_misses, 0u);
    EXPECT_GE(r->stats.buffer_accesses, r->stats.buffer_misses);
    EXPECT_GT(r->stats.local_fetches, 0u);
  }
  const obs::Snapshot snap = service->MetricsSnapshot();
  EXPECT_LT(snap.CounterValue(mn::kQueueMicros),
            snap.CounterValue(mn::kCpuMicros));
  service->Shutdown();
}

TEST(ServiceRobustnessTest, CoalescedCacheWaiterHonorsItsOwnDeadline) {
  // A coalesced waiter rides another flight's future and never enters the
  // queue where deadlines are normally enforced (deadline_ms is also
  // normalized out of the cache key) — its own deadline must still fire
  // instead of inheriting the owning flight's unbounded wait.
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 64;
  opts.io_latency_ms = 1.0;
  opts.simulate_io_stalls = true;
  opts.result_cache_entries = 8;
  Rig rig = Rig::Make(opts);
  Random rng(7);

  // The filler occupies the single worker (every miss sleeps), so the
  // owner is still queued — its flight provably in-flight — when the
  // deadlined waiter submits the identical spec.
  QuerySpec spec = rig.Skyline(rng);
  std::future<QueryResult> filler = rig.service->Submit(rig.Skyline(rng));
  std::future<QueryResult> owner = rig.service->Submit(spec);
  QuerySpec deadlined = spec;
  deadlined.deadline_ms = 1;
  std::future<QueryResult> waiter = rig.service->Submit(std::move(deadlined));

  QueryResult waited = waiter.get();
  ASSERT_FALSE(waited.status.ok());
  EXPECT_EQ(waited.status.code(), StatusCode::kDeadlineExceeded)
      << waited.status.ToString();

  // The flight itself (and the filler) still complete normally.
  EXPECT_TRUE(filler.get().status.ok());
  EXPECT_TRUE(owner.get().status.ok());
  EXPECT_EQ(
      rig.service->MetricsSnapshot().CounterValue(mn::kCacheCoalesced), 1u);
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, AdmissionControlShedsOverCapImmediately) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 64;
  opts.max_inflight = 2;
  opts.io_latency_ms = 1.0;
  opts.simulate_io_stalls = true;  // keep the worker busy while we flood
  Rig rig = Rig::Make(opts);
  Random rng(7);

  constexpr int kFlood = 32;
  std::vector<std::future<QueryResult>> futures;
  std::vector<double> reject_latency_ms;
  for (int i = 0; i < kFlood; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    futures.push_back(rig.service->Submit(rig.Skyline(rng)));
    reject_latency_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  int rejected = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    if (result.status.ok()) continue;
    EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted)
        << result.status.ToString();
    ++rejected;
  }
  ASSERT_GT(rejected, 0) << "flooding a 2-deep service shed nothing";
  // Load shedding must be immediate — a rejected Submit never blocks on
  // the queue (here: every Submit, accepted or shed, returned in well
  // under the time one stalled query takes).
  for (double ms : reject_latency_ms) EXPECT_LT(ms, 250.0);

  const obs::Snapshot snap = rig.service->MetricsSnapshot();
  EXPECT_EQ(snap.CounterValue(mn::kRejected),
            static_cast<uint64_t>(rejected));
  // Shed queries never entered a queue: not double-counted as failures.
  EXPECT_EQ(snap.CounterValue(mn::kFailed), 0u);
  EXPECT_EQ(snap.CounterValue(mn::kCompleted),
            static_cast<uint64_t>(kFlood - rejected));
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, MaxInflightZeroKeepsLegacyBlockingBackpressure) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 4;  // tiny: the blocking path must absorb the flood
  opts.max_inflight = 0;
  Rig rig = Rig::Make(opts);
  Random rng(9);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(rig.service->Submit(rig.Skyline(rng)));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(rig.service->MetricsSnapshot().CounterValue(mn::kRejected), 0u);
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, DeadlineRidesTheWireAndCountsAsTimedOut) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 64;
  opts.io_latency_ms = 1.0;
  opts.simulate_io_stalls = true;
  Rig rig = Rig::Make(opts);
  auto server = Server::Start(rig.service.get(), {});
  ASSERT_TRUE(server.ok());
  Random rng(13);

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  // Park a slow filler on the single worker from a second connection so
  // the deadlined query expires while queued.
  auto filler_client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(filler_client.ok());
  QuerySpec filler = rig.Skyline(rng);
  std::thread filler_thread([&] { (void)(*filler_client)->Execute(filler); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  QuerySpec spec = rig.Skyline(rng);
  spec.deadline_ms = 1;
  auto response = (*client)->Execute(spec);
  filler_thread.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status.code(), StatusCode::kDeadlineExceeded)
      << response.value().status.ToString();
  EXPECT_GE(rig.service->MetricsSnapshot().CounterValue(mn::kTimedOut), 1u);
  (*server)->Stop();
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, ClientRetriesAcrossServerRestart) {
  ServiceOptions opts;
  opts.num_workers = 2;
  Rig rig = Rig::Make(opts);
  Random rng(17);

  auto first = Server::Start(rig.service.get(), {});
  ASSERT_TRUE(first.ok());
  const int port = (*first)->port();

  Client::Options client_options;
  client_options.retry.max_attempts = 5;
  client_options.retry.base_backoff_ms = 1;
  client_options.retry.max_backoff_ms = 8;
  auto client = Client::Connect("127.0.0.1", port, client_options);
  ASSERT_TRUE(client.ok());

  QuerySpec spec = rig.Skyline(rng);
  auto before = (*client)->Execute(spec);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before.value().status.ok());

  // Bounce the server; the old connection is dead but the endpoint comes
  // back on the same port before the retries are exhausted.
  (*first)->Stop();
  first->reset();
  Server::Options server_options;
  server_options.port = port;
  auto second = Server::Start(rig.service.get(), server_options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  auto after = (*client)->Execute(spec);
  ASSERT_TRUE(after.ok())
      << "retry across restart failed: " << after.status().ToString();
  ASSERT_TRUE(after.value().status.ok());
  // Same query, same service: the reconnect is invisible in the result.
  EXPECT_EQ(after.value().result_hash, before.value().result_hash);
  EXPECT_GE((*client)->retries(), 1u);
  (*second)->Stop();
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, SessionCallsAreNotRetried) {
  ServiceOptions opts;
  opts.num_workers = 2;
  Rig rig = Rig::Make(opts);
  Random rng(19);
  const int d = rig.instance->graph.num_costs();

  auto server = Server::Start(rig.service.get(), {});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession(IncrementalSpec(
      rig.instance->RandomQueryLocation(rng), 2, test::TestWeights(d, 2)));
  ASSERT_TRUE(session.ok());

  (*server)->Stop();
  const uint64_t retries_before = (*client)->retries();
  auto next = (*client)->Next(*session, 2);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIOError)
      << next.status().ToString();
  // No reconnect attempt was burned on a non-idempotent call…
  EXPECT_EQ((*client)->retries(), retries_before);
  // …and the connection is marked broken rather than half-trusted.
  EXPECT_FALSE((*client)->connected());
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, ReaperJoinsFinishedConnectionsWithoutNewAccepts) {
  ServiceOptions opts;
  opts.num_workers = 1;
  Rig rig = Rig::Make(opts);
  Random rng(23);
  const int d = rig.instance->graph.num_costs();

  auto server = Server::Start(rig.service.get(), {});
  ASSERT_TRUE(server.ok());
  {
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    auto session = (*client)->OpenSession(IncrementalSpec(
        rig.instance->RandomQueryLocation(rng), 2, test::TestWeights(d, 4)));
    ASSERT_TRUE(session.ok());
    EXPECT_EQ((*server)->sessions_open(), 1);
  }  // disconnect with the session still open

  // No further accepts happen; only the reaper thread can collect the
  // finished connection (pre-reaper, this joined on the next accept).
  for (int spin = 0; spin < 400 && (*server)->connections_reaped() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ((*server)->connections_reaped(), 1u);
  EXPECT_EQ((*server)->sessions_open(), 0);
  EXPECT_EQ(rig.service->num_open_sessions(), 0u);
  // Stop()'s zero-leaked-sessions assertion must hold.
  (*server)->Stop();
  rig.service->Shutdown();
}

TEST(ServiceRobustnessTest, IdleConnectionSurvivesServerRecvTimeout) {
  ServiceOptions opts;
  opts.num_workers = 1;
  Rig rig = Rig::Make(opts);
  Random rng(29);

  Server::Options server_options;
  server_options.io_timeout_ms = 30;
  auto server = Server::Start(rig.service.get(), server_options);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  // Idle for several recv-timeout windows: the server must treat boundary
  // timeouts as idleness, not drop the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto response = (*client)->Execute(rig.Skyline(rng));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().status.ok());
  EXPECT_EQ((*server)->connections_accepted(), 1u);
  (*server)->Stop();
  rig.service->Shutdown();
}

}  // namespace
}  // namespace mcn::exec
