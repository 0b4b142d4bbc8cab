// Client/server end-to-end differential (DESIGN.md §9): an api::Server on
// localhost over a sharded exec::QueryService, driven by api::Client
// through the wire protocol. The transport-determinism contract — for
// every query kind, wire-executed results are byte-identical in result
// hash and logical fetch counts to in-process QueryService execution — is
// checked at shard counts K in {1, 2, 4}, and wire-streamed incremental
// sessions must replay a local IncrementalTopK iterator. Also covers
// protocol-level behavior a unit test can't: error transport for
// malformed specs, concurrent client connections, session cleanup on
// disconnect, and garbage-frame rejection on a live socket. And the two
// routes a wire request can take (DESIGN.md §6): inline on its connection
// thread when a slot is idle, through the work queue when none is, and
// both at once under mixed wire and in-process load (a stress case: wire
// requests execute on connection threads, so it runs under TSan too).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/api/socket_io.h"
#include "mcn/api/wire.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "test_util.h"

namespace mcn::api {
namespace {

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

std::vector<QuerySpec> MixedSpecs(const gen::ShardedInstance& instance,
                                  uint64_t seed, int count) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<QuerySpec> specs;
  specs.reserve(count);
  for (int i = 0; i < count; ++i) {
    QuerySpec spec;
    const graph::Location loc = instance.RandomQueryLocation(rng);
    switch (i % 3) {
      case 0:
        spec = SkylineSpec(loc);
        break;
      case 1:
        spec = TopKSpec(loc, 4, test::TestWeights(d, seed + i));
        break;
      case 2:
        spec = IncrementalSpec(loc, 3, test::TestWeights(d, seed + i));
        break;
    }
    spec.engine = i % 2 == 0 ? expand::EngineKind::kCea
                             : expand::EngineKind::kLsa;
    if (i % 5 == 4) {
      // Sprinkle in constraints so the filter crosses the wire too.
      if (spec.kind == QueryKind::kSkyline) {
        spec.preference.constraints.epsilon = 0.25;
      } else {
        spec.preference.constraints.cost_caps.assign(
            d, 1e9);  // permissive caps: exercises the code path
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct Endpoint {
  std::unique_ptr<gen::ShardedInstance> instance;
  std::unique_ptr<exec::QueryService> service;
  std::unique_ptr<Server> server;

  static Endpoint Make(int num_shards, int workers, uint64_t seed = 7,
                       exec::ServiceOptions opts = {}) {
    Endpoint ep;
    auto built = gen::BuildShardedInstance(SmallConfig(seed), num_shards);
    EXPECT_TRUE(built.ok());
    ep.instance = std::move(built).value();
    opts.num_workers = workers;
    opts.queue_capacity = 64;
    opts.pool_frames_per_worker = ep.instance->pool_frames;
    auto service = exec::QueryService::Create(&ep.instance->storage,
                                              ep.instance->files, opts);
    EXPECT_TRUE(service.ok());
    ep.service = std::move(service).value();
    auto server = Server::Start(ep.service.get(), {});
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    ep.server = std::move(server).value();
    return ep;
  }
};

TEST(ApiServerE2eTest, WireExecutionMatchesInProcessAcrossShardCounts) {
  // The flat-anchored hashes: K=1 in-process execution.
  std::vector<uint64_t> anchor_hashes;
  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE("K=" + std::to_string(num_shards));
    Endpoint ep = Endpoint::Make(num_shards, /*workers=*/3);
    const auto specs = MixedSpecs(*ep.instance, 123, 18);

    // In-process reference through the same service.
    std::vector<uint64_t> ref_hashes, ref_misses;
    for (const QuerySpec& spec : specs) {
      exec::QueryResult result = ep.service->Submit(spec).get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ref_hashes.push_back(result.result_hash);
      ref_misses.push_back(result.stats.buffer_misses);
    }

    // The same specs over the wire.
    auto client = Client::Connect("127.0.0.1", ep.server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t i = 0; i < specs.size(); ++i) {
      auto response = (*client)->Execute(specs[i]);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response.value().status.ok())
          << response.value().status.ToString();
      EXPECT_EQ(response.value().result_hash, ref_hashes[i])
          << "query " << i << ": wire result diverged from in-process";
      EXPECT_EQ(response.value().buffer_misses, ref_misses[i])
          << "query " << i << ": wire logical I/O diverged";
      // The hash transported must also match the rows transported.
      const QueryResponse& r = response.value();
      EXPECT_EQ(r.result_hash, r.kind == QueryKind::kSkyline
                                   ? algo::HashResult(r.skyline)
                                   : algo::HashResult(r.topk));
    }
    if (anchor_hashes.empty()) {
      anchor_hashes = ref_hashes;
    } else {
      // K-invariance carries through the transport trivially once the
      // above holds; assert it anyway so a drift names the shard count.
      EXPECT_EQ(ref_hashes, anchor_hashes);
    }
  }
}

TEST(ApiServerE2eTest, WireSessionReplaysLocalIterator) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/2, /*workers=*/2);
  const int d = ep.instance->graph.num_costs();
  Random rng(31);
  const graph::Location loc = ep.instance->RandomQueryLocation(rng);
  QuerySpec spec = IncrementalSpec(loc, 4, test::TestWeights(d, 17));

  // Local ground truth over the full component.
  std::vector<algo::TopKEntry> expected;
  {
    shard::ShardedNetworkReader reader(
        &ep.instance->storage, ep.instance->files,
        shard::SplitFramesAcrossShards(ep.instance->pool_frames,
                                       ep.instance->storage.num_shards()));
    auto engine = expand::MakeEngine(spec.engine, &reader, loc);
    ASSERT_TRUE(engine.ok());
    algo::IncrementalTopK local(engine.value().get(),
                                algo::WeightedSum(spec.preference.weights));
    for (;;) {
      auto next = local.NextBest();
      ASSERT_TRUE(next.ok());
      if (!next.value().has_value()) break;
      expected.push_back(*std::move(next).value());
    }
  }
  ASSERT_FALSE(expected.empty());

  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  std::vector<algo::TopKEntry> streamed;
  for (;;) {
    auto batch = (*client)->Next(*session, 3);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(batch.value().status.ok());
    for (auto& row : batch.value().topk) streamed.push_back(std::move(row));
    if (batch.value().exhausted) break;
    ASSERT_LE(streamed.size(), expected.size() + 3) << "stream overran";
  }
  EXPECT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(algo::HashResult(streamed), algo::HashResult(expected));

  EXPECT_TRUE((*client)->CloseSession(*session).ok());
  EXPECT_EQ((*client)->CloseSession(*session).code(),
            StatusCode::kNotFound);
}

TEST(ApiServerE2eTest, MalformedSpecsComeBackAsErrorsOverTheWire) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/1, /*workers=*/2);
  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok());
  Random rng(5);

  // Wrong-dimension weights: the server worker must answer with an
  // InvalidArgument response — not crash, not drop the connection.
  QuerySpec bad = TopKSpec(ep.instance->RandomQueryLocation(rng), 3, {1.0});
  auto response = (*client)->Execute(bad);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.value().num_rows(), 0u);

  // Unknown session ids are NotFound, also over the wire.
  auto next = (*client)->Next(987654, 3);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().status.code(), StatusCode::kNotFound);

  // Session ownership: a second connection can neither pull from nor
  // close a stream it did not open (ids are sequential and guessable).
  const int d = ep.instance->graph.num_costs();
  auto session = (*client)->OpenSession(IncrementalSpec(
      ep.instance->RandomQueryLocation(rng), 2, test::TestWeights(d, 8)));
  ASSERT_TRUE(session.ok());
  auto intruder = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(intruder.ok());
  auto stolen = (*intruder)->Next(*session, 5);
  ASSERT_TRUE(stolen.ok());
  EXPECT_EQ(stolen.value().status.code(), StatusCode::kNotFound);
  EXPECT_EQ((*intruder)->CloseSession(*session).code(),
            StatusCode::kNotFound);
  // The owner still reads its stream undisturbed from the start.
  auto owned = (*client)->Next(*session, 1);
  ASSERT_TRUE(owned.ok());
  EXPECT_TRUE(owned.value().status.ok());
  EXPECT_EQ(owned.value().topk.size(), 1u);
  EXPECT_TRUE((*client)->CloseSession(*session).ok());

  // The connection is still healthy afterwards.
  auto good =
      (*client)->Execute(SkylineSpec(ep.instance->RandomQueryLocation(rng)));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().status.ok());
}

TEST(ApiServerE2eTest, ConcurrentClientsGetConsistentAnswers) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/2, /*workers=*/4);
  const auto specs = MixedSpecs(*ep.instance, 99, 12);
  std::vector<uint64_t> ref;
  for (const QuerySpec& spec : specs) {
    exec::QueryResult result = ep.service->Submit(spec).get();
    ASSERT_TRUE(result.status.ok());
    ref.push_back(result.result_hash);
  }
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", ep.server->port());
      if (!client.ok()) {
        failures[c] = 1;
        return;
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        auto response = (*client)->Execute(specs[i]);
        if (!response.ok() || !response.value().status.ok() ||
            response.value().result_hash != ref[i]) {
          failures[c] = 1;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_GE(ep.server->connections_accepted(), 4u);
}

TEST(ApiServerE2eTest, SessionsAreClosedOnDisconnect) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/1, /*workers=*/2);
  const int d = ep.instance->graph.num_costs();
  Random rng(3);
  {
    auto client = Client::Connect("127.0.0.1", ep.server->port());
    ASSERT_TRUE(client.ok());
    auto session = (*client)->OpenSession(IncrementalSpec(
        ep.instance->RandomQueryLocation(rng), 2, test::TestWeights(d, 1)));
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(ep.service->num_open_sessions(), 1u);
  }  // client destroyed: disconnect
  // The server's connection thread notices EOF and closes the session.
  for (int spin = 0; spin < 200; ++spin) {
    if (ep.service->num_open_sessions() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ep.service->num_open_sessions(), 0u);
}

namespace mn = exec::metric_names;

/// Rows of a session streamed to exhaustion in batches of 3, in process.
std::vector<algo::TopKEntry> StreamInProcess(exec::QueryService& service,
                                             const QuerySpec& spec) {
  auto id = service.OpenSession(spec);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  std::vector<algo::TopKEntry> rows;
  for (;;) {
    exec::QueryResult batch = service.SessionNext(*id, 3).get();
    EXPECT_TRUE(batch.status.ok()) << batch.status.ToString();
    for (auto& row : batch.topk) rows.push_back(std::move(row));
    if (!batch.status.ok() || batch.exhausted) break;
  }
  EXPECT_TRUE(service.CloseSession(*id).ok());
  return rows;
}

TEST(ApiServerE2eTest, IdleServiceRunsWireRequestsInline) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/2, /*workers=*/2);
  const auto specs = MixedSpecs(*ep.instance, 61, 12);
  std::vector<uint64_t> ref_hashes, ref_misses;
  for (const QuerySpec& spec : specs) {
    exec::QueryResult result = ep.service->Submit(spec).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ref_hashes.push_back(result.result_hash);
    ref_misses.push_back(result.stats.buffer_misses);
  }
  const int d = ep.instance->graph.num_costs();
  Random rng(67);
  const QuerySpec stream_spec = IncrementalSpec(
      ep.instance->RandomQueryLocation(rng), 3, test::TestWeights(d, 71));
  const uint64_t ref_stream =
      algo::HashResult(StreamInProcess(*ep.service, stream_spec));
  ep.service->Drain();
  const uint64_t pool_before = ep.service->pool_executed();
  const uint64_t inline_before =
      ep.service->MetricsSnapshot().CounterValue(mn::kInline);
  EXPECT_EQ(inline_before, 0u) << "in-process Submit never runs inline";

  // One client at a time finds a slot idle and the queue empty, so every
  // request runs on its connection thread: one-shots and session batches.
  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  uint64_t requests = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto response = (*client)->Execute(specs[i]);
    ++requests;
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().status.ok())
        << response.value().status.ToString();
    EXPECT_EQ(response.value().result_hash, ref_hashes[i]) << "query " << i;
    EXPECT_EQ(response.value().buffer_misses, ref_misses[i]) << "query " << i;
  }
  auto session = (*client)->OpenSession(stream_spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<algo::TopKEntry> streamed;
  for (;;) {
    auto batch = (*client)->Next(*session, 3);
    ++requests;
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(batch.value().status.ok());
    for (auto& row : batch.value().topk) streamed.push_back(std::move(row));
    if (batch.value().exhausted) break;
  }
  EXPECT_EQ(algo::HashResult(streamed), ref_stream);
  EXPECT_TRUE((*client)->CloseSession(*session).ok());

  EXPECT_EQ(ep.service->MetricsSnapshot().CounterValue(mn::kInline) -
                inline_before,
            requests);
  EXPECT_EQ(ep.service->pool_executed(), pool_before)
      << "a wire request on an idle service went through the queue";
}

TEST(ApiServerE2eTest, BusySlotSendsWireRequestsThroughTheQueue) {
  // One slot, and every buffer miss sleeps 0.5 ms: the in-process filler
  // holds the slot (or waits for it in the queue) for about 0.2 s.
  exec::ServiceOptions opts;
  opts.io_latency_ms = 0.5;
  opts.simulate_io_stalls = true;
  Endpoint ep = Endpoint::Make(/*num_shards=*/1, /*workers=*/1, 7, opts);
  Random rng(73);
  const QuerySpec spec = SkylineSpec(ep.instance->RandomQueryLocation(rng));
  const QuerySpec filler = SkylineSpec(ep.instance->RandomQueryLocation(rng));
  const exec::QueryResult ref = ep.service->Submit(spec).get();
  ASSERT_TRUE(ref.status.ok());
  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ep.service->Drain();
  const obs::Snapshot before = ep.service->MetricsSnapshot();
  const uint64_t pool_before = ep.service->pool_executed();

  std::future<exec::QueryResult> held = ep.service->Submit(filler);
  // Submit returned, so the filler is queued or holds the only slot.
  auto response = (*client)->Execute(spec);
  const exec::QueryResult filled = held.get();
  ASSERT_TRUE(filled.status.ok());
  ASSERT_GE(filled.stats.stall_seconds, 0.05)
      << "the filler must hold the slot long enough to be seen";
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response.value().status.ok())
      << response.value().status.ToString();
  EXPECT_EQ(response.value().result_hash, ref.result_hash);
  EXPECT_EQ(response.value().buffer_misses, ref.stats.buffer_misses);

  ep.service->Drain();
  const obs::Snapshot after = ep.service->MetricsSnapshot();
  EXPECT_EQ(after.CounterValue(mn::kInline), before.CounterValue(mn::kInline))
      << "the wire request ran inline while the only slot was taken";
  EXPECT_EQ(ep.service->pool_executed() - pool_before, 2u);
  // The wire request waited in the queue while the filler slept its
  // stall: at least half of that stall is booked as queue wait.
  EXPECT_GE(after.CounterValue(mn::kQueueMicros) -
                before.CounterValue(mn::kQueueMicros),
            static_cast<uint64_t>(filled.stats.stall_seconds * 1e6 / 2));
}

TEST(ApiServerE2eTest, WireClientsAndInProcessCallersShareTwoSlots) {
  // Both routes at once over 2 slots: wire clients (inline when a slot is
  // idle), in-process Submit (always queued) and in-process SubmitAndWait
  // (either route). Execute's debug check aborts if two threads ever
  // enter one slot together; TSan watches the slots' readers and pools.
  Endpoint ep = Endpoint::Make(/*num_shards=*/2, /*workers=*/2);
  const auto specs = MixedSpecs(*ep.instance, 83, 12);
  std::vector<uint64_t> ref;
  for (const QuerySpec& spec : specs) {
    exec::QueryResult result = ep.service->Submit(spec).get();
    ASSERT_TRUE(result.status.ok());
    ref.push_back(result.result_hash);
  }
  const int d = ep.instance->graph.num_costs();
  Random rng(89);
  const QuerySpec stream_spec = IncrementalSpec(
      ep.instance->RandomQueryLocation(rng), 3, test::TestWeights(d, 97));
  const uint64_t ref_stream =
      algo::HashResult(StreamInProcess(*ep.service, stream_spec));
  ep.service->Drain();
  const obs::Snapshot before = ep.service->MetricsSnapshot();
  const uint64_t pool_before = ep.service->pool_executed();

  constexpr int kWireClients = 3;
  constexpr int kInProcessCallers = 2;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> session_batches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kWireClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", ep.server->port());
      if (!client.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < specs.size(); ++j) {
          const size_t i = (j + static_cast<size_t>(c) * 5) % specs.size();
          auto response = (*client)->Execute(specs[i]);
          if (!response.ok() || !response.value().status.ok() ||
              response.value().result_hash != ref[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
      if (c != 0) return;
      // One client also streams a session, so kNext batches share the
      // slots too.
      auto session = (*client)->OpenSession(stream_spec);
      if (!session.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      std::vector<algo::TopKEntry> streamed;
      for (;;) {
        auto batch = (*client)->Next(*session, 3);
        session_batches.fetch_add(1);
        if (!batch.ok() || !batch.value().status.ok()) {
          mismatches.fetch_add(1);
          return;
        }
        for (auto& row : batch.value().topk) streamed.push_back(row);
        if (batch.value().exhausted) break;
      }
      if (algo::HashResult(streamed) != ref_stream) mismatches.fetch_add(1);
      if (!(*client)->CloseSession(*session).ok()) mismatches.fetch_add(1);
    });
  }
  for (int c = 0; c < kInProcessCallers; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < specs.size(); ++j) {
          const size_t i = (j + static_cast<size_t>(c) * 7) % specs.size();
          exec::QueryResult queued = ep.service->Submit(specs[i]).get();
          exec::QueryResult waited = ep.service->SubmitAndWait(specs[i]);
          if (!queued.status.ok() || queued.result_hash != ref[i] ||
              !waited.status.ok() || waited.result_hash != ref[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  ep.service->Drain();
  const obs::Snapshot after = ep.service->MetricsSnapshot();
  const uint64_t requests =
      specs.size() * kRounds * (kWireClients + 2 * kInProcessCallers) +
      session_batches.load();
  EXPECT_EQ(after.CounterValue(mn::kCompleted) -
                before.CounterValue(mn::kCompleted),
            requests);
  EXPECT_EQ(after.CounterValue(mn::kFailed), before.CounterValue(mn::kFailed));
  // Every request took exactly one route.
  const uint64_t ran_inline =
      after.CounterValue(mn::kInline) - before.CounterValue(mn::kInline);
  EXPECT_EQ(ran_inline + (ep.service->pool_executed() - pool_before),
            requests);
  EXPECT_GE(ep.service->pool_executed() - pool_before,
            specs.size() * kRounds * kInProcessCallers)
      << "every in-process Submit is queued";
}

/// Raw loopback connection for protocol-violation probes.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

TEST(ApiServerE2eTest, GarbageFramesAreRejectedWithoutTakingTheServerDown) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/1, /*workers=*/2);

  {
    // Version-mismatch frame: the server must answer with an error
    // response, then hang up this connection.
    WireRequest request;
    request.type = MsgType::kCloseSession;
    request.session_id = 1;
    std::string frame = EncodeRequestFrame(request);
    frame[4] = static_cast<char>(kWireVersion + 7);  // payload[0] = version
    const int fd = RawConnect(ep.server->port());
    ASSERT_TRUE(SendFrame(fd, frame).ok());
    auto payload = RecvFramePayload(fd);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto response = DecodeResponsePayload(payload.value());
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.value().response.status.ok());
    EXPECT_NE(
        response.value().response.status.message().find("version"),
        std::string::npos);
    // The stream is dropped after a framing error: next read is EOF.
    auto eof = RecvFramePayload(fd);
    EXPECT_FALSE(eof.ok());
    ::close(fd);
  }
  {
    // Pure garbage bytes framed with a plausible length.
    const int fd = RawConnect(ep.server->port());
    std::string garbage("\x08\x00\x00\x00metadata", 12);
    ASSERT_TRUE(SendFrame(fd, garbage).ok());
    auto payload = RecvFramePayload(fd);
    ASSERT_TRUE(payload.ok());
    auto response = DecodeResponsePayload(payload.value());
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.value().response.status.ok());
    ::close(fd);
  }

  // A live server outlives protocol violators and still serves new
  // connections.
  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok());
  Random rng(9);
  auto good =
      (*client)->Execute(SkylineSpec(ep.instance->RandomQueryLocation(rng)));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().status.ok());
}

}  // namespace
}  // namespace mcn::api
