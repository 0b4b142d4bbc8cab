// Wire-served introspection + flight recorder (DESIGN.md §11): a
// kGetMetrics TCP scrape must match the in-process MetricsSnapshot
// counter for counter, a kGetTrace scrape of a K=4 sharded run must
// contain the taxonomy the acceptance trace needs (queue wait, expansion
// turns, probe fetches with miss/remote attribution, wire codec spans),
// and a flight-recorder digest's replay_hex must decode to a kExecute
// frame whose re-execution reproduces the recorded result hash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/api/wire.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "mcn/obs/flight_recorder.h"
#include "mcn/obs/metrics.h"
#include "mcn/obs/trace.h"
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

struct Endpoint {
  std::unique_ptr<gen::ShardedInstance> instance;
  std::unique_ptr<exec::QueryService> service;
  std::unique_ptr<Server> server;

  static Endpoint Make(int num_shards, int workers,
                       obs::FlightRecorder* recorder = nullptr,
                       uint64_t seed = 7) {
    Endpoint ep;
    auto built = gen::BuildShardedInstance(SmallConfig(seed), num_shards);
    EXPECT_TRUE(built.ok());
    ep.instance = std::move(built).value();
    exec::ServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 64;
    opts.pool_frames_per_worker = ep.instance->pool_frames;
    opts.per_query_parallelism = 2;  // lets spec.parallelism=2 pool turns
    opts.flight_recorder = recorder;
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

std::vector<QuerySpec> MixedSpecs(const gen::ShardedInstance& instance,
                                  uint64_t seed, int count,
                                  int32_t parallelism) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<QuerySpec> specs;
  for (int i = 0; i < count; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    QuerySpec spec = i % 2 == 0
                         ? SkylineSpec(loc)
                         : TopKSpec(loc, 4, test::TestWeights(d, seed + i));
    spec.engine = i % 2 == 0 ? expand::EngineKind::kCea
                             : expand::EngineKind::kLsa;
    spec.parallelism = parallelism;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ObsIntrospectionTest, WireMetricsScrapeMatchesInProcessSnapshot) {
  Endpoint ep = Endpoint::Make(/*num_shards=*/2, /*workers=*/2);
  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const QuerySpec& spec :
       MixedSpecs(*ep.instance, 41, 10, /*parallelism=*/0)) {
    auto response = (*client)->Execute(spec);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().status.ok());
  }

  auto scraped = (*client)->GetMetrics();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  const obs::Snapshot local = ep.service->MetricsSnapshot();

  // The service is quiesced (every Execute returned), so every counter
  // and histogram must agree exactly; only clock-derived gauges (uptime)
  // may drift between the two snapshots.
  EXPECT_EQ(scraped.value().CounterValue(exec::metric_names::kCompleted),
            10u);
  EXPECT_EQ(scraped.value().CounterValue(exec::metric_names::kFailed), 0u);
  for (const obs::CounterRow& row : local.counters) {
    EXPECT_EQ(scraped.value().CounterValue(row.name, ~0ull), row.value)
        << "counter " << row.name;
  }
  for (const obs::HistogramSnapshot& h : local.histograms) {
    const obs::HistogramSnapshot* wire =
        scraped.value().FindHistogram(h.name);
    ASSERT_NE(wire, nullptr) << "histogram " << h.name;
    EXPECT_EQ(wire->count, h.count) << h.name;
    EXPECT_EQ(wire->sum, h.sum) << h.name;
    EXPECT_EQ(wire->buckets, h.buckets) << h.name;
  }
  for (const obs::GaugeRow& row : local.gauges) {
    EXPECT_NE(scraped.value().GaugeValue(row.name, -1.0), -1.0)
        << "gauge " << row.name << " missing from the scrape";
  }
}

TEST(ObsIntrospectionTest, ShardedWireTraceCarriesTheFullTaxonomy) {
  obs::Tracer::Global().Enable();
  Endpoint ep = Endpoint::Make(/*num_shards=*/4, /*workers=*/3);
  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok());
  // parallelism=2 exercises the pooled probe scheduler, whose per-turn
  // spans and cross-thread fetch attribution are the hard part.
  for (const QuerySpec& spec :
       MixedSpecs(*ep.instance, 99, 8, /*parallelism=*/2)) {
    auto response = (*client)->Execute(spec);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().status.ok());
  }
  auto trace = (*client)->GetTrace();
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const std::string& json = trace.value();
#if MCN_OBS
  for (const char* name :
       {"\"query\"", "\"queue_wait\"", "\"exec\"", "\"expansion_turn\"",
        "\"probe_fetch\"", "\"wire_decode\"", "\"wire_encode\""}) {
    EXPECT_NE(json.find(name), std::string::npos)
        << name << " missing from the wire-scraped trace";
  }
  // K=4 with per-shard pools must surface both attribution flags
  // somewhere in the mix: pool misses on first touches, and remote
  // routed fetches once expansion crosses a partition boundary.
  EXPECT_NE(json.find("\"miss\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"remote\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pooled\": 1"), std::string::npos);
#else
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
#endif
}

TEST(ObsIntrospectionTest, FlightRecorderReplayFrameReproducesTheQuery) {
  obs::FlightRecorder::Options options;
  options.capacity = 8;
  options.slow_query_ms = 0;  // record digests only, no slow log
  obs::FlightRecorder recorder(options);
  Endpoint ep = Endpoint::Make(/*num_shards=*/2, /*workers=*/2, &recorder);

  auto client = Client::Connect("127.0.0.1", ep.server->port());
  ASSERT_TRUE(client.ok());
  const auto specs = MixedSpecs(*ep.instance, 55, 12, /*parallelism=*/0);
  std::vector<uint64_t> hashes;
  for (const QuerySpec& spec : specs) {
    auto response = (*client)->Execute(spec);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response.value().status.ok());
    hashes.push_back(response.value().result_hash);
  }

  // The ring holds the last `capacity` digests, oldest first, seq
  // strictly monotone.
  const std::vector<obs::QueryDigest> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), options.capacity);
  EXPECT_EQ(recorder.recorded(), specs.size());
  EXPECT_EQ(recorder.slow_logged(), 0u);
  for (size_t i = 0; i < recent.size(); ++i) {
    if (i > 0) EXPECT_EQ(recent[i].seq, recent[i - 1].seq + 1);
    EXPECT_EQ(recent[i].status, "Ok");
    EXPECT_EQ(recent[i].result_hash,
              hashes[specs.size() - recent.size() + i]);

    // replay_hex is a complete kExecute frame: length prefix + payload.
    std::string frame;
    ASSERT_TRUE(obs::FromHex(recent[i].spec_frame_hex, &frame));
    ASSERT_GT(frame.size(), 4u);
    auto decoded = DecodeRequestPayload(frame.substr(4));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().type, MsgType::kExecute);

    // Byte-for-byte replay semantics: re-running the decoded spec yields
    // the recorded hash (what tools/replay_query.py checks end to end).
    exec::QueryResult replayed =
        ep.service->Submit(decoded.value().spec).get();
    ASSERT_TRUE(replayed.status.ok());
    EXPECT_EQ(replayed.result_hash, recent[i].result_hash)
        << "digest seq " << recent[i].seq;

    // The digest's JSON line carries the replay frame and timings.
    const std::string line = obs::DigestToJson(recent[i]);
    EXPECT_NE(line.find("\"replay_hex\""), std::string::npos);
    EXPECT_NE(line.find("\"latency_ms\""), std::string::npos);
    EXPECT_NE(line.find("\"result_hash\""), std::string::npos);
  }
}

TEST(ObsIntrospectionTest, HexRoundTripsArbitraryBytes) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  const std::string hex = obs::ToHex(bytes);
  EXPECT_EQ(hex.size(), 512u);
  std::string back;
  ASSERT_TRUE(obs::FromHex(hex, &back));
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(obs::FromHex("abc", &back));   // odd length
  EXPECT_FALSE(obs::FromHex("zz", &back));    // non-hex
  ASSERT_TRUE(obs::FromHex("", &back));
  EXPECT_TRUE(back.empty());
}

}  // namespace
}  // namespace mcn::api
