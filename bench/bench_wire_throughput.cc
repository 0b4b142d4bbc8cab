// Wire-protocol throughput/latency benchmark (DESIGN.md §9).
//
// Builds the fig. 8(a) base instance at MCN_BENCH_SCALE, stands up an
// exec::QueryService (fixed worker count) behind an api::Server on
// 127.0.0.1, and drives a closed-loop multi-client load: each client is
// its own api::Client connection on its own thread, executing the same
// fixed mixed QuerySpec list (skyline / top-k / incremental) synchronously
// over the wire. The sweep varies the client count; per-miss I/O stalls
// are slept for real on the server, so the measured QPS reflects how well
// concurrent connections overlap across the service workers.
//
// Parity gate (the transport-determinism contract): every wire response
// must carry the same result hash AND the same logical fetch counts as
// in-process QueryService execution of the identical spec — checked for
// both engine flavors before the sweep, plus a wire-streamed incremental
// session that must replay the in-process session stream batch for batch.
// Any divergence aborts the run. The run also aborts when QPS at 4
// clients is below MCN_WIRE_MIN_SPEEDUP (default 2.0) x the 1-client QPS.
//
// Output: one PrintRow per client count (mcn-bench-v2 rows: qps, client-
// observed RTT percentiles in latency_p50/p95/p99_ms, result hash mixed
// over the responses in submission order). Per client count, stderr also
// gets the share of requests that ran inline on their connection thread
// (mcn.service.inline, DESIGN.md §6): with fewer clients than workers a
// slot is usually idle, with more some requests queue.
//
// Extra environment knobs (on top of the harness ones):
//   MCN_WIRE_REQUESTS     specs in the per-client loop    (default 48)
//   MCN_WIRE_WORKERS      service workers                 (default 4)
//   MCN_WIRE_STALL_US     slept stall per miss, in us     (default 20)
//   MCN_WIRE_MIN_SPEEDUP  abort threshold, 0 disables     (default 2.0)
//   MCN_TRACE_OUT         when set, an extra post-sweep capture run stands
//                         up a K=4 *sharded* service, enables the tracer,
//                         drives a short mixed wire load, and writes the
//                         merged Chrome trace_event JSON (Perfetto-loadable)
//                         to this path — the CI bench-smoke trace artifact
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "mcn/obs/trace.h"

namespace mcn::bench {
namespace {

std::vector<api::QuerySpec> MixedSpecs(gen::ShardedInstance& instance,
                                       expand::EngineKind engine,
                                       uint64_t seed, int count) {
  Random rng(seed);
  const int d = instance.graph.num_costs();
  std::vector<api::QuerySpec> specs;
  specs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const graph::Location loc = instance.RandomQueryLocation(rng);
    api::QuerySpec spec;
    switch (i % 3) {
      case 0:
        spec = api::SkylineSpec(loc);
        break;
      case 1: {
        std::vector<double> weights(d);
        for (double& w : weights) w = rng.NextDouble();
        spec = api::TopKSpec(loc, 4, std::move(weights));
        break;
      }
      case 2: {
        std::vector<double> weights(d);
        for (double& w : weights) w = rng.NextDouble();
        spec = api::IncrementalSpec(loc, 3, std::move(weights));
        break;
      }
    }
    spec.engine = engine;
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct Reference {
  std::vector<uint64_t> hashes;  ///< per spec, list order
  std::vector<uint64_t> misses;
  double avg_result_size = 0;
};

Reference InProcessReference(exec::QueryService& service,
                             const std::vector<api::QuerySpec>& specs) {
  Reference ref;
  double total_size = 0;
  for (const api::QuerySpec& spec : specs) {
    exec::QueryResult result = service.Submit(spec).get();
    MCN_CHECK(result.status.ok());
    ref.hashes.push_back(result.result_hash);
    ref.misses.push_back(result.stats.buffer_misses);
    total_size += static_cast<double>(result.kind == api::QueryKind::kSkyline
                                          ? result.skyline.size()
                                          : result.topk.size());
  }
  ref.avg_result_size = total_size / static_cast<double>(specs.size());
  return ref;
}

/// Streams one incremental session over the wire and in process; aborts
/// on any sequence divergence (the session leg of the parity gate).
void CheckSessionParity(exec::QueryService& service, int port,
                        gen::ShardedInstance& instance, int d, uint64_t seed) {
  Random rng(seed);
  std::vector<double> weights(d);
  for (double& w : weights) w = rng.NextDouble();
  const api::QuerySpec spec = api::IncrementalSpec(
      instance.RandomQueryLocation(rng), 8, weights);
  constexpr int kBatches = 8;
  constexpr int kBatchSize = 8;

  auto local_id = service.OpenSession(spec);
  MCN_CHECK(local_id.ok());
  auto client = api::Client::Connect("127.0.0.1", port);
  MCN_CHECK(client.ok());
  auto wire_id = (*client)->OpenSession(spec);
  MCN_CHECK(wire_id.ok());

  for (int b = 0; b < kBatches; ++b) {
    exec::QueryResult local =
        service.SessionNext(*local_id, kBatchSize).get();
    MCN_CHECK(local.status.ok());
    auto wire = (*client)->Next(*wire_id, kBatchSize);
    MCN_CHECK(wire.ok());
    MCN_CHECK(wire.value().status.ok());
    if (wire.value().result_hash != local.result_hash ||
        wire.value().exhausted != local.exhausted) {
      std::fprintf(stderr,
                   "PARITY FAILURE: session batch %d wire hash %016" PRIx64
                   " != in-process %016" PRIx64 "\n",
                   b, wire.value().result_hash, local.result_hash);
      std::abort();
    }
    if (local.exhausted) break;
  }
  MCN_CHECK(service.CloseSession(*local_id).ok());
  MCN_CHECK((*client)->CloseSession(*wire_id).ok());
}

struct SweepPoint {
  RunMetrics metrics;
};

/// MCN_TRACE_OUT capture run (after the sweep, outside the timed window):
/// stands up a K=4 *sharded* service behind a fresh wire server, turns the
/// tracer on, drives a short mixed load with intra-query parallelism (so
/// the trace shows pooled kExpansionTurn spans and kProbeFetch events with
/// miss + local/remote flags), and writes the merged Chrome trace_event
/// JSON to `path` — loadable in https://ui.perfetto.dev.
void CaptureShardedTrace(const BenchEnv& env, const char* path) {
  constexpr int kShards = 4;
  gen::ExperimentConfig config;
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  std::printf("trace capture: building K=%d sharded layout...\n", kShards);
  auto instance = gen::BuildShardedInstance(scaled, kShards);
  MCN_CHECK(instance.ok());
  exec::ServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 64;
  opts.pool_frames_per_worker = (*instance)->pool_frames;
  opts.per_query_parallelism = 2;  // spec.parallelism below clamps to this
  auto service = exec::QueryService::Create(&(*instance)->storage,
                                            (*instance)->files, opts);
  MCN_CHECK(service.ok());
  auto server = api::Server::Start((*service).get(), {});
  MCN_CHECK(server.ok());

  obs::Tracer::Global().Enable();
  Random rng(777);
  const int d = (*instance)->graph.num_costs();
  auto client = api::Client::Connect("127.0.0.1", (*server)->port());
  MCN_CHECK(client.ok());
  for (int i = 0; i < 12; ++i) {
    const graph::Location loc = (*instance)->RandomQueryLocation(rng);
    api::QuerySpec spec;
    if (i % 3 == 0) {
      spec = api::SkylineSpec(loc);
    } else {
      std::vector<double> weights(d);
      for (double& w : weights) w = rng.NextDouble();
      spec = i % 3 == 1 ? api::TopKSpec(loc, 4, std::move(weights))
                        : api::IncrementalSpec(loc, 3, std::move(weights));
    }
    spec.parallelism = 2;  // pooled turns -> kExpansionTurn trace spans
    auto response = (*client)->Execute(spec);
    MCN_CHECK(response.ok());
    MCN_CHECK(response.value().status.ok());
  }
  // Scrape the trace over the wire (kGetTrace) — the same bytes a live
  // tools/mcn_stat.py --trace pull would see.
  auto trace = (*client)->GetTrace();
  MCN_CHECK(trace.ok());
  obs::Tracer::Global().Disable();
  std::FILE* f = std::fopen(path, "w");
  MCN_CHECK(f != nullptr);
  std::fwrite(trace.value().data(), 1, trace.value().size(), f);
  std::fclose(f);
  std::printf(
      "trace capture: %zu bytes -> %s (load in https://ui.perfetto.dev)\n",
      trace.value().size(), path);
  (*server)->Stop();
  (*service)->Shutdown();
}

SweepPoint RunClients(int port, int num_clients,
                      const std::vector<api::QuerySpec>& specs,
                      const Reference& ref, const BenchEnv& env,
                      const char* engine_name) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> rtts_ms(num_clients);
  std::vector<uint64_t> client_misses(num_clients, 0);
  std::vector<int> failures(num_clients, 0);
  Stopwatch wall;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = api::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures[c] = 1;
        return;
      }
      rtts_ms[c].reserve(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        Stopwatch rtt;
        auto response = (*client)->Execute(specs[i]);
        rtts_ms[c].push_back(rtt.ElapsedSeconds() * 1e3);
        if (!response.ok() || !response.value().status.ok()) {
          failures[c] = 2;
          return;
        }
        // Closed-loop parity: every response, from every client, must
        // match the in-process reference bit for bit (hash) and count
        // for count (logical I/O).
        if (response.value().result_hash != ref.hashes[i] ||
            response.value().buffer_misses != ref.misses[i]) {
          std::fprintf(stderr,
                       "PARITY FAILURE: %s clients=%d query %zu wire hash "
                       "%016" PRIx64 " misses %" PRIu64
                       " != in-process %016" PRIx64 " / %" PRIu64 "\n",
                       engine_name, num_clients, i,
                       response.value().result_hash,
                       response.value().buffer_misses, ref.hashes[i],
                       ref.misses[i]);
          failures[c] = 3;
          return;
        }
        client_misses[c] += response.value().buffer_misses;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();
  for (int c = 0; c < num_clients; ++c) {
    if (failures[c] != 0) {
      std::fprintf(stderr, "FAILURE: client %d failed (code %d)\n", c,
                   failures[c]);
      std::abort();
    }
  }

  SweepPoint point;
  point.metrics.queries = static_cast<int>(specs.size()) * num_clients;
  point.metrics.result_size = ref.avg_result_size;
  std::vector<double> all_rtts;
  for (int c = 0; c < num_clients; ++c) {
    all_rtts.insert(all_rtts.end(), rtts_ms[c].begin(), rtts_ms[c].end());
    point.metrics.buffer_misses += client_misses[c];
  }
  // One deterministic hash per row: the reference hashes mixed in spec
  // order (every client's stream already proved equal to it above).
  point.metrics.result_hash = kFnvOffsetBasis;
  for (uint64_t h : ref.hashes) {
    point.metrics.result_hash = algo::FnvMixU64(point.metrics.result_hash, h);
  }
  // Every client executed the same spec list: the modeled per-query time
  // stays constant across the sweep (misses x latency, once per request).
  for (uint64_t m : ref.misses) {
    point.metrics.modeled_seconds += static_cast<double>(m) *
                                     env.io_latency_ms / 1000.0 *
                                     num_clients;
  }
  std::sort(all_rtts.begin(), all_rtts.end());
  point.metrics.latency_p50_ms = PercentileSorted(all_rtts, 50);
  point.metrics.latency_p95_ms = PercentileSorted(all_rtts, 95);
  point.metrics.latency_p99_ms = PercentileSorted(all_rtts, 99);
  point.metrics.qps =
      static_cast<double>(point.metrics.queries) / wall_seconds;
  return point;
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int num_requests =
      static_cast<int>(EnvDouble("MCN_WIRE_REQUESTS", 48));
  const int workers = static_cast<int>(EnvDouble("MCN_WIRE_WORKERS", 4));
  const double stall_us = EnvDouble("MCN_WIRE_STALL_US", 20.0);
  const double min_speedup = EnvDouble("MCN_WIRE_MIN_SPEEDUP", 2.0);
  MCN_CHECK(num_requests > 0 && workers > 0 && stall_us >= 0);

  gen::ExperimentConfig config;  // fig. 8(a) base: the paper's defaults
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  std::printf("building instance (%s)...\n", scaled.ToString().c_str());
  auto instance = gen::BuildShardedInstance(scaled, /*num_shards=*/1);
  MCN_CHECK(instance.ok());
  const int d = (*instance)->graph.num_costs();

  exec::ServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = 256;
  opts.pool_frames_per_worker = (*instance)->pool_frames;
  opts.io_latency_ms = stall_us / 1000.0;
  opts.simulate_io_stalls = stall_us > 0;
  auto service = exec::QueryService::Create(&(*instance)->storage,
                                            (*instance)->files, opts);
  MCN_CHECK(service.ok());
  auto server = api::Server::Start((*service).get(), {});
  MCN_CHECK(server.ok());
  std::printf("server up on 127.0.0.1:%d (%d workers)\n",
              (*server)->port(), workers);

  const auto specs_lsa =
      MixedSpecs(**instance, expand::EngineKind::kLsa, 2026, num_requests);
  const auto specs_cea =
      MixedSpecs(**instance, expand::EngineKind::kCea, 2026, num_requests);
  std::printf("computing in-process reference (%d specs x 2 engines)...\n",
              num_requests);
  const Reference ref_lsa = InProcessReference(**service, specs_lsa);
  const Reference ref_cea = InProcessReference(**service, specs_cea);

  std::printf("checking wire session parity...\n");
  CheckSessionParity(**service, (*server)->port(), **instance, d, 4242);

  PrintHeader(
      "Wire throughput: closed-loop QPS vs clients (fig. 8(a) base)",
      "clients", scaled, env);
  std::printf(
      "requests/client=%d workers=%d stall/miss=%.1fus "
      "(MCN_WIRE_REQUESTS / MCN_WIRE_WORKERS / MCN_WIRE_STALL_US)\n",
      num_requests, workers, stall_us);

  const int client_sweep[] = {1, 2, 4, 8};
  double qps1 = 0, qps4 = 0;
  for (int clients : client_sweep) {
    (*service)->ResetStats();
    SweepPoint lsa = RunClients((*server)->port(), clients, specs_lsa,
                                ref_lsa, env, "LSA");
    SweepPoint cea = RunClients((*server)->port(), clients, specs_cea,
                                ref_cea, env, "CEA");
    AlgoComparison c;
    c.lsa = lsa.metrics;
    c.cea = cea.metrics;
    // Row "obs" object: the service registry after both engines' sweeps
    // (ResetStats above scoped it to this client count).
    const obs::Snapshot snap = (*service)->MetricsSnapshot();
    PrintRow(std::to_string(clients), c, snap);
    const uint64_t ran_inline =
        snap.CounterValue(exec::metric_names::kInline);
    const uint64_t executed =
        snap.CounterValue(exec::metric_names::kCompleted) +
        snap.CounterValue(exec::metric_names::kFailed);
    std::fprintf(stderr,
                 "clients=%d: %" PRIu64 " of %" PRIu64
                 " requests ran inline (%.0f%%)\n",
                 clients, ran_inline, executed,
                 executed > 0 ? 100.0 * static_cast<double>(ran_inline) /
                                    static_cast<double>(executed)
                              : 0.0);
    std::printf(
        "    wire: LSA %7.2f qps  rtt p50/p95/p99 %6.2f/%6.2f/%6.2f ms | "
        "CEA %7.2f qps  rtt p50/p95/p99 %6.2f/%6.2f/%6.2f ms\n",
        lsa.metrics.qps, lsa.metrics.latency_p50_ms,
        lsa.metrics.latency_p95_ms, lsa.metrics.latency_p99_ms,
        cea.metrics.qps, cea.metrics.latency_p50_ms,
        cea.metrics.latency_p95_ms, cea.metrics.latency_p99_ms);
    if (clients == 1) qps1 = cea.metrics.qps;
    if (clients == 4) qps4 = cea.metrics.qps;
  }
  PrintFooter();

  std::printf(
      "wire parity: every response hash-identical and logical-I/O-"
      "identical to in-process execution, both engines, all client "
      "counts; session stream batch-identical.\n");
  const double speedup = qps1 > 0 ? qps4 / qps1 : 0;
  std::printf("QPS speedup at 4 clients vs 1: %.2fx\n", speedup);
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAILURE: 4-client QPS speedup below %.2fx "
                 "(MCN_WIRE_MIN_SPEEDUP)\n",
                 min_speedup);
    return 1;
  }
  (*server)->Stop();
  (*service)->Shutdown();

  if (const char* trace_out = std::getenv("MCN_TRACE_OUT");
      trace_out != nullptr && *trace_out != '\0') {
    CaptureShardedTrace(env, trace_out);
  }
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
