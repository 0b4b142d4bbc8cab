// Sharded-partition scaling benchmark (DESIGN.md §8).
//
// Builds the fig. 8(a) base configuration once per shard count K in
// {1, 2, 4} — the *same* generated network every time, laid out as K
// per-tile file sets — and serves an identical fixed set of skyline
// queries through an exec::QueryService at a fixed worker count, for both
// engine flavors. Every worker drains the service's one work queue; each
// query's fetches are booked local or remote against the tile of its
// location. Per-miss I/O stalls are slept for real so QPS reflects
// overlapped I/O across the shard pools.
//
// Pool memory model (MCN_SHARD_POOL_MODE): "socket" (default) gives every
// shard pool the full per-worker frame budget — the ROADMAP's per-socket
// model, where each socket contributes its own DIMMs and aggregate buffer
// grows with K. "split" divides the budget across the K shard pools
// (iso-memory with K = 1); it isolates the cost of statically
// partitioning LRU capacity, which inflates misses at the paper's small
// buffer sizes — the honest price of the cut, reported rather than hidden.
//
// Output: one PrintRow per K (mcn-bench-v2 rows carrying qps + latency
// percentiles + the local/remote routed-fetch split), plus the per-K
// remote-fetch ratio — the §2 accounting of how often a d-expansion
// escapes its home tile. The run aborts if
//   * any K produces a result hash different from direct single-threaded
//     execution on the K = 1 layout (the determinism contract), or
//   * K = 1 reports any remote fetch, or
//   * QPS at K = 4 falls below MCN_SHARD_MIN_QPS_RATIO x the K = 1 QPS
//     (default 0.5 in socket mode, 0.15 in split mode; 0 disables).
//
// Extra environment knobs (on top of the harness ones):
//   MCN_SHARD_WORKERS        service workers per sweep point (default 4)
//   MCN_SHARD_REQUESTS       queries per sweep point         (default 96)
//   MCN_SHARD_STALL_US       slept stall per miss, in us     (default 20)
//   MCN_SHARD_PIN_WORKERS    1 = pin worker threads (default 0: CI-safe)
//   MCN_SHARD_POOL_MODE      "socket" (default) or "split"; see above
//   MCN_SHARD_MIN_QPS_RATIO  abort threshold, 0 disables
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"

namespace mcn::bench {
namespace {

struct Reference {
  std::vector<uint64_t> hashes;
  double avg_result_size = 0;
};

// Direct single-threaded execution on the K = 1 instance's own reader —
// the parity anchor every service run is compared against.
Reference DirectReference(gen::ShardedInstance& instance,
                          expand::EngineKind kind,
                          const std::vector<graph::Location>& locations) {
  Reference ref;
  double total_size = 0;
  for (const graph::Location& loc : locations) {
    instance.ResetIoState();
    auto engine = expand::MakeEngine(kind, instance.reader.get(), loc);
    MCN_CHECK(engine.ok());
    algo::SkylineQuery query(engine.value().get());
    auto rows = query.ComputeAll();
    MCN_CHECK(rows.ok());
    ref.hashes.push_back(algo::HashResult(rows.value()));
    total_size += static_cast<double>(rows.value().size());
  }
  ref.avg_result_size = total_size / static_cast<double>(locations.size());
  return ref;
}

RunMetrics RunSharded(gen::ShardedInstance& instance,
                      expand::EngineKind kind, int workers, double stall_us,
                      bool pin, bool split_pools, const BenchEnv& env,
                      const std::vector<graph::Location>& locations,
                      const Reference& ref) {
  exec::ServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = locations.size() + 1;
  opts.pool_frames_per_worker = instance.pool_frames;
  opts.io_latency_ms = stall_us / 1000.0;
  opts.simulate_io_stalls = stall_us > 0;
  opts.pin_workers = pin;
  opts.split_pool_across_shards = split_pools;
  auto service =
      exec::QueryService::Create(&instance.storage, instance.files, opts);
  MCN_CHECK(service.ok());

  std::vector<std::future<exec::QueryResult>> futures;
  futures.reserve(locations.size());
  Stopwatch wall;
  for (const graph::Location& loc : locations) {
    api::QuerySpec spec = api::SkylineSpec(loc);
    spec.engine = kind;
    futures.push_back((*service)->Submit(std::move(spec)));
  }

  RunMetrics metrics;
  metrics.queries = static_cast<int>(locations.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    exec::QueryResult result = futures[i].get();
    MCN_CHECK(result.status.ok());
    if (result.result_hash != ref.hashes[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: K=%d query %zu hash %016" PRIx64
                   " != K=1 single-threaded %016" PRIx64 "\n",
                   instance.storage.num_shards(), i, result.result_hash,
                   ref.hashes[i]);
      std::abort();
    }
    metrics.result_hash =
        algo::FnvMixU64(metrics.result_hash, result.result_hash);
    metrics.result_size += static_cast<double>(result.skyline.size());
    metrics.cpu_seconds += result.stats.exec_seconds;
    metrics.buffer_misses += result.stats.buffer_misses;
    metrics.buffer_accesses += result.stats.buffer_accesses;
    metrics.modeled_seconds +=
        result.stats.exec_seconds +
        static_cast<double>(result.stats.buffer_misses) * env.io_latency_ms /
            1000.0;
  }
  const double wall_seconds = wall.ElapsedSeconds();
  metrics.result_size /= static_cast<double>(locations.size());

  namespace mn = exec::metric_names;
  const obs::Snapshot snap = (*service)->MetricsSnapshot();
  const obs::HistogramSnapshot* latency_us = snap.FindHistogram(mn::kLatencyUs);
  metrics.latency_p50_ms = latency_us->ValueAtQuantile(0.50) / 1e3;
  metrics.latency_p95_ms = latency_us->ValueAtQuantile(0.95) / 1e3;
  metrics.latency_p99_ms = latency_us->ValueAtQuantile(0.99) / 1e3;
  metrics.qps = static_cast<double>(locations.size()) / wall_seconds;
  for (int s = 0; s < instance.storage.num_shards(); ++s) {
    metrics.local_fetches += snap.CounterValue(mn::Shard(s, "local_fetches"));
    metrics.remote_fetches +=
        snap.CounterValue(mn::Shard(s, "remote_fetches"));
  }
  (*service)->Shutdown();
  return metrics;
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int workers = static_cast<int>(EnvDouble("MCN_SHARD_WORKERS", 4));
  const int num_requests =
      static_cast<int>(EnvDouble("MCN_SHARD_REQUESTS", 96));
  const double stall_us = EnvDouble("MCN_SHARD_STALL_US", 20.0);
  const bool pin = EnvDouble("MCN_SHARD_PIN_WORKERS", 0) > 0;
  const char* pool_mode_env = std::getenv("MCN_SHARD_POOL_MODE");
  const std::string pool_mode =
      pool_mode_env != nullptr && *pool_mode_env != '\0' ? pool_mode_env
                                                         : "socket";
  MCN_CHECK(pool_mode == "socket" || pool_mode == "split");
  const bool split_pools = pool_mode == "split";
  const double min_qps_ratio =
      EnvDouble("MCN_SHARD_MIN_QPS_RATIO", split_pools ? 0.15 : 0.5);
  MCN_CHECK(workers > 0 && num_requests > 0 && stall_us >= 0);

  gen::ExperimentConfig config;  // fig. 8(a) base: the paper's defaults
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  std::printf("building K=1 reference instance (%s)...\n",
              scaled.ToString().c_str());
  auto reference = gen::BuildShardedInstance(scaled, /*num_shards=*/1);
  MCN_CHECK(reference.ok());

  Random rng(2026);
  std::vector<graph::Location> locations;
  locations.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    locations.push_back((*reference)->RandomQueryLocation(rng));
  }

  std::printf("computing K=1 single-threaded reference (%d queries)...\n",
              num_requests);
  Reference ref_lsa =
      DirectReference(**reference, expand::EngineKind::kLsa, locations);
  Reference ref_cea =
      DirectReference(**reference, expand::EngineKind::kCea, locations);

  PrintHeader("Shard scaling: skyline QPS + remote-fetch ratio vs K "
              "(fig. 8(a) base)",
              "shards", scaled, env);
  std::printf(
      "workers=%d requests/point=%d stall/miss=%.1fus pin=%d pools=%s "
      "(MCN_SHARD_WORKERS / MCN_SHARD_REQUESTS / MCN_SHARD_STALL_US / "
      "MCN_SHARD_PIN_WORKERS / MCN_SHARD_POOL_MODE)\n",
      workers, num_requests, stall_us, pin ? 1 : 0, pool_mode.c_str());

  const int shard_sweep[] = {1, 2, 4};
  double qps_k1 = 0, qps_k4 = 0;
  for (int k : shard_sweep) {
    std::printf("building K=%d sharded layout...\n", k);
    auto instance = gen::BuildShardedInstance(scaled, k);
    MCN_CHECK(instance.ok());
    RunMetrics lsa = RunSharded(**instance, expand::EngineKind::kLsa,
                                workers, stall_us, pin, split_pools, env,
                                locations, ref_lsa);
    RunMetrics cea = RunSharded(**instance, expand::EngineKind::kCea,
                                workers, stall_us, pin, split_pools, env,
                                locations, ref_cea);
    if (k == 1 && (lsa.remote_fetches != 0 || cea.remote_fetches != 0)) {
      std::fprintf(stderr,
                   "FAILURE: K=1 reported remote fetches (%" PRIu64
                   " / %" PRIu64 ")\n",
                   lsa.remote_fetches, cea.remote_fetches);
      return 1;
    }
    AlgoComparison c;
    c.lsa = lsa;
    c.cea = cea;
    PrintRow(std::to_string(k), c);
    std::printf(
        "    K=%d: LSA %7.2f qps  remote %5.1f%% | CEA %7.2f qps  "
        "remote %5.1f%%  p50/p95/p99 %6.1f/%6.1f/%6.1f ms\n",
        k, lsa.qps, 100.0 * lsa.RemoteRatio(), cea.qps,
        100.0 * cea.RemoteRatio(), cea.latency_p50_ms, cea.latency_p95_ms,
        cea.latency_p99_ms);
    if (k == 1) qps_k1 = cea.qps;
    if (k == 4) qps_k4 = cea.qps;
  }
  PrintFooter();

  std::printf(
      "result hashes: identical to K=1 single-threaded execution at every "
      "K.\n");
  if (min_qps_ratio > 0 && qps_k1 > 0 && qps_k4 < min_qps_ratio * qps_k1) {
    std::fprintf(stderr,
                 "FAILURE: K=4 QPS %.2f below %.2fx of K=1 QPS %.2f "
                 "(MCN_SHARD_MIN_QPS_RATIO)\n",
                 qps_k4, min_qps_ratio, qps_k1);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
