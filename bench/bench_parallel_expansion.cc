// Intra-query parallel d-expansion benchmark (DESIGN.md §7): single-query
// skyline latency for a d / parallelism sweep, with the I/O stall of every
// physical record fetch slept for real inside the StripedCachedFetch (on
// the fetching probe's thread, outside all stripe locks) — the stalls the
// turn-barrier schedule exists to overlap.
//
// Each d gets one figure; rows sweep parallelism 1 (inline turns — the
// serial anchor), 2 and 4 probe workers. All parallelism levels run the
// identical turn schedule on the identical query set, so the bench aborts
// on any result-hash or logical-fetch-count divergence (the determinism
// contract), and on a latency speedup at d = 4 / 4 workers below
// MCN_PARALLEL_MIN_SPEEDUP x the inline run.
//
// Row semantics (schema mcn-bench-v2, via the shared harness): the `lsa`
// column holds the parallelism-1 anchor of the figure, the `cea` column
// the row's parallelism level; time(s) is measured wall latency including
// the slept stalls; latency percentiles and QPS are per-query wall times.
//
// Extra environment knobs (on top of the harness ones):
//   MCN_PARALLEL_QUERIES      queries per data point       (default 8)
//   MCN_PARALLEL_STALL_US     slept stall per record fetch (default 100)
//   MCN_PARALLEL_MIN_SPEEDUP  abort threshold, 0 disables  (default 1.8)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/expansion_executor.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/gen/workload.h"

namespace mcn::bench {
namespace {

struct PointRun {
  RunMetrics metrics;
  std::vector<uint64_t> hashes;            ///< per query
  std::vector<uint64_t> logical_requests;  ///< adjacency + facility
  std::vector<uint64_t> physical_fetches;
};

PointRun RunPoint(gen::ShardedInstance& instance, int parallelism,
                  double stall_us, const BenchEnv& env,
                  const std::vector<graph::Location>& locations) {
  auto executor = exec::ExpansionExecutor::Create(
      &instance.storage, instance.files, parallelism, instance.pool_frames);
  MCN_CHECK(executor.ok());

  PointRun run;
  run.metrics.queries = static_cast<int>(locations.size());
  std::vector<double> latencies_ms;
  for (const graph::Location& q : locations) {
    (*executor)->ResetIoState();
    auto rig = (*executor)->NewQuery(q);
    MCN_CHECK(rig.ok());
    rig->engine->striped_fetch()->set_simulated_stall_us(stall_us);

    algo::SkylineOptions opts;
    opts.exec.parallelism = parallelism;
    opts.exec.scheduler = rig->scheduler.get();
    algo::SkylineQuery query(rig->engine.get(), opts);

    Stopwatch watch;
    auto rows = query.ComputeAll();
    double seconds = watch.ElapsedSeconds();
    MCN_CHECK(rows.ok());

    // Hash outside the measured window, like the figure benchmarks.
    uint64_t hash = algo::HashResult(rows.value());
    run.hashes.push_back(hash);
    run.metrics.result_hash = algo::FnvMixU64(run.metrics.result_hash, hash);
    run.metrics.result_size += static_cast<double>(rows.value().size());
    run.metrics.cpu_seconds += seconds;
    run.metrics.modeled_seconds += seconds;
    latencies_ms.push_back(seconds * 1e3);

    const expand::FetchProvider::Stats& fs = rig->engine->fetch().stats();
    run.logical_requests.push_back(fs.adjacency_requests +
                                   fs.facility_requests);
    run.physical_fetches.push_back(fs.adjacency_fetches +
                                   fs.facility_fetches);
    const storage::BufferPool::Stats ps = (*executor)->PoolStats();
    run.metrics.buffer_misses += ps.misses;
    run.metrics.buffer_accesses += ps.accesses();
  }
  run.metrics.result_size /= static_cast<double>(locations.size());

  std::sort(latencies_ms.begin(), latencies_ms.end());
  run.metrics.latency_p50_ms = PercentileSorted(latencies_ms, 50);
  run.metrics.latency_p95_ms = PercentileSorted(latencies_ms, 95);
  run.metrics.latency_p99_ms = PercentileSorted(latencies_ms, 99);
  run.metrics.qps = run.metrics.cpu_seconds > 0
                        ? static_cast<double>(locations.size()) /
                              run.metrics.cpu_seconds
                        : 0;
  (void)env;
  return run;
}

void CheckParity(int d, int parallelism, const PointRun& anchor,
                 const PointRun& run) {
  MCN_CHECK(anchor.hashes.size() == run.hashes.size());
  for (size_t i = 0; i < anchor.hashes.size(); ++i) {
    if (run.hashes[i] != anchor.hashes[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: d=%d parallelism=%d query %zu hash "
                   "%016" PRIx64 " != inline %016" PRIx64 "\n",
                   d, parallelism, i, run.hashes[i], anchor.hashes[i]);
      std::abort();
    }
    if (run.logical_requests[i] != anchor.logical_requests[i] ||
        run.physical_fetches[i] != anchor.physical_fetches[i]) {
      std::fprintf(stderr,
                   "I/O PARITY FAILURE: d=%d parallelism=%d query %zu "
                   "logical %" PRIu64 "/physical %" PRIu64
                   " != inline %" PRIu64 "/%" PRIu64 "\n",
                   d, parallelism, i, run.logical_requests[i],
                   run.physical_fetches[i], anchor.logical_requests[i],
                   anchor.physical_fetches[i]);
      std::abort();
    }
  }
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int queries =
      static_cast<int>(EnvDouble("MCN_PARALLEL_QUERIES", 8));
  const double stall_us = EnvDouble("MCN_PARALLEL_STALL_US", 100.0);
  const double min_speedup = EnvDouble("MCN_PARALLEL_MIN_SPEEDUP", 1.8);
  MCN_CHECK(queries > 0 && stall_us >= 0);

  const int parallelism_sweep[] = {1, 2, 4};
  double latency_d4_p1 = 0, latency_d4_p4 = 0;
  for (int d : {2, 3, 4}) {
    gen::ExperimentConfig config;  // paper defaults, varying d
    config.num_costs = d;
    gen::ExperimentConfig scaled = config.Scaled(env.scale);
    std::printf("building instance (%s)...\n", scaled.ToString().c_str());
    auto instance = gen::BuildShardedInstance(scaled, /*num_shards=*/1);
    MCN_CHECK(instance.ok());

    Random rng(2026 + d);
    std::vector<graph::Location> locations;
    locations.reserve(queries);
    for (int i = 0; i < queries; ++i) {
      locations.push_back((*instance)->RandomQueryLocation(rng));
    }

    PrintHeader("Parallel d-expansion: skyline latency vs parallelism (d=" +
                    std::to_string(d) + ")",
                "parallelism", scaled, env);
    std::printf(
        "queries/point=%d stall/fetch=%.1fus "
        "(MCN_PARALLEL_QUERIES / MCN_PARALLEL_STALL_US)\n",
        queries, stall_us);

    PointRun anchor;
    for (int parallelism : parallelism_sweep) {
      PointRun run =
          RunPoint(**instance, parallelism, stall_us, env, locations);
      if (parallelism == 1) {
        anchor = run;
      } else {
        CheckParity(d, parallelism, anchor, run);
      }
      AlgoComparison c;
      c.lsa = anchor.metrics;
      c.cea = run.metrics;
      PrintRow("p=" + std::to_string(parallelism), c);
      std::printf(
          "    per-query wall: avg %7.2f ms  p50/p95/p99 "
          "%7.2f/%7.2f/%7.2f ms  speedup vs inline %5.2fx\n",
          run.metrics.AvgCpu() * 1e3, run.metrics.latency_p50_ms,
          run.metrics.latency_p95_ms, run.metrics.latency_p99_ms,
          run.metrics.cpu_seconds > 0
              ? anchor.metrics.cpu_seconds / run.metrics.cpu_seconds
              : 0);
      if (d == 4 && parallelism == 1) latency_d4_p1 = run.metrics.cpu_seconds;
      if (d == 4 && parallelism == 4) latency_d4_p4 = run.metrics.cpu_seconds;
    }
    PrintFooter();
  }

  double speedup = latency_d4_p4 > 0 ? latency_d4_p1 / latency_d4_p4 : 0;
  std::printf(
      "result hashes + logical/physical fetch counts: identical across "
      "every parallelism level.\n");
  std::printf("single-query latency speedup at d=4, 4 threads: %.2fx\n",
              speedup);
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "SPEEDUP FAILURE: %.2fx at d=4/p=4 is below the "
                 "MCN_PARALLEL_MIN_SPEEDUP=%.2f gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
