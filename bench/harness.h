// Shared driver for the figure-reproduction benchmarks: builds instances
// for a sweep of experiment configurations, runs LSA and CEA over a fixed
// set of random query locations, and prints one table row per parameter
// value with the measured CPU time, buffer misses (I/Os) and a modeled
// total time (misses x configurable I/O latency + CPU), which is the
// machine-independent analogue of the paper's wall-clock seconds
// (I/O-dominated; see DESIGN.md §3).
//
// Environment knobs:
//   MCN_BENCH_SCALE    fraction of the paper's San Francisco scale
//                      (default 0.15; 1.0 = the paper's 174,956 nodes)
//   MCN_BENCH_QUERIES  query locations per data point (default 24;
//                      paper = 100)
//   MCN_IO_LATENCY_MS  modeled per-miss latency in ms (default 5)
//   MCN_BENCH_JSON     when set, a machine-readable record of every figure
//                      run by the process is (re)written to this path after
//                      each PrintFooter (schema mcn-bench-v3: DESIGN.md §5;
//                      rows may carry an "obs" object of registry metrics —
//                      tools/bench_diff.py ignores obs-only keys)
#ifndef MCN_BENCH_HARNESS_H_
#define MCN_BENCH_HARNESS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/algo/result_hash.h"
#include "mcn/expand/engines.h"
#include "mcn/gen/workload.h"
#include "mcn/obs/metrics.h"
#include "mcn/shard/partition.h"

namespace mcn::bench {

/// FNV-1a offset basis: the seed of every result hash (per-query hashes
/// and the cross-query combination in RunMetrics). One definition shared
/// with the exec::QueryService parity checks (algo/result_hash.h).
inline constexpr uint64_t kFnvOffsetBasis = algo::kFnvOffsetBasis;

/// Reads a double from the environment (`fallback` when unset/empty).
double EnvDouble(const char* name, double fallback);

/// Nearest-rank percentile of `sorted` (ascending); p in [0,100]:
/// the smallest element with at least p% of the samples <= it,
/// i.e. sorted[ceil(p/100 * N) - 1]. Returns 0 for an empty sample set.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0) return sorted.front();
  if (p >= 100) return sorted.back();
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// Scale / repetition knobs resolved from the environment.
struct BenchEnv {
  double scale = 0.15;
  int queries = 24;
  double io_latency_ms = 5.0;
  std::string json_path;  ///< empty = no JSON output

  static BenchEnv FromEnvironment();
};

/// Aggregated measurements for one algorithm on one configuration.
struct RunMetrics {
  double cpu_seconds = 0;      ///< measured wall time of the computation
  double modeled_seconds = 0;  ///< misses * latency + cpu
  uint64_t buffer_misses = 0;
  uint64_t buffer_accesses = 0;
  double result_size = 0;      ///< avg |skyline| or k
  /// Order-sensitive FNV-1a over every query's result entries (facility
  /// ids + cost bit patterns): refactors must keep it byte-identical.
  uint64_t result_hash = kFnvOffsetBasis;
  int queries = 0;
  /// Service-level metrics (schema mcn-bench-v2). Zero for the
  /// single-threaded figure benchmarks, filled by the concurrent service
  /// benchmarks: request latency percentiles (queue wait + execution +
  /// modeled I/O stall) and measured wall-clock throughput.
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  double qps = 0;
  /// Shard benches only (DESIGN.md §8): record fetches the workers
  /// routed to their home shard vs across a shard boundary. Zero for the
  /// figure benchmarks, which do not collect them.
  uint64_t local_fetches = 0;
  uint64_t remote_fetches = 0;

  double RemoteRatio() const {
    return shard::RemoteRatio(local_fetches, remote_fetches);
  }

  /// Per-query averages.
  double AvgCpu() const { return queries ? cpu_seconds / queries : 0; }
  double AvgModeled() const {
    return queries ? modeled_seconds / queries : 0;
  }
  double AvgMisses() const {
    return queries ? static_cast<double>(buffer_misses) / queries : 0;
  }
};

/// What one query produced: the result size and an order-sensitive hash of
/// the full result (ids, costs, scores) for cross-refactor parity checks.
/// `hash_seconds` is the time the runner spent computing the hash; the
/// driver subtracts it from the measured window so parity instrumentation
/// never contaminates the reported CPU metrics.
struct QueryOutcome {
  size_t result_size = 0;
  uint64_t result_hash = 0;
  double hash_seconds = 0;
};

/// What to run for each query location.
using QueryFn =
    std::function<QueryOutcome(expand::NnEngine* engine, Random& rng)>;

/// Runs `queries` random-location queries with both LSA and CEA on
/// `instance`, resetting buffer state between algorithms so they see
/// identical cold caches.
struct AlgoComparison {
  RunMetrics lsa;
  RunMetrics cea;
};
AlgoComparison CompareLsaCea(gen::ShardedInstance& instance,
                             const BenchEnv& env, uint64_t query_seed,
                             const QueryFn& run);

/// Skyline / top-k query runners for CompareLsaCea.
QueryFn SkylineRunner();
/// Weighted-sum top-k with per-query random coefficients (paper §VI).
QueryFn TopKRunner(int k, int num_costs);

/// Table output helpers. When MCN_BENCH_JSON is set they also accumulate a
/// machine-readable record: PrintHeader opens a figure, PrintRow appends a
/// data point, PrintFooter closes the figure and rewrites the JSON file.
void PrintHeader(const std::string& figure, const std::string& varying,
                 const gen::ExperimentConfig& base, const BenchEnv& env);
void PrintRow(const std::string& param_value, const AlgoComparison& c);
/// As above, additionally attaching a metrics-registry snapshot to the
/// row's JSON record as a flat "obs" object (counters and gauges by name,
/// histograms as <name>.count / <name>.mean / <name>.p99). Observability
/// keys are informational: tools/bench_diff.py ignores them.
void PrintRow(const std::string& param_value, const AlgoComparison& c,
              const obs::Snapshot& obs_snapshot);
void PrintFooter();

/// Tags the *next* PrintRow's JSON record with the I/O backend
/// ("memory"/"preadv"/"io_uring") it ran under (DESIGN.md §5); an empty
/// string omits the key. One-shot: consumed by the next PrintRow.
/// tools/bench_diff.py refuses to compare rows whose tags both exist and
/// differ — wall times under different backends are different
/// quantities, not regressions.
void SetNextRowMeta(const std::string& io_backend);

}  // namespace mcn::bench

#endif  // MCN_BENCH_HARNESS_H_
