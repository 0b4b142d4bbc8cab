// Service-level statistics for the concurrent query executor: a view over
// the service's metrics registry (latency percentiles from its histogram,
// throughput over the measurement window), plus the nearest-rank
// percentile that benches apply to raw latency samples (DESIGN.md §6).
#ifndef MCN_EXEC_SERVICE_STATS_H_
#define MCN_EXEC_SERVICE_STATS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcn/obs/metrics.h"
#include "mcn/shard/partition.h"

namespace mcn::exec {

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

/// One shard's slice of the service aggregation (DESIGN.md §8): the
/// requests homed on this shard (their location lies in its tile), what
/// completed and how often their fetches stayed on the tile vs crossed a
/// boundary.
struct ShardServiceStats {
  int shard = -1;
  uint64_t completed = 0;    ///< requests homed here that finished OK
  uint64_t buffer_misses = 0;
  uint64_t local_fetches = 0;   ///< record fetches served by the home shard
  uint64_t remote_fetches = 0;  ///< record fetches routed across shards

  double RemoteRatio() const {
    return shard::RemoteRatio(local_fetches, remote_fetches);
  }
};

/// Aggregated snapshot over all workers since service start (or the last
/// ResetStats). Latency covers the full request lifetime: queue wait +
/// execution + modeled I/O stall.
struct ServiceStats {
  uint64_t completed = 0;   ///< queries finished with an OK status
  uint64_t failed = 0;      ///< queries finished with a non-OK status
  /// Failure-model slice (DESIGN.md §10). rejected counts load-shed
  /// submissions (ResourceExhausted at admission; NOT counted in failed —
  /// they never entered a queue). timed_out / cancelled count queries that
  /// resolved DeadlineExceeded / Cancelled (also counted in failed).
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  uint64_t cancelled = 0;
  /// Streaming-session slice (DESIGN.md §9): batches are also counted in
  /// completed/failed; open_sessions is the table size at snapshot time.
  uint64_t session_batches = 0;
  uint64_t open_sessions = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_accesses = 0;
  /// Landmark prune-index slice (DESIGN.md §12): frontier pops tested
  /// against the lower-bound oracle and the subset it cut before the
  /// adjacency probe. Zero unless ServiceOptions::enable_prune_index.
  uint64_t prune_checked = 0;
  uint64_t prune_cut = 0;
  /// Result-cache slice (DESIGN.md §13). Hits and coalesced waiters never
  /// enter a queue, so — like rejected — they are NOT counted in
  /// completed/failed; these counters are the authoritative
  /// served-from-cache totals. Zero unless result_cache_entries > 0.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  double cpu_seconds = 0;    ///< summed per-query execution time
  double stall_seconds = 0;  ///< summed modeled I/O stall time
  double wall_seconds = 0;   ///< measurement window (service uptime)
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  double qps = 0;  ///< (completed + failed) / wall_seconds
  /// One row per shard (a single row when K = 1).
  std::vector<ShardServiceStats> per_shard;
};

/// Canonical instrument names of the service registry (DESIGN.md §11).
/// Everything QueryService records lives under "mcn.service." /
/// "mcn.shard<k>." / "mcn.disk." — the names the wire introspection
/// (kGetMetrics) exposes and tools/mcn_stat.py prints.
namespace metric_names {
inline constexpr char kCompleted[] = "mcn.service.completed";
inline constexpr char kFailed[] = "mcn.service.failed";
inline constexpr char kRejected[] = "mcn.service.rejected";
inline constexpr char kTimedOut[] = "mcn.service.timed_out";
inline constexpr char kCancelled[] = "mcn.service.cancelled";
inline constexpr char kSessionBatches[] = "mcn.service.session_batches";
inline constexpr char kBufferMisses[] = "mcn.service.buffer_misses";
inline constexpr char kBufferAccesses[] = "mcn.service.buffer_accesses";
inline constexpr char kPruneChecked[] = "mcn.service.prune_checked";
inline constexpr char kPruneCut[] = "mcn.service.prune_cut";
inline constexpr char kCacheHit[] = "mcn.service.cache_hit";
inline constexpr char kCacheMiss[] = "mcn.service.cache_miss";
inline constexpr char kCacheCoalesced[] = "mcn.service.cache_coalesced";
inline constexpr char kCacheEvictions[] = "mcn.service.cache_evictions";
inline constexpr char kCacheEntries[] = "mcn.service.cache_entries";
inline constexpr char kNetworkEpoch[] = "mcn.service.network_epoch";
inline constexpr char kCpuMicros[] = "mcn.service.cpu_micros";
inline constexpr char kStallMicros[] = "mcn.service.stall_micros";
inline constexpr char kQueueMicros[] = "mcn.service.queue_micros";
inline constexpr char kLatencyUs[] = "mcn.service.latency_us";
inline constexpr char kOpenSessions[] = "mcn.service.open_sessions";
inline constexpr char kWallSeconds[] = "mcn.service.wall_seconds";
inline constexpr char kNumShards[] = "mcn.service.num_shards";
inline constexpr char kDiskPageReads[] = "mcn.disk.page_reads";
inline constexpr char kDiskPageWrites[] = "mcn.disk.page_writes";
inline constexpr char kDiskBatchReads[] = "mcn.io.batch_reads";
inline constexpr char kDiskBatchPages[] = "mcn.io.batch_pages";
inline constexpr char kDiskBatchMaxPages[] = "mcn.io.batch_max_pages";

inline std::string Shard(int shard, const char* suffix) {
  return "mcn.shard" + std::to_string(shard) + "." + suffix;
}
}  // namespace metric_names

/// The one merge path (DESIGN.md §11): ServiceStats is a *view* over an
/// obs::Snapshot — QueryService::Snapshot() is exactly
/// ServiceStatsFromSnapshot(MetricsSnapshot()). Latency percentiles come
/// from the log-bucketed histogram (bucket-midpoint estimates, ≤ 12.5%
/// relative error), not raw samples.
inline ServiceStats ServiceStatsFromSnapshot(const obs::Snapshot& snap) {
  namespace mn = metric_names;
  ServiceStats stats;
  stats.completed = snap.CounterValue(mn::kCompleted);
  stats.failed = snap.CounterValue(mn::kFailed);
  stats.rejected = snap.CounterValue(mn::kRejected);
  stats.timed_out = snap.CounterValue(mn::kTimedOut);
  stats.cancelled = snap.CounterValue(mn::kCancelled);
  stats.session_batches = snap.CounterValue(mn::kSessionBatches);
  stats.buffer_misses = snap.CounterValue(mn::kBufferMisses);
  stats.buffer_accesses = snap.CounterValue(mn::kBufferAccesses);
  stats.prune_checked = snap.CounterValue(mn::kPruneChecked);
  stats.prune_cut = snap.CounterValue(mn::kPruneCut);
  stats.cache_hits = snap.CounterValue(mn::kCacheHit);
  stats.cache_misses = snap.CounterValue(mn::kCacheMiss);
  stats.cache_coalesced = snap.CounterValue(mn::kCacheCoalesced);
  stats.cpu_seconds =
      static_cast<double>(snap.CounterValue(mn::kCpuMicros)) / 1e6;
  stats.stall_seconds =
      static_cast<double>(snap.CounterValue(mn::kStallMicros)) / 1e6;
  stats.open_sessions =
      static_cast<uint64_t>(snap.GaugeValue(mn::kOpenSessions));
  stats.wall_seconds = snap.GaugeValue(mn::kWallSeconds);
  if (stats.wall_seconds > 0) {
    stats.qps = static_cast<double>(stats.completed + stats.failed) /
                stats.wall_seconds;
  }
  if (const obs::HistogramSnapshot* h = snap.FindHistogram(mn::kLatencyUs)) {
    stats.latency_p50_ms = h->ValueAtQuantile(0.50) / 1e3;
    stats.latency_p95_ms = h->ValueAtQuantile(0.95) / 1e3;
    stats.latency_p99_ms = h->ValueAtQuantile(0.99) / 1e3;
  }
  const int num_shards = static_cast<int>(snap.GaugeValue(mn::kNumShards));
  stats.per_shard.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    ShardServiceStats row;
    row.shard = s;
    row.completed = snap.CounterValue(mn::Shard(s, "completed"));
    row.buffer_misses = snap.CounterValue(mn::Shard(s, "buffer_misses"));
    row.local_fetches = snap.CounterValue(mn::Shard(s, "local_fetches"));
    row.remote_fetches = snap.CounterValue(mn::Shard(s, "remote_fetches"));
    stats.per_shard.push_back(row);
  }
  return stats;
}

}  // namespace mcn::exec

#endif  // MCN_EXEC_SERVICE_STATS_H_
