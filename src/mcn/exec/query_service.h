// QueryService: the concurrent serving layer above the paper's query
// processors (DESIGN.md §6, §8, §9). One service owns
//
//   * a shared, read-only shard::ShardedStorage of K per-tile disks (K = 1
//     is the paper's single-disk layout), frozen for the service's
//     lifetime via BeginConcurrentReads,
//   * num_workers execution slots. A slot holds the query state a request
//     runs on: a routing shard::ShardedNetworkReader with one BufferPool
//     per shard, the landmark reader and the probe rig when configured,
//     and its metrics slot index. A thread claims a slot for one request
//     at a time, so a slot's state is never shared between threads and at
//     most num_workers requests execute at once, and
//   * one work queue: a fixed-size ThreadPool of num_workers threads over
//     a lock-free MPMC ring, whatever shard a request starts on. A pool
//     thread claims a slot for each task it dequeues.
//     Admission gives each request a *home shard*, the tile owning its
//     location under the routing table; the executing reader is bound to
//     it, so per-shard statistics book the request on its own tile and
//     fetches that escape the tile count as remote. With
//     ServiceOptions::pin_workers, pool thread i is pinned (best-effort,
//     sched_setaffinity) to CPU i.
//
// Every entry point speaks api::QuerySpec (the unified preference-query
// API, DESIGN.md §9): Submit validates the spec on the executing thread —
// malformed specs resolve their future with an InvalidArgument result
// instead of crashing — runs it with a freshly constructed engine
// (LSA/CEA d-expansions + CandidateStore are per-query state, so nothing
// of a query is visible to another), applies the spec's preference
// constraints as a post-dominance filter (an exact no-op when
// unconstrained), and resolves a std::future<QueryResult> carrying the
// typed result rows, an FNV result hash (byte-identical to a
// single-threaded run — and to every other shard count K: the parity
// anchor of the service bench and tests), and per-query stats.
// SubmitAndWait and SessionNextAndWait are the synchronous forms, with the
// same admission. When a slot is idle and no queued task waits for one,
// they run the request on the caller's own thread (the inline route);
// otherwise they queue it and wait. api::Server answers wire requests
// through them, so an uncontended wire request never leaves the
// connection thread that decoded it.
//
// Streaming incremental sessions (DESIGN.md §9): OpenSession pins an
// incremental spec to a session — its own LRU pool set, engine and
// algo::IncrementalTopK iterator, created lazily by whichever thread runs
// its first batch and kept warm across batches — and SessionNext pulls
// further NextBest batches from that same engine. The session table
// is bounded (ServiceOptions::max_sessions) with lazy idle eviction.
//
// Statistics (DESIGN.md §11): executing threads record into the service's
// obs::Registry under the names in metric_names below, at their slot's
// index — outcomes, failures (rejected, timed out, cancelled), inline
// runs, latency histogram, buffer I/O, cache outcomes, and per-shard
// completions and local/remote fetches. MetricsSnapshot() is the one
// stats surface: the registry plus the storage's disk reads, the cache's
// evictions and a few gauges, all counted since construction or the last
// ResetStats(). Callers, the benches and kGetMetrics read its rows by
// name.
#ifndef MCN_EXEC_QUERY_SERVICE_H_
#define MCN_EXEC_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/algo/incremental_topk.h"
#include "mcn/api/query_response.h"
#include "mcn/api/query_spec.h"
#include "mcn/common/cancel.h"
#include "mcn/common/mutex.h"
#include "mcn/common/result.h"
#include "mcn/common/status.h"
#include "mcn/common/stopwatch.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/exec/expansion_executor.h"
#include "mcn/exec/thread_pool.h"
#include "mcn/expand/engines.h"
#include "mcn/graph/location.h"
#include "mcn/net/landmark_index.h"
#include "mcn/obs/flight_recorder.h"
#include "mcn/obs/metrics.h"
#include "mcn/obs/trace.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::exec {

class ResultCache;    // exec/result_cache.h
struct ResultFlight;  // exec/result_cache.h

/// The canonical kind enum lives in the api layer; exec re-exports it so
/// existing exec::QueryKind::kSkyline spellings keep working.
using QueryKind = api::QueryKind;

/// Streaming-session handle (see OpenSession). Ids are service-scoped and
/// never reused.
using SessionId = uint64_t;

/// Per-query measurements taken on the executing thread.
struct QueryStats {
  int worker = -1;           ///< execution slot the request ran on
  int shard = -1;            ///< home shard: the tile of the location
  /// Admission -> start of execution; about 0 on the inline route.
  double queue_seconds = 0;
  double exec_seconds = 0;   ///< engine construction + query computation
  /// Modeled I/O time: buffer_misses x ServiceOptions::io_latency_ms, the
  /// paper's one-latency-per-miss charge.
  double stall_seconds = 0;
  /// Full request latency: queue wait + execution + stall (the stall is
  /// slept for real when ServiceOptions::simulate_io_stalls is set,
  /// otherwise only accounted).
  double latency_seconds = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_accesses = 0;
  /// Routed record fetches that stayed on the request's home shard vs
  /// crossed a shard boundary (always local when K = 1).
  uint64_t local_fetches = 0;
  uint64_t remote_fetches = 0;
  /// Prune-oracle work for this query (skyline + enable_prune_index only):
  /// frontier pops tested against the landmark bound, and the subset cut
  /// before their adjacency probe. buffer_misses includes the index pool's
  /// misses when the slot holds an index reader, so the reported I/O is
  /// the honest total.
  uint64_t prune_checked = 0;
  uint64_t prune_cut = 0;
};

/// Outcome of one request (or one session batch). Exactly one of
/// `skyline` / `topk` is filled (by kind) when `status` is OK.
struct QueryResult {
  Status status = Status::OK();
  QueryKind kind = QueryKind::kSkyline;
  std::vector<algo::SkylineEntry> skyline;
  std::vector<algo::TopKEntry> topk;  ///< also the incremental results
  /// algo::HashResult over the filled rows (kFnvOffsetBasis when failed).
  uint64_t result_hash = 0;
  /// Incremental only: the reachable component is fully reported (a
  /// session batch shorter than its asked-for n also implies this).
  bool exhausted = false;
  QueryStats stats;

  /// The transportable subset of this result (api/wire.h encodes it).
  /// The rvalue overload moves the row vectors — what a server should
  /// call on a result it is done with.
  api::QueryResponse ToResponse() const&;
  api::QueryResponse ToResponse() &&;
};

struct ServiceOptions {
  /// Execution slots, and the pool threads that run queued tasks on them.
  int num_workers = 4;
  /// Ring capacity of the service's work queue; Submit applies
  /// back-pressure (blocks) when this many queries are already waiting.
  size_t queue_capacity = 1024;
  /// LRU frames per execution slot (the paper's buffer size; see
  /// gen::BufferFrames). Every slot gets the same capacity so per-query
  /// miss counts match a single-threaded run exactly. The budget is split
  /// exactly across the slot's K shard pools
  /// (shard::SplitFramesAcrossShards — remainder frames are distributed,
  /// not dropped). Sessions get the same budget, so a session stream's
  /// logical I/O matches a local IncrementalTopK run.
  size_t pool_frames_per_worker = 0;
  /// Modeled I/O latency charged per buffer miss (as in the bench harness).
  double io_latency_ms = 5.0;
  /// Sleep each request's modeled stall for real, once, after it
  /// executes, so wall-clock throughput reflects I/O waits that
  /// concurrent requests overlap. Keep off for pure-CPU tests.
  bool simulate_io_stalls = false;
  /// Cross-query result sharing (DESIGN.md §13): > 0 bounds an LRU cache
  /// of finished one-shot results keyed by canonical spec + network
  /// epoch, with single-flight coalescing of concurrent identical
  /// requests. 0 disables caching entirely (byte-stable default).
  /// Sessions always bypass the cache.
  size_t result_cache_entries = 0;
  /// Clear + reset the slot's pools before each query (the paper's
  /// independent-query model; also what makes per-query miss counts
  /// deterministic across worker counts). When false, a slot's pools
  /// stay warm across the queries that happen to run on it. Sessions are
  /// never reset between batches — warm continuation is their point.
  bool cold_cache_per_query = true;
  /// Probe threads available to one query (DESIGN.md §7). > 1 lets an
  /// execution slot build its own ExpansionExecutor — lazily, on the
  /// slot's first request with parallelism > 1, so services whose
  /// clients never opt in pay nothing; the slot's later parallel
  /// queries then share that executor's probe pool and reader slots.
  /// Requests opt in per query via QuerySpec::parallelism.
  /// 1 = turn-schedule requests run inline.
  int per_query_parallelism = 1;
  /// How pool_frames_per_worker maps onto a slot's K shard pools. true
  /// divides the budget exactly (iso-memory in K — total frames constant,
  /// at the price of LRU capacity fragmentation); false gives every shard
  /// pool the full budget — the per-socket memory model, where each
  /// socket contributes its own DIMMs and aggregate buffer grows with K.
  /// The two agree at K = 1.
  bool split_pool_across_shards = true;
  /// Best-effort CPU pinning of pool thread i to CPU i (DESIGN.md §8).
  /// Callers running requests inline are never pinned. A feature flag:
  /// refused affinity syscalls (CI containers, non-Linux) are silently
  /// ignored, so correctness and CI never depend on it.
  bool pin_workers = false;
  /// Bound on concurrently open streaming sessions (DESIGN.md §9). An
  /// OpenSession beyond the bound evicts the least-recently-used idle
  /// session; when every session is busy it fails instead.
  size_t max_sessions = 64;
  /// Sessions untouched for this long are evicted lazily (checked on the
  /// next OpenSession). <= 0 disables idle eviction.
  double session_idle_seconds = 300.0;
  /// Admission control (DESIGN.md §10): bound on queries in flight
  /// (queued + executing) in the whole service. 0 = unbounded, with the
  /// legacy blocking back-pressure on a full ring. > 0 = load-shedding: a
  /// Submit that would exceed the cap — or land on a full ring — resolves
  /// immediately with ResourceExhausted instead of blocking the caller,
  /// and is counted in metric_names::kRejected.
  size_t max_inflight = 0;
  /// Observability (DESIGN.md §11): when set, every finished query/batch
  /// is digested into this recorder (last-N ring + slow-query log). Not
  /// owned; must outlive the service.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Landmark lower-bound pruning (DESIGN.md §12). Opt-in: when true and
  /// the served network carries a built index
  /// (ShardedNetworkFiles::landmark), every slot gets a validated
  /// LandmarkIndexReader (its own small pool, charged separately from the
  /// network pools) and skyline queries at parallelism 0 run with the
  /// prune oracle.
  /// Results are byte-identical either way — the index only elides
  /// adjacency probes whose subtrees cannot matter. The default keeps
  /// existing services byte-stable in stats as well as results.
  bool enable_prune_index = false;
};

/// Canonical instrument names of the service (DESIGN.md §11), registered
/// by QueryService::Metrics and read back by name from MetricsSnapshot().
/// Everything lives under "mcn.service." / "mcn.shard<k>." / "mcn.disk." /
/// "mcn.io." — the names kGetMetrics exposes and tools/mcn_stat.py prints.
/// The only place a "mcn." literal may appear under src/mcn/
/// (tools/mcn_lint.py, rule metric-names-in-one-place).
namespace metric_names {
/// Requests finished OK / non-OK. Load-shed submissions (rejected) are in
/// neither; deadline expiries (timed_out) and cancellations are also in
/// failed. Cache hits and coalesced waiters never enter the queue and are
/// in neither.
inline constexpr char kCompleted[] = "mcn.service.completed";
inline constexpr char kFailed[] = "mcn.service.failed";
inline constexpr char kRejected[] = "mcn.service.rejected";
inline constexpr char kTimedOut[] = "mcn.service.timed_out";
inline constexpr char kCancelled[] = "mcn.service.cancelled";
/// Session batches (also counted in completed/failed).
inline constexpr char kSessionBatches[] = "mcn.service.session_batches";
/// Requests (one-shot or session batch) that SubmitAndWait /
/// SessionNextAndWait ran on the caller's own thread; the rest of
/// completed + failed went through the work queue.
inline constexpr char kInline[] = "mcn.service.inline";
inline constexpr char kBufferMisses[] = "mcn.service.buffer_misses";
inline constexpr char kBufferAccesses[] = "mcn.service.buffer_accesses";
inline constexpr char kPruneChecked[] = "mcn.service.prune_checked";
inline constexpr char kPruneCut[] = "mcn.service.prune_cut";
inline constexpr char kCacheHit[] = "mcn.service.cache_hit";
inline constexpr char kCacheMiss[] = "mcn.service.cache_miss";
inline constexpr char kCacheCoalesced[] = "mcn.service.cache_coalesced";
inline constexpr char kCacheEvictions[] = "mcn.service.cache_evictions";
inline constexpr char kCpuMicros[] = "mcn.service.cpu_micros";
inline constexpr char kStallMicros[] = "mcn.service.stall_micros";
inline constexpr char kQueueMicros[] = "mcn.service.queue_micros";
/// Request latency histogram: queue wait + execution + modeled I/O stall.
inline constexpr char kLatencyUs[] = "mcn.service.latency_us";
/// Gauges, set when the snapshot is taken.
inline constexpr char kCacheEntries[] = "mcn.service.cache_entries";
inline constexpr char kNetworkEpoch[] = "mcn.service.network_epoch";
inline constexpr char kOpenSessions[] = "mcn.service.open_sessions";
inline constexpr char kWallSeconds[] = "mcn.service.wall_seconds";
inline constexpr char kNumShards[] = "mcn.service.num_shards";
/// The storage's reads in the stats window, whoever made them.
inline constexpr char kDiskPageReads[] = "mcn.disk.page_reads";
inline constexpr char kDiskPageWrites[] = "mcn.disk.page_writes";
inline constexpr char kDiskBatchReads[] = "mcn.io.batch_reads";
inline constexpr char kDiskBatchPages[] = "mcn.io.batch_pages";

/// Per-shard rows: "completed", "buffer_misses", "local_fetches" and
/// "remote_fetches" of the requests homed on `shard`.
inline std::string Shard(int shard, const char* suffix) {
  return "mcn.shard" + std::to_string(shard) + "." + suffix;
}
/// One storage file's page reads (summed over the shards' same-named
/// files).
inline std::string DiskFileReads(const std::string& file) {
  return "mcn.disk.file." + file + ".reads";
}
}  // namespace metric_names

/// See the file comment. Thread-safe: Submit/session calls/Drain/
/// MetricsSnapshot may be called from any thread; Shutdown from one thread
/// at a time.
class QueryService {
 public:
  /// `storage`/`files` describe a built network
  /// (shard::BuildShardedNetwork, DESIGN.md §8); `storage` must outlive the
  /// service and every shard disk is frozen read-only until shutdown.
  static Result<std::unique_ptr<QueryService>> Create(
      shard::ShardedStorage* storage,
      const shard::ShardedNetworkFiles& files, const ServiceOptions& options);

  /// Shutdown(/*drain=*/true).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues `spec` on the work queue; blocks while the queue is full.
  /// Malformed specs resolve the future with an InvalidArgument result
  /// (never a crash). After shutdown the returned future is immediately
  /// ready with a FailedPrecondition result.
  std::future<QueryResult> Submit(api::QuerySpec spec);

  /// Submit(spec).get(), with one difference (DESIGN.md §6). After the
  /// same admission — result cache, max_inflight, deadline anchor, trace
  /// context — a request that finds an idle execution slot and no queued
  /// task waiting for one runs on the calling thread, with no queue and
  /// no hand-off between threads, and is counted in metric_names::kInline.
  /// Otherwise it is queued and the caller waits for it, as Submit's
  /// would. Results and logical I/O are identical on both routes.
  QueryResult SubmitAndWait(api::QuerySpec spec);

  /// Opens a streaming incremental session for `spec` (kind must be
  /// kIncrementalTopK; the spec's k is advisory only — batch sizes are
  /// chosen per SessionNext call). The session's home shard is the tile of
  /// its location; its engine is built lazily, by whichever thread
  /// executes the first batch. Fails when the spec is invalid or
  /// the session table is full of busy sessions.
  Result<SessionId> OpenSession(api::QuerySpec spec);

  /// Pulls the next `n` ranked results from the session's pinned engine
  /// (on any slot). Batches on one session serialize — a pipelined batch
  /// waits *on its execution slot* for the previous one, so keep
  /// per-session pipelining shallow or it parks slots (the wire server
  /// never pipelines: one request per connection is in flight, and
  /// connections only reach their own sessions). An
  /// unknown/evicted id resolves with NotFound. A batch shorter than `n`
  /// means the reachable component is exhausted (also flagged on the
  /// result); later batches are empty, never errors.
  std::future<QueryResult> SessionNext(SessionId id, int n);

  /// SessionNext(id, n).get(), taking the inline route by the rule of
  /// SubmitAndWait.
  QueryResult SessionNextAndWait(SessionId id, int n);

  /// Closes (evicts) a session. NotFound for unknown/already-closed ids.
  /// An in-flight batch finishes normally.
  Status CloseSession(SessionId id);

  /// Waits until every queued task has completed (inline requests finish
  /// before their call returns).
  void Drain();

  /// Stops the pool threads, waits out inline requests still running and
  /// drops every open session. drain=true completes the backlog first;
  /// drain=false discards it — a discarded query's future resolves with a
  /// FailedPrecondition result (futures never throw). Idempotent.
  void Shutdown(bool drain = true);

  /// The service's statistics (DESIGN.md §11): every registry instrument
  /// plus the storage's disk reads, the cache's evictions and the
  /// metric_names gauges, all over the stats window — since construction
  /// or the last ResetStats. This is what api::Server serves for
  /// kGetMetrics.
  obs::Snapshot MetricsSnapshot() const;

  /// Starts a new stats window: zeroes the registry and re-bases the disk
  /// and eviction rows and the wall clock. Call only while no query is in
  /// flight.
  void ResetStats();

  int num_workers() const { return static_cast<int>(slots_.size()); }
  /// Tasks the pool threads have executed: everything Submit and
  /// SessionNext admitted, and the synchronous calls that were queued.
  uint64_t pool_executed() const { return pool_->executed(); }
  /// The served network's cost dimensionality d (what specs validate
  /// against).
  int num_costs() const { return files_.num_costs; }
  size_t num_open_sessions() const;
  const ServiceOptions& options() const { return opts_; }

  /// Cross-query sharing epoch (DESIGN.md §13). Bumping invalidates every
  /// cached result — the seam to call when the served network changes
  /// under a future online-update path. In-flight queries resolve
  /// normally; their results are just not stored. No-op counter-wise when
  /// result_cache_entries is 0 (the epoch still advances).
  void BumpNetworkEpoch();
  uint64_t network_epoch() const {
    return network_epoch_.load(std::memory_order_acquire);
  }

  /// The result cache's key for `spec` under `epoch`: the canonical
  /// kExecute wire frame of the spec with execution-strategy fields
  /// (engine, parallelism, deadline) normalized away — the determinism
  /// contract makes results identical across those — plus the epoch.
  /// Exposed for tests.
  static std::string CanonicalCacheKey(const api::QuerySpec& spec,
                                       uint64_t epoch);

 private:
  /// One pinned incremental stream (DESIGN.md §9): its own reader/pool
  /// set and iterator, warm across batches, confined to one batch at a
  /// time by `mu`.
  struct Session {
    SessionId id = 0;
    api::QuerySpec spec;
    shard::ShardId home_shard = 0;  ///< tile of the location
    std::unique_ptr<shard::ShardedNetworkReader> reader MCN_GUARDED_BY(mu);
    std::unique_ptr<expand::NnEngine> engine MCN_GUARDED_BY(mu);
    std::unique_ptr<algo::IncrementalTopK> query MCN_GUARDED_BY(mu);
    Mutex mu;  ///< serializes batches on this session
    /// Batches submitted but not yet finished; only idle (== 0) sessions
    /// are evictable.
    std::atomic<int> inflight{0};
    /// Last submit/completion, for LRU + idle eviction. Guarded by the
    /// *service's* sessions_mu_ (a cross-object contract TSA cannot
    /// express as GUARDED_BY; the REQUIRES(sessions_mu_) helpers below
    /// are the checked part of it).
    std::chrono::steady_clock::time_point last_used{};
  };

  /// One admitted request: a one-shot spec or a session batch pull, plus
  /// the promise a queued one resolves.
  struct Task {
    api::QuerySpec spec;
    std::shared_ptr<Session> session;  ///< non-null: session batch
    int batch_n = 0;
    /// The tile owning the request's location (HomeShard), fixed at
    /// admission: what the executing reader counts local fetches against
    /// and the per-shard counters book the request on.
    shard::ShardId home_shard = 0;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point enqueue_time{};
    /// Absolute deadline (anchored at admission, DESIGN.md §10). A task
    /// found expired at dequeue resolves DeadlineExceeded without running;
    /// a running one is cancelled cooperatively via CancelToken.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Trace identity stamped at admission (inactive when tracing is off);
    /// the executing thread installs it thread-locally for the query.
    obs::TraceContext trace;
    /// Result-cache single-flight token (DESIGN.md §13): non-null on the
    /// one task computing a cache key. Whoever finishes the task — the
    /// executor, the discard handler, or an admission-failure path — must
    /// Complete the flight or coalesced waiters hang.
    std::shared_ptr<ResultFlight> cache_flight;
    std::string cache_key;
    uint64_t cache_epoch = 0;
  };

  /// One execution slot (DESIGN.md §6): the query state a request runs
  /// on. Whoever claims the slot — a pool thread for a queued task or a
  /// caller on the inline route — holds it for one request, so its readers
  /// and pools are only ever used by one thread at a time. Executing
  /// threads record into the service's obs::Registry at the slot's index
  /// (DESIGN.md §11).
  struct Slot {
    std::unique_ptr<shard::ShardedNetworkReader> reader;
    /// Intra-query probe rig; only built when per_query_parallelism > 1.
    std::unique_ptr<ExpansionExecutor> expansion;
    /// Validated landmark-index reader (enable_prune_index and a present
    /// index only). Owns its own small pool — see net::kLandmarkPoolFrames.
    std::unique_ptr<net::LandmarkIndexReader> landmark;
    /// Set while a thread executes on the slot; debug builds abort when a
    /// second thread enters it meanwhile.
    std::atomic<bool> entered{false};
  };

  /// Cached instrument handles (resolved once at construction; recording
  /// through them never touches the registry mutex).
  struct Metrics {
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* timed_out = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* session_batches = nullptr;
    obs::Counter* ran_inline = nullptr;
    obs::Counter* buffer_misses = nullptr;
    obs::Counter* buffer_accesses = nullptr;
    obs::Counter* prune_checked = nullptr;
    obs::Counter* prune_cut = nullptr;
    obs::Counter* cache_hit = nullptr;
    obs::Counter* cache_miss = nullptr;
    obs::Counter* cache_coalesced = nullptr;
    obs::Counter* cpu_micros = nullptr;
    obs::Counter* stall_micros = nullptr;
    obs::Counter* queue_micros = nullptr;
    obs::Histogram* latency_us = nullptr;
    /// Per-shard completion, miss and routed-fetch attribution, indexed by
    /// the request's home shard.
    std::vector<obs::Counter*> shard_completed;
    std::vector<obs::Counter*> shard_misses;
    std::vector<obs::Counter*> shard_local_fetches;
    std::vector<obs::Counter*> shard_remote_fetches;
  };

  QueryService(shard::ShardedStorage* storage,
               const shard::ShardedNetworkFiles& files,
               const ServiceOptions& options);

  /// Builds one reader over the service's storage with the per-slot pool
  /// budget (pool_frames_per_worker), bound to `home` — the single
  /// construction path for slot and session readers.
  std::unique_ptr<shard::ShardedNetworkReader> MakeReader(
      shard::ShardId home) const;
  /// The shard owning `location` under the routing table.
  shard::ShardId HomeShard(const graph::Location& location) const;

  /// Stamps `task` admitted now: trace context, admission event, the
  /// anchor of its queue wait and of its deadline (`deadline_ms` > 0).
  static void StampAdmission(int32_t deadline_ms, Task* task);
  /// Admits a one-shot spec into `task` (Submit / SubmitAndWait). Returns
  /// the answer when the result cache gives one — a hit, or a coalesced
  /// waiter's future — and nothing when the task must execute.
  std::optional<std::future<QueryResult>> AdmitQuery(api::QuerySpec spec,
                                                     Task* task);
  /// Admits a session batch into `task` (SessionNext / SessionNextAndWait),
  /// taking the session's in-flight ticket; NotFound for an unknown id.
  Status AdmitSessionBatch(SessionId id, int n, Task* task);

  /// Takes the task's max_inflight ticket (DESIGN.md §10). Over the cap,
  /// books the rejection, unadmits the task and returns the shed status.
  Status TakeInflightTicket(Task& task);
  /// Returns a max_inflight ticket (no-op when max_inflight is 0).
  void ReturnInflightTicket();
  /// Settles an admitted task that will not execute: returns its session
  /// ticket and fails its cache flight, if any (coalesced waiters share
  /// the fate). Every path that drops an admitted task must call this.
  void Unadmit(Task& task, const Status& status);
  /// Settles a task counted in queued_tasks_ that will not execute (the
  /// pool refused or discarded it): uncounts it, returns its max_inflight
  /// ticket and unadmits it.
  void DropQueued(Task& task, const Status& status);
  /// Takes the max_inflight ticket and enqueues `task`, resolving the
  /// future immediately when it is shed or the service is shut down.
  std::future<QueryResult> Enqueue(Task&& task);
  /// Enqueues a task that holds its max_inflight ticket.
  std::future<QueryResult> EnqueueTicketed(Task&& task);
  /// The synchronous forms' dispatch: takes the max_inflight ticket, then
  /// the inline route when TryClaimSlotInline succeeds, else the queue.
  QueryResult RunInlineOrWait(Task&& task);

  /// Claims a slot for a task a pool thread dequeued, waiting while every
  /// slot is held.
  int ClaimSlotForQueued();
  /// Claims an idle slot for the calling thread when no queued task waits
  /// for one and Shutdown has not closed the inline route; -1 otherwise.
  int TryClaimSlotInline();
  void ReleaseSlot(int slot);

  /// Runs `task` on slot `slot_index`, which the calling thread holds, and
  /// books it; everything but resolving the promise and returning the
  /// max_inflight ticket.
  QueryResult Execute(Task& task, int slot_index);
  /// Runs the query on `slot`'s readers, bound to `home`; fills
  /// everything but the latency fields of the result stats. `cancel`
  /// (nullable) is checked cooperatively by the expansion layer.
  QueryResult RunQuery(const api::QuerySpec& spec, shard::ShardId home,
                       Slot& slot, const CancelToken* cancel);
  /// Runs one session batch (creating the session's engine on first use).
  QueryResult RunSessionBatch(Session& session, int n,
                              const CancelToken* cancel);

  /// Removes idle sessions past the idle timeout from the table (runs on
  /// every OpenSession). The removed sessions are moved into `evicted`, so
  /// the caller destroys them after releasing sessions_mu_: a session's
  /// engine, cache and pools must not be torn down under the lock.
  void EvictExpiredSessions(std::vector<std::shared_ptr<Session>>* evicted)
      MCN_REQUIRES(sessions_mu_);
  /// Removes the LRU idle session to make room in a full table, moving it
  /// into `evicted` as above. False = every session is busy.
  bool MakeSessionRoom(std::vector<std::shared_ptr<Session>>* evicted)
      MCN_REQUIRES(sessions_mu_);

  shard::ShardedStorage* storage_;
  shard::ShardedNetworkFiles files_;
  ServiceOptions opts_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Slot claims (DESIGN.md §6).
  Mutex slots_mu_;
  CondVar slot_released_;
  /// Unclaimed slots; the most recently released last.
  std::vector<int> idle_slots_ MCN_GUARDED_BY(slots_mu_);
  /// Tasks on the work queue or dequeued and waiting for a slot; the
  /// inline route never overtakes them.
  int64_t queued_tasks_ MCN_GUARDED_BY(slots_mu_) = 0;
  /// Set by Shutdown: no more inline claims.
  bool inline_closed_ MCN_GUARDED_BY(slots_mu_) = false;
  std::unique_ptr<ThreadPool<Task>> pool_;
  /// Queries admitted and not yet finished (max_inflight > 0 only).
  std::atomic<int64_t> inflight_{0};
  mutable Mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_
      MCN_GUARDED_BY(sessions_mu_);
  SessionId next_session_id_ MCN_GUARDED_BY(sessions_mu_) = 1;
  /// Cross-query result cache (null unless result_cache_entries > 0) and
  /// the epoch its keys carry (DESIGN.md §13).
  std::unique_ptr<ResultCache> result_cache_;
  std::atomic<uint64_t> network_epoch_{0};
  bool shut_down_ MCN_GUARDED_BY(sessions_mu_) = false;
  /// Service-scoped instrument registry (per-instance so tests and
  /// side-by-side services never double-count), sized one instrument slot
  /// per execution slot.
  obs::Registry registry_;
  Metrics metrics_;
  /// The stats window: its start, and the storage's and the cache's
  /// lifetime totals then, which MetricsSnapshot subtracts.
  mutable Mutex window_mu_;
  Stopwatch uptime_ MCN_GUARDED_BY(window_mu_);
  storage::DiskManager::Stats disk_baseline_ MCN_GUARDED_BY(window_mu_);
  uint64_t evictions_baseline_ MCN_GUARDED_BY(window_mu_) = 0;
};

}  // namespace mcn::exec

#endif  // MCN_EXEC_QUERY_SERVICE_H_
