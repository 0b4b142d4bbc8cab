#include "mcn/exec/query_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "mcn/algo/constraints.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/api/wire.h"
#include "mcn/common/macros.h"
#include "mcn/exec/affinity.h"
#include "mcn/exec/result_cache.h"

namespace mcn::exec {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Status ValidateOptions(const ServiceOptions& options) {
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("QueryService: num_workers must be > 0");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("QueryService: queue_capacity must be > 0");
  }
  if (options.max_sessions == 0) {
    return Status::InvalidArgument("QueryService: max_sessions must be > 0");
  }
  return Status::OK();
}

/// The reader counters a request's I/O stats are deltas of.
struct IoCounters {
  storage::BufferPool::Stats pool;
  shard::ShardedNetworkReader::ShardIoStats fetches;
};

/// The one epilogue of every executed request, failed or not: execution
/// time, buffer-pool deltas and the routed-fetch split since `before`. A
/// request that fails while executing spent that time executing; without
/// these, Execute would book it as queue wait (DESIGN.md §10).
void FinishExecStats(const Stopwatch& watch, const IoCounters& before,
                     const IoCounters& after, QueryStats* stats) {
  stats->exec_seconds = watch.ElapsedSeconds();
  stats->buffer_misses = after.pool.misses - before.pool.misses;
  stats->buffer_accesses = after.pool.accesses() - before.pool.accesses();
  stats->local_fetches =
      after.fetches.local_fetches - before.fetches.local_fetches;
  stats->remote_fetches =
      after.fetches.remote_fetches - before.fetches.remote_fetches;
}

/// Runs `spec`'s query processor over `engine` and fills `result`'s rows
/// (post-constraint) and prune counters.
Status RunProcessor(const api::QuerySpec& spec, expand::NnEngine* engine,
                    const algo::QueryOptions& exec, QueryResult* result) {
  const auto& constraints = spec.preference.constraints;
  switch (spec.kind) {
    case QueryKind::kSkyline: {
      algo::SkylineOptions sky_opts;
      sky_opts.exec = exec;
      algo::SkylineQuery query(engine, sky_opts);
      auto rows = query.ComputeAll();
      // The oracle's work counts whether or not the query finished.
      result->stats.prune_checked = query.stats().prune_checked;
      result->stats.prune_cut = query.stats().prune_cut;
      MCN_RETURN_IF_ERROR(rows.status());
      result->skyline = std::move(rows).value();
      break;
    }
    case QueryKind::kTopK: {
      algo::TopKOptions topk_opts;
      topk_opts.k = spec.k;
      topk_opts.exec = exec;
      algo::TopKQuery query(engine,
                            algo::WeightedSum(spec.preference.weights),
                            topk_opts);
      MCN_ASSIGN_OR_RETURN(result->topk, query.Run());
      break;
    }
    case QueryKind::kIncrementalTopK: {
      algo::IncrementalTopK query(engine,
                                  algo::WeightedSum(spec.preference.weights),
                                  algo::ProbePolicy::kRoundRobin, exec);
      // First-k pull with streaming caps (same row-for-row semantics as a
      // session over this spec; unconstrained it is the plain k-pull).
      MCN_ASSIGN_OR_RETURN(
          result->topk,
          query.NextBatch(spec.k, [&constraints](const algo::TopKEntry& row) {
            return algo::PassesCaps(constraints, row);
          }));
      result->exhausted = query.exhausted();
      break;
    }
  }
  // Post-dominance constraint filter (algo/constraints.h): an exact no-op
  // for unconstrained specs — result hashes stay byte-identical. The
  // incremental path filtered while pulling (above), so caps are already
  // satisfied and re-applying is idempotent.
  if (!constraints.Unconstrained()) {
    if (spec.kind == QueryKind::kSkyline) {
      algo::ApplyConstraints(constraints, &result->skyline);
    } else {
      algo::ApplyConstraints(constraints, &result->topk);
    }
  }
  return Status::OK();
}

QueryResult FailedResult(Status status) {
  QueryResult failed;
  failed.status = std::move(status);
  failed.result_hash = algo::kFnvOffsetBasis;
  return failed;
}

/// A future that is already resolved with a failed result.
std::future<QueryResult> ReadyFailure(Status status) {
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  promise.set_value(FailedResult(std::move(status)));
  return future;
}

}  // namespace

namespace {

/// Everything but the row vectors.
api::QueryResponse ResponseScalars(const QueryResult& result) {
  api::QueryResponse response;
  response.status = result.status;
  response.kind = result.kind;
  response.result_hash = result.result_hash;
  response.buffer_misses = result.stats.buffer_misses;
  response.buffer_accesses = result.stats.buffer_accesses;
  response.exec_seconds = result.stats.exec_seconds;
  response.exhausted = result.exhausted;
  return response;
}

}  // namespace

api::QueryResponse QueryResult::ToResponse() const& {
  api::QueryResponse response = ResponseScalars(*this);
  response.skyline = skyline;
  response.topk = topk;
  return response;
}

api::QueryResponse QueryResult::ToResponse() && {
  api::QueryResponse response = ResponseScalars(*this);
  response.skyline = std::move(skyline);
  response.topk = std::move(topk);
  return response;
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    shard::ShardedStorage* storage, const shard::ShardedNetworkFiles& files,
    const ServiceOptions& options) {
  if (storage == nullptr) {
    return Status::InvalidArgument("QueryService: null storage");
  }
  if (files.num_shards() != storage->num_shards()) {
    return Status::InvalidArgument(
        "QueryService: storage/files shard count mismatch");
  }
  MCN_RETURN_IF_ERROR(ValidateOptions(options));
  if (options.enable_prune_index && files.landmark.present()) {
    // Surface a corrupt/mismatched index as a Create error, not a crash
    // in the constructor (which builds one reader per slot). The global
    // index row file lives on shard 0's disk (DESIGN.md §12).
    net::LandmarkIndexReader probe(storage->disk(0), files.landmark);
    MCN_RETURN_IF_ERROR(probe.Validate());
  }
  return std::unique_ptr<QueryService>(
      new QueryService(storage, files, options));
}

QueryService::QueryService(shard::ShardedStorage* storage,
                           const shard::ShardedNetworkFiles& files,
                           const ServiceOptions& options)
    : storage_(storage),
      files_(files),
      opts_(options),
      registry_(options.num_workers) {
  // Resolve every instrument once; executing threads then record
  // lock-free at their execution slot's index (exact per-slot instrument
  // slots — the registry rounds the count up to a power of two, never down
  // below num_workers <= 64).
  namespace mn = metric_names;
  metrics_.completed = registry_.GetCounter(mn::kCompleted);
  metrics_.failed = registry_.GetCounter(mn::kFailed);
  metrics_.rejected = registry_.GetCounter(mn::kRejected);
  metrics_.timed_out = registry_.GetCounter(mn::kTimedOut);
  metrics_.cancelled = registry_.GetCounter(mn::kCancelled);
  metrics_.session_batches = registry_.GetCounter(mn::kSessionBatches);
  metrics_.ran_inline = registry_.GetCounter(mn::kInline);
  metrics_.buffer_misses = registry_.GetCounter(mn::kBufferMisses);
  metrics_.buffer_accesses = registry_.GetCounter(mn::kBufferAccesses);
  metrics_.prune_checked = registry_.GetCounter(mn::kPruneChecked);
  metrics_.prune_cut = registry_.GetCounter(mn::kPruneCut);
  metrics_.cache_hit = registry_.GetCounter(mn::kCacheHit);
  metrics_.cache_miss = registry_.GetCounter(mn::kCacheMiss);
  metrics_.cache_coalesced = registry_.GetCounter(mn::kCacheCoalesced);
  metrics_.cpu_micros = registry_.GetCounter(mn::kCpuMicros);
  metrics_.stall_micros = registry_.GetCounter(mn::kStallMicros);
  metrics_.queue_micros = registry_.GetCounter(mn::kQueueMicros);
  metrics_.latency_us = registry_.GetHistogram(mn::kLatencyUs);
  for (int s = 0; s < storage_->num_shards(); ++s) {
    metrics_.shard_completed.push_back(
        registry_.GetCounter(mn::Shard(s, "completed")));
    metrics_.shard_misses.push_back(
        registry_.GetCounter(mn::Shard(s, "buffer_misses")));
    metrics_.shard_local_fetches.push_back(
        registry_.GetCounter(mn::Shard(s, "local_fetches")));
    metrics_.shard_remote_fetches.push_back(
        registry_.GetCounter(mn::Shard(s, "remote_fetches")));
  }
  slots_.reserve(opts_.num_workers);
  for (int i = 0; i < opts_.num_workers; ++i) {
    auto slot = std::make_unique<Slot>();
    // Rebound to each request's home shard before it runs (RunQuery).
    slot->reader = MakeReader(shard::kInvalidShard);
    if (opts_.enable_prune_index && files_.landmark.present()) {
      // Create() validated the index file already; a per-slot reader
      // over the same pages cannot fail differently.
      slot->landmark = std::make_unique<net::LandmarkIndexReader>(
          storage_->disk(0), files_.landmark);
      MCN_CHECK(slot->landmark->Validate().ok());
    }
    slots_.push_back(std::move(slot));
  }
  {
    MutexLock lock(&slots_mu_);
    // Slot 0 on top: with one request at a time, that is the slot it uses.
    for (int i = opts_.num_workers - 1; i >= 0; --i) {
      idle_slots_.push_back(i);
    }
  }
  if (opts_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(opts_.result_cache_entries);
  }
  // Freeze the shared storage read-only for the service's lifetime; the
  // storage layer DCHECKs any mutation from here on (DESIGN.md §6).
  storage_->BeginConcurrentReads();
  // The stats window opens here: reads made before, by an earlier service
  // or by the landmark validation above, are not this service's.
  ResetStats();
  // One work queue that every pool thread drains (DESIGN.md §6, §8).
  pool_ = std::make_unique<ThreadPool<Task>>(
      opts_.num_workers, opts_.queue_capacity,
      [this](Task&& task, int thread) {
        // Pool thread i on CPU i, pinned on its first task (a pool thread
        // serves one service for its whole life). Best-effort by design.
        thread_local bool pinned = false;
        if (opts_.pin_workers && !pinned) {
          PinCurrentThreadToCpu(thread);
          pinned = true;
        }
        const int slot = ClaimSlotForQueued();
        QueryResult result = Execute(task, slot);
        // Released before the client sees the result, so its next
        // request can find the slot idle.
        ReleaseSlot(slot);
        task.promise.set_value(std::move(result));
        // Last: the query is no longer in flight.
        ReturnInflightTicket();
      },
      [this](Task&& task) {
        const Status discarded = Status::FailedPrecondition(
            "query discarded by non-draining shutdown");
        DropQueued(task, discarded);
        task.promise.set_value(FailedResult(discarded));
      });
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

std::unique_ptr<shard::ShardedNetworkReader> QueryService::MakeReader(
    shard::ShardId home) const {
  // One construction path for slot readers AND session readers: the
  // session-I/O-parity contract (a stream's logical I/O matches a local
  // run over an equal-capacity pool) holds exactly because both get the
  // same pool budget and split policy.
  const std::vector<size_t> shard_frames =
      opts_.split_pool_across_shards
          ? shard::SplitFramesAcrossShards(opts_.pool_frames_per_worker,
                                           storage_->num_shards())
          : std::vector<size_t>(static_cast<size_t>(storage_->num_shards()),
                                opts_.pool_frames_per_worker);
  auto reader = std::make_unique<shard::ShardedNetworkReader>(
      storage_, files_, shard_frames);
  reader->set_home_shard(home);
  return reader;
}

shard::ShardId QueryService::HomeShard(
    const graph::Location& location) const {
  // Out-of-range locations fail validation on execution; book them on
  // shard 0 meanwhile.
  const shard::Partition& part = storage_->partition();
  if (location.is_node()) {
    if (location.node() < part.num_nodes()) {
      return part.of_node(location.node());
    }
  } else if (location.edge().u < part.num_nodes()) {
    return part.of_edge(location.edge());
  }
  return 0;
}

void QueryService::Unadmit(Task& task, const Status& status) {
  if (task.session != nullptr) {
    task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (task.cache_flight == nullptr) return;
  MCN_DCHECK(result_cache_ != nullptr);
  // A flighted task that never runs must still settle its coalesced
  // waiters (shared fate, never a hang).
  result_cache_->Complete(task.cache_flight, task.cache_key,
                          task.cache_epoch, FailedResult(status));
  task.cache_flight = nullptr;
}

Status QueryService::TakeInflightTicket(Task& task) {
  if (opts_.max_inflight == 0) return Status::OK();
  // Admission control (DESIGN.md §10): never park the caller. The
  // in-flight ticket is taken optimistically and returned on any
  // rejection; whoever finishes the task returns it at completion.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) <
      static_cast<int64_t>(opts_.max_inflight)) {
    return Status::OK();
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  metrics_.rejected->Add(1);
  Status shed = Status::ResourceExhausted(
      "QueryService: over max_inflight (" +
      std::to_string(opts_.max_inflight) + "), load shed");
  Unadmit(task, shed);
  return shed;
}

void QueryService::ReturnInflightTicket() {
  if (opts_.max_inflight > 0) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void QueryService::DropQueued(Task& task, const Status& status) {
  {
    MutexLock lock(&slots_mu_);
    --queued_tasks_;
  }
  ReturnInflightTicket();
  Unadmit(task, status);
}

std::future<QueryResult> QueryService::Enqueue(Task&& task) {
  Status admitted = TakeInflightTicket(task);
  if (!admitted.ok()) return ReadyFailure(std::move(admitted));
  return EnqueueTicketed(std::move(task));
}

std::future<QueryResult> QueryService::EnqueueTicketed(Task&& task) {
  std::future<QueryResult> future = task.promise.get_future();
  {
    // Counted before the push, so no inline claim overtakes the task.
    MutexLock lock(&slots_mu_);
    ++queued_tasks_;
  }
  Status refused;
  if (opts_.max_inflight > 0) {
    // Load shedding never parks the caller, on a full ring either.
    const auto outcome = pool_->TrySubmit(std::move(task));
    if (outcome == ThreadPool<Task>::TryResult::kAccepted) return future;
    if (outcome == ThreadPool<Task>::TryResult::kFull) {
      metrics_.rejected->Add(1);
      refused = Status::ResourceExhausted(
          "QueryService: queue full, load shed");
    } else {
      refused = Status::FailedPrecondition("QueryService is shut down");
    }
  } else if (pool_->Submit(std::move(task))) {
    return future;
  } else {
    refused = Status::FailedPrecondition("QueryService is shut down");
  }
  // The pool did not consume the task: it still owns its tickets.
  DropQueued(task, refused);
  return ReadyFailure(std::move(refused));
}

QueryResult QueryService::RunInlineOrWait(Task&& task) {
  Status admitted = TakeInflightTicket(task);
  if (!admitted.ok()) return FailedResult(std::move(admitted));
  const int slot = TryClaimSlotInline();
  if (slot < 0) return EnqueueTicketed(std::move(task)).get();
  // The inline route (DESIGN.md §6): the caller's thread executes, so
  // the request crosses no queue and no thread hand-off.
  metrics_.ran_inline->Add(1, slot);
  QueryResult result = Execute(task, slot);
  ReleaseSlot(slot);
  ReturnInflightTicket();
  return result;
}

int QueryService::ClaimSlotForQueued() {
  MutexLock lock(&slots_mu_);
  while (idle_slots_.empty()) slot_released_.Wait(&slots_mu_);
  --queued_tasks_;
  const int slot = idle_slots_.back();
  idle_slots_.pop_back();
  return slot;
}

int QueryService::TryClaimSlotInline() {
  MutexLock lock(&slots_mu_);
  if (inline_closed_ || queued_tasks_ > 0 || idle_slots_.empty()) return -1;
  const int slot = idle_slots_.back();
  idle_slots_.pop_back();
  return slot;
}

void QueryService::ReleaseSlot(int slot) {
  {
    MutexLock lock(&slots_mu_);
    idle_slots_.push_back(slot);
  }
  slot_released_.NotifyOne();
}

std::string QueryService::CanonicalCacheKey(const api::QuerySpec& spec,
                                            uint64_t epoch) {
  // The canonical kExecute wire frame of the spec with execution-strategy
  // fields normalized away: the determinism contract (DESIGN.md §7) makes
  // results byte-identical across engine flavor and parallelism, and a
  // deadline changes when a query fails, never what it returns.
  api::WireRequest request;
  request.type = api::MsgType::kExecute;
  request.spec = spec;
  request.spec.engine = expand::EngineKind::kCea;
  request.spec.parallelism = 0;
  request.spec.deadline_ms = 0;
  std::string key = api::EncodeRequestFrame(request);
  for (int shift = 0; shift < 64; shift += 8) {
    key.push_back(static_cast<char>((epoch >> shift) & 0xff));
  }
  return key;
}

void QueryService::StampAdmission(int32_t deadline_ms, Task* task) {
  // Adopt the caller's installed trace context (the wire server traces
  // decode/encode under the same query id) or mint a fresh one.
  task->trace = obs::CurrentTraceContext();
  if (!task->trace.active()) task->trace = obs::StartQueryTrace();
  obs::RecordInstant(task->trace, obs::EventType::kAdmission,
                     task->home_shard);
  task->enqueue_time = std::chrono::steady_clock::now();
  if (deadline_ms > 0) {
    // The deadline covers the full request lifetime from admission: queue
    // wait counts against it, so an overloaded service times the query out
    // instead of running it long after the client gave up.
    task->has_deadline = true;
    task->deadline =
        task->enqueue_time + std::chrono::milliseconds(deadline_ms);
  }
}

std::optional<std::future<QueryResult>> QueryService::AdmitQuery(
    api::QuerySpec spec, Task* task) {
  task->home_shard = HomeShard(spec.location);
  StampAdmission(spec.deadline_ms, task);
  task->spec = std::move(spec);
  if (result_cache_ == nullptr) return std::nullopt;
  // Cross-query sharing (DESIGN.md §13). Hits and coalesced waiters
  // resolve without entering a queue (and without counting in
  // completed/failed — like rejected, they were never admitted); a miss
  // rides the task as the single-flight owner.
  const uint64_t epoch = network_epoch();
  std::string key = CanonicalCacheKey(task->spec, epoch);
  ResultCache::Lookup lookup = result_cache_->Acquire(key, epoch);
  switch (lookup.outcome) {
    case ResultCache::Lookup::Outcome::kHit: {
      metrics_.cache_hit->Add(1);
      std::promise<QueryResult> ready;
      std::future<QueryResult> future = ready.get_future();
      ready.set_value(std::move(lookup.cached));
      return future;
    }
    case ResultCache::Lookup::Outcome::kCoalesced: {
      metrics_.cache_coalesced->Add(1);
      if (!task->has_deadline) return std::move(lookup.future);
      // A coalesced waiter never enters the queue where deadlines are
      // enforced, and deadline_ms is normalized out of the cache key —
      // so enforce this waiter's own deadline when its future is
      // consumed instead of inheriting the owning flight's unbounded
      // wait. Deferred: runs on the consumer's get()/wait() call.
      return std::async(
          std::launch::deferred,
          [fut = std::move(lookup.future),
           deadline = task->deadline]() mutable -> QueryResult {
            if (fut.wait_until(deadline) == std::future_status::timeout) {
              QueryResult timed_out;
              timed_out.status = Status::DeadlineExceeded(
                  "deadline exceeded while coalesced on an identical "
                  "in-flight query");
              return timed_out;
            }
            return fut.get();
          });
    }
    case ResultCache::Lookup::Outcome::kMiss:
      metrics_.cache_miss->Add(1);
      task->cache_flight = std::move(lookup.flight);
      task->cache_key = std::move(key);
      task->cache_epoch = epoch;
      break;
  }
  return std::nullopt;
}

std::future<QueryResult> QueryService::Submit(api::QuerySpec spec) {
  Task task;
  if (auto answered = AdmitQuery(std::move(spec), &task)) {
    return std::move(*answered);
  }
  return Enqueue(std::move(task));
}

QueryResult QueryService::SubmitAndWait(api::QuerySpec spec) {
  Task task;
  if (auto answered = AdmitQuery(std::move(spec), &task)) {
    return answered->get();
  }
  return RunInlineOrWait(std::move(task));
}

Result<SessionId> QueryService::OpenSession(api::QuerySpec spec) {
  if (spec.kind != QueryKind::kIncrementalTopK) {
    return Status::InvalidArgument(
        "OpenSession: spec kind must be incremental top-k");
  }
  MCN_RETURN_IF_ERROR(spec.Validate(num_costs()));
  auto session = std::make_shared<Session>();
  session->home_shard = HomeShard(spec.location);
  session->spec = std::move(spec);
  session->last_used = std::chrono::steady_clock::now();
  // Declared before the lock, so evicted sessions are destroyed after it
  // is released.
  std::vector<std::shared_ptr<Session>> evicted;
  MutexLock lock(&sessions_mu_);
  if (shut_down_) {
    return Status::FailedPrecondition("QueryService is shut down");
  }
  // Lazy idle-timeout eviction runs on *every* open (not only when the
  // table is full), so abandoned sessions release their pools/engines
  // even on a service that never approaches max_sessions.
  EvictExpiredSessions(&evicted);
  if (sessions_.size() >= opts_.max_sessions && !MakeSessionRoom(&evicted)) {
    return Status::FailedPrecondition(
        "OpenSession: session table full (" +
        std::to_string(opts_.max_sessions) + " busy sessions)");
  }
  session->id = next_session_id_++;
  sessions_.emplace(session->id, session);
  return session->id;
}

void QueryService::EvictExpiredSessions(
    std::vector<std::shared_ptr<Session>>* evicted) {
  if (opts_.session_idle_seconds <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const Session& s = *it->second;
    const bool idle = s.inflight.load(std::memory_order_acquire) == 0;
    if (idle && std::chrono::duration<double>(now - s.last_used).count() >
                    opts_.session_idle_seconds) {
      evicted->push_back(std::move(it->second));
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool QueryService::MakeSessionRoom(
    std::vector<std::shared_ptr<Session>>* evicted) {
  // Evict the least-recently-used idle session.
  auto victim = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second->inflight.load(std::memory_order_acquire) != 0) continue;
    if (victim == sessions_.end() ||
        it->second->last_used < victim->second->last_used) {
      victim = it;
    }
  }
  if (victim == sessions_.end()) return false;
  evicted->push_back(std::move(victim->second));
  sessions_.erase(victim);
  return true;
}

Status QueryService::AdmitSessionBatch(SessionId id, int n, Task* task) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(&sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("SessionNext: unknown or evicted session " +
                              std::to_string(id));
    }
    session = it->second;
    session->inflight.fetch_add(1, std::memory_order_acq_rel);
    session->last_used = std::chrono::steady_clock::now();
  }
  task->batch_n = n;
  task->home_shard = session->home_shard;
  // A session's deadline applies per batch, re-anchored at each pull.
  StampAdmission(session->spec.deadline_ms, task);
  task->session = std::move(session);
  return Status::OK();
}

std::future<QueryResult> QueryService::SessionNext(SessionId id, int n) {
  Task task;
  Status admitted = AdmitSessionBatch(id, n, &task);
  if (!admitted.ok()) return ReadyFailure(std::move(admitted));
  return Enqueue(std::move(task));
}

QueryResult QueryService::SessionNextAndWait(SessionId id, int n) {
  Task task;
  Status admitted = AdmitSessionBatch(id, n, &task);
  if (!admitted.ok()) return FailedResult(std::move(admitted));
  return RunInlineOrWait(std::move(task));
}

Status QueryService::CloseSession(SessionId id) {
  // Destroyed after the lock is released (declared before it).
  std::shared_ptr<Session> closed;
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("CloseSession: unknown session " +
                            std::to_string(id));
  }
  // An in-flight batch holds its own shared_ptr and finishes normally.
  closed = std::move(it->second);
  sessions_.erase(it);
  return Status::OK();
}

size_t QueryService::num_open_sessions() const {
  MutexLock lock(&sessions_mu_);
  return sessions_.size();
}

void QueryService::Drain() { pool_->Drain(); }

void QueryService::Shutdown(bool drain) {
  {
    MutexLock lock(&sessions_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  pool_->Shutdown(drain);
  {
    // Close the inline route and wait out the requests still on it:
    // nothing may execute once the storage thaws.
    MutexLock lock(&slots_mu_);
    inline_closed_ = true;
    while (idle_slots_.size() < slots_.size()) {
      slot_released_.Wait(&slots_mu_);
    }
  }
  {
    // Drop the streams (their pools read the shared storage) before the
    // read-only freeze is lifted.
    MutexLock lock(&sessions_mu_);
    sessions_.clear();
  }
  storage_->EndConcurrentReads();
}

QueryResult QueryService::Execute(Task& task, int slot_index) {
  Slot& slot = *slots_[slot_index];
  // Claims keep a slot single-threaded (DESIGN.md §6); a second thread in
  // here would share its readers and pools.
  MCN_DCHECK(!slot.entered.exchange(true, std::memory_order_acquire));
  const bool is_session = task.session != nullptr;
  // Install the query's trace identity for everything this thread (and
  // the probe pool it may fan out to) does on its behalf.
  const obs::TraceContextScope trace_scope(task.trace);
  obs::RecordSpanSince(task.trace, obs::EventType::kQueueWait,
                       task.enqueue_time, static_cast<uint64_t>(slot_index));
  QueryResult result;
  if (task.has_deadline &&
      std::chrono::steady_clock::now() >= task.deadline) {
    // Expired while queued: resolve without executing — the whole point of
    // a deadline under overload (DESIGN.md §10).
    result.status = Status::DeadlineExceeded(
        "query deadline expired before execution");
    result.kind =
        is_session ? QueryKind::kIncrementalTopK : task.spec.kind;
    result.result_hash = algo::kFnvOffsetBasis;
  } else {
    CancelToken token;
    if (task.has_deadline) token.ArmDeadline(task.deadline);
    const CancelToken* cancel = task.has_deadline ? &token : nullptr;
    obs::TraceSpan exec_span(
        obs::EventType::kExec,
        static_cast<uint64_t>(is_session ? QueryKind::kIncrementalTopK
                                         : task.spec.kind));
    result = is_session
                 ? RunSessionBatch(*task.session, task.batch_n, cancel)
                 : RunQuery(task.spec, task.home_shard, slot, cancel);
  }
  if (is_session) {
    obs::RecordInstant(task.trace, obs::EventType::kSessionBatch,
                       static_cast<uint64_t>(task.batch_n));
  }
  result.stats.worker = slot_index;
  result.stats.shard = static_cast<int>(task.home_shard);
  // Taken before the stall is slept, so the queue wait never absorbs it.
  result.stats.queue_seconds =
      SecondsSince(task.enqueue_time) - result.stats.exec_seconds;
  // The one modeled I/O charge: one io_latency per buffer miss.
  result.stats.stall_seconds = static_cast<double>(result.stats.buffer_misses) *
                               opts_.io_latency_ms / 1000.0;
  if (opts_.simulate_io_stalls && result.stats.stall_seconds > 0) {
    const auto stall_start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(result.stats.stall_seconds));
    obs::RecordSpanSince(task.trace, obs::EventType::kStall, stall_start,
                         result.stats.buffer_misses);
  }
  result.stats.latency_seconds = SecondsSince(task.enqueue_time);
  // The whole-request span, admission -> completion (encloses the queue
  // wait and exec spans at equal start timestamp).
  obs::RecordSpanSince(task.trace, obs::EventType::kQuery, task.enqueue_time,
                       static_cast<uint64_t>(result.kind));
  // Service aggregation: shared lock-free instruments at the slot's
  // index — no mutex, and no cache line shared with a request running on
  // another slot (DESIGN.md §11).
  if (result.status.ok()) {
    metrics_.completed->Add(1, slot_index);
    if (is_session) metrics_.session_batches->Add(1, slot_index);
    metrics_.shard_completed[task.home_shard]->Add(1, slot_index);
  } else {
    metrics_.failed->Add(1, slot_index);
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      metrics_.timed_out->Add(1, slot_index);
    } else if (result.status.code() == StatusCode::kCancelled) {
      metrics_.cancelled->Add(1, slot_index);
    }
  }
  metrics_.latency_us->Record(
      static_cast<uint64_t>(result.stats.latency_seconds * 1e6), slot_index);
  metrics_.buffer_misses->Add(result.stats.buffer_misses, slot_index);
  metrics_.buffer_accesses->Add(result.stats.buffer_accesses, slot_index);
  if (result.stats.prune_checked > 0) {
    metrics_.prune_checked->Add(result.stats.prune_checked, slot_index);
    metrics_.prune_cut->Add(result.stats.prune_cut, slot_index);
    obs::RecordInstant(task.trace, obs::EventType::kProbePrune,
                       result.stats.prune_cut, result.stats.prune_checked);
  }
  metrics_.cpu_micros->Add(
      static_cast<uint64_t>(result.stats.exec_seconds * 1e6), slot_index);
  metrics_.stall_micros->Add(
      static_cast<uint64_t>(result.stats.stall_seconds * 1e6), slot_index);
  metrics_.queue_micros->Add(
      static_cast<uint64_t>(std::max(result.stats.queue_seconds, 0.0) * 1e6),
      slot_index);
  metrics_.shard_misses[task.home_shard]->Add(result.stats.buffer_misses,
                                              slot_index);
  // Routed fetches of whichever reader set ran the task — the slot's, its
  // probe rig's, or a session's own — land on the request's home shard,
  // like its misses.
  metrics_.shard_local_fetches[task.home_shard]->Add(
      result.stats.local_fetches, slot_index);
  metrics_.shard_remote_fetches[task.home_shard]->Add(
      result.stats.remote_fetches, slot_index);
  if (opts_.flight_recorder != nullptr) {
    obs::QueryDigest digest;
    digest.trace_query_id = task.trace.query_id;
    digest.kind = is_session ? "session"
                             : api::QueryKindName(task.spec.kind);
    digest.worker = slot_index;
    digest.shard = result.stats.shard;
    digest.status = std::string(StatusCodeToString(result.status.code()));
    digest.session_batch = is_session;
    digest.queue_ms = result.stats.queue_seconds * 1e3;
    digest.exec_ms = result.stats.exec_seconds * 1e3;
    digest.stall_ms = result.stats.stall_seconds * 1e3;
    digest.latency_ms = result.stats.latency_seconds * 1e3;
    digest.buffer_misses = result.stats.buffer_misses;
    digest.buffer_accesses = result.stats.buffer_accesses;
    digest.result_hash = result.result_hash;
    // The spec as a replayable kExecute wire frame. A session batch is
    // approximated as a one-shot incremental pull of this batch's size —
    // the closest stateless reproduction of the stream position.
    api::WireRequest replay;
    replay.type = api::MsgType::kExecute;
    replay.spec = is_session ? task.session->spec : task.spec;
    if (is_session) replay.spec.k = task.batch_n;
    digest.spec_frame_hex = obs::ToHex(api::EncodeRequestFrame(replay));
    opts_.flight_recorder->Record(std::move(digest));
  }
  if (is_session) {
    // A batch is "in flight" for eviction purposes until its completion is
    // client-visible — which includes the modeled I/O stall slept above.
    // Returning the ticket any earlier (the old code did, before the
    // stall) leaves the session evictable with an aging timestamp while
    // the client is still blocked on this very batch: a stall longer than
    // session_idle_seconds let the lazy timeout sweep reclaim an actively
    // streamed session. So: refresh last_used first, then return the
    // ticket — the eviction window reopens only with a fresh timestamp.
    {
      MutexLock lock(&sessions_mu_);
      task.session->last_used = std::chrono::steady_clock::now();
    }
    task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (task.cache_flight != nullptr) {
    // Publish before the owner sees the result: waiters and the store are
    // settled by the time any client does. Failures (and stale epochs)
    // are not stored; waiters share the flight's fate.
    result_cache_->Complete(task.cache_flight, task.cache_key,
                            task.cache_epoch, result);
  }
  MCN_DCHECK(slot.entered.exchange(false, std::memory_order_release));
  return result;
}

QueryResult QueryService::RunSessionBatch(Session& session, int n,
                                          const CancelToken* cancel) {
  QueryResult result;
  result.kind = QueryKind::kIncrementalTopK;
  result.result_hash = algo::kFnvOffsetBasis;
  if (n < 0) {
    result.status =
        Status::InvalidArgument("SessionNext: batch size must be >= 0");
    return result;
  }
  // One batch at a time per session; concurrent SessionNext calls on the
  // same id serialize here (each on whichever slot runs it).
  MutexLock lock(&session.mu);
  if (session.reader == nullptr) {
    // First batch: build the session's private reader set (no I/O yet —
    // pools start empty) and pin it for the stream's lifetime.
    session.reader = MakeReader(session.home_shard);
  }
  auto sample = [&] {
    return IoCounters{session.reader->PoolStats(),
                      session.reader->shard_io_stats()};
  };
  const IoCounters before = sample();
  Stopwatch watch;
  if (session.engine == nullptr) {
    // Engine construction does I/O (expansion seeding), charged to this
    // first batch — the same accounting as a local run that builds its
    // iterator and pulls, which keeps session logical I/O comparable to
    // a fresh IncrementalTopK over an equal-capacity pool. The engine
    // stays warm across batches — what distinguishes a session from
    // re-running "first k" queries.
    auto engine = expand::MakeEngine(session.spec.engine,
                                     session.reader.get(),
                                     session.spec.location);
    if (engine.ok()) {
      session.engine = std::move(engine).value();
      session.query = std::make_unique<algo::IncrementalTopK>(
          session.engine.get(),
          algo::WeightedSum(session.spec.preference.weights));
    } else {
      result.status = engine.status();
    }
  }
  if (result.status.ok()) {
    // Pull until n rows pass the caps (streaming constraint semantics: a
    // constrained batch still fills up, DESIGN.md §9) or the component is
    // exhausted.
    const auto& constraints = session.spec.preference.constraints;
    // The token lives on this thread's stack; install it for the batch
    // only — the engine outlives it across batches.
    session.engine->SetCancelToken(cancel);
    auto batch = session.query->NextBatch(
        n, [&constraints](const algo::TopKEntry& row) {
          return algo::PassesCaps(constraints, row);
        });
    session.engine->SetCancelToken(nullptr);
    if (batch.ok()) {
      result.topk = std::move(batch).value();
      result.exhausted = session.query->exhausted();
    } else {
      result.status = batch.status();
    }
  }
  FinishExecStats(watch, before, sample(), &result.stats);
  if (result.status.ok()) result.result_hash = algo::HashResult(result.topk);
  return result;
}

QueryResult QueryService::RunQuery(const api::QuerySpec& spec,
                                   shard::ShardId home, Slot& slot,
                                   const CancelToken* cancel) {
  QueryResult result;
  result.kind = spec.kind;
  result.result_hash = algo::kFnvOffsetBasis;

  // Full semantic validation on the executing thread: malformed specs —
  // wrong-size/negative weights, bad k, bad constraints — surface as an
  // error result (rejectable over the wire), never a CHECK crash.
  Status valid = spec.Validate(num_costs());
  if (!valid.ok()) {
    result.status = std::move(valid);
    return result;
  }

  // Intra-query parallelism: 0 = width-1 turns and 1 = wide turns, both
  // inline over the slot's own reader; > 1 = pooled wide turns on the
  // slot's ExpansionExecutor (clamped to the service's configuration).
  const int par = std::min<int>(spec.parallelism, opts_.per_query_parallelism);
  if (par > 1 && slot.expansion == nullptr) {
    // Built lazily on the first parallel request, so a service whose
    // clients never opt in pays no probe threads or extra pools. Safe
    // here: a slot runs one query at a time.
    auto executor = ExpansionExecutor::Create(
        storage_, files_, opts_.per_query_parallelism,
        opts_.pool_frames_per_worker, opts_.split_pool_across_shards);
    MCN_CHECK(executor.ok());
    slot.expansion = std::move(executor).value();
  }
  const bool pooled = par > 1;
  // Local/remote fetches count against the request's own tile, whichever
  // slot runs it.
  slot.reader->set_home_shard(home);
  if (slot.expansion != nullptr) slot.expansion->SetHomeShard(home);

  if (opts_.cold_cache_per_query) {
    slot.reader->ResetIoState();
    if (slot.expansion != nullptr) slot.expansion->ResetIoState();
    // The index pool follows the same independent-query model, so a
    // query's prune I/O is deterministic regardless of what ran before.
    if (slot.landmark != nullptr) slot.landmark->ResetIoState();
  }
  auto sample = [&] {
    IoCounters c{pooled ? slot.expansion->PoolStats()
                        : slot.reader->PoolStats(),
                 pooled ? slot.expansion->ShardIoStats()
                        : slot.reader->shard_io_stats()};
    if (slot.landmark != nullptr) {
      // Honest I/O accounting: what the oracle spends on index pages is
      // part of the query's miss total, not hidden in a side pool.
      const storage::BufferPool::Stats li = slot.landmark->pool().stats();
      c.pool.hits += li.hits;
      c.pool.misses += li.misses;
      c.pool.evictions += li.evictions;
    }
    return c;
  };
  const IoCounters before = sample();

  Stopwatch watch;
  std::unique_ptr<expand::NnEngine> engine;
  std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
  if (pooled) {
    auto rig = slot.expansion->NewQuery(spec.location);
    if (rig.ok()) {
      engine = std::move(rig->engine);
      scheduler = std::move(rig->scheduler);
    } else {
      result.status = rig.status();
    }
  } else {
    // Wide turns run the CEA cache whatever the spec names, like pooled
    // ones (the plain cache: inline turns need no thread-safe provider,
    // and record contents and pop order match the striped one); width-1
    // turns run the spec's engine.
    auto made = expand::MakeEngine(
        par >= 1 ? expand::EngineKind::kCea : spec.engine,
        slot.reader.get(), spec.location);
    if (made.ok()) {
      engine = std::move(made).value();
      scheduler = std::make_unique<expand::ParallelProbeScheduler>(
          engine.get(), /*pool=*/nullptr, /*striped=*/nullptr);
    } else {
      result.status = made.status();
    }
  }
  if (result.status.ok()) {
    // Cooperative cancellation: the expansions check the token per settle,
    // the scheduler at every turn. Engine and token die with this call,
    // so no clearing is needed.
    engine->SetCancelToken(cancel);
    algo::QueryOptions exec;
    exec.parallelism = par;
    exec.scheduler = scheduler.get();
    // The skyline processor arms the prune oracle only where it is exact
    // (round-robin at parallelism 0); the others ignore the index.
    exec.landmark_index = slot.landmark.get();
    result.status = RunProcessor(spec, engine.get(), exec, &result);
  }
  FinishExecStats(watch, before, sample(), &result.stats);
  if (!result.status.ok()) return result;

  // Hashed outside the measured window, like the bench harness; the hash
  // covers exactly the rows the client receives (post-constraint).
  result.result_hash = spec.kind == QueryKind::kSkyline
                           ? algo::HashResult(result.skyline)
                           : algo::HashResult(result.topk);
  return result;
}

obs::Snapshot QueryService::MetricsSnapshot() const {
  namespace mn = metric_names;
  obs::Snapshot snap = registry_.TakeSnapshot();
  // The storage's and the cache's counters run for their whole life; the
  // window's rows are their growth since its baseline. The storage stays
  // frozen while the service lives, so they only grow. Disk totals are
  // merged across shard disks by file name.
  const storage::DiskManager::Stats disk = storage_->MergedStats();
  MutexLock lock(&window_mu_);
  const storage::DiskManager::Stats& base = disk_baseline_;
  snap.AddCounter(mn::kDiskPageReads, disk.page_reads - base.page_reads);
  snap.AddCounter(mn::kDiskPageWrites, disk.page_writes - base.page_writes);
  snap.AddCounter(mn::kDiskBatchReads, disk.batch_reads - base.batch_reads);
  snap.AddCounter(mn::kDiskBatchPages, disk.batch_pages - base.batch_pages);
  for (const auto& file : disk.per_file_reads) {
    snap.AddCounter(mn::DiskFileReads(file.name),
                    file.reads - base.ReadsForFile(file.name));
  }
  if (result_cache_ != nullptr) {
    const ResultCache::Stats cache = result_cache_->stats();
    snap.AddCounter(mn::kCacheEvictions,
                    cache.evictions - evictions_baseline_);
    snap.SetGauge(mn::kCacheEntries, static_cast<double>(cache.entries));
  }
  snap.SetGauge(mn::kNetworkEpoch, static_cast<double>(network_epoch()));
  snap.SetGauge(mn::kOpenSessions,
                static_cast<double>(num_open_sessions()));
  snap.SetGauge(mn::kWallSeconds, uptime_.ElapsedSeconds());
  snap.SetGauge(mn::kNumShards, static_cast<double>(storage_->num_shards()));
  return snap;
}

void QueryService::BumpNetworkEpoch() {
  const uint64_t next =
      network_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (result_cache_ != nullptr) result_cache_->InvalidateAll(next);
}

void QueryService::ResetStats() {
  registry_.ResetAll();
  MutexLock lock(&window_mu_);
  disk_baseline_ = storage_->MergedStats();
  if (result_cache_ != nullptr) {
    evictions_baseline_ = result_cache_->stats().evictions;
  }
  uptime_.Restart();
}

}  // namespace mcn::exec
