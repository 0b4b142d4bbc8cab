// ExpansionExecutor: the reusable rig behind intra-query parallel
// d-expansion (DESIGN.md §7). One executor owns
//
//   * a ProbePool of `parallelism` worker threads executing probe turns,
//   * `parallelism` + 1 reader slots — a routing shard::ShardedNetworkReader
//     per slot, i.e. one BufferPool per shard over the shared read-only
//     ShardedStorage (slot 0 serves the query-driving thread, slots 1..
//     the probe workers), mirroring the QueryService's one-reader-per-
//     worker layout,
//
// and stamps out per-query (engine, scheduler) pairs with NewQuery. An
// executor is intended to be reused across many queries, but by at most
// one query-driving thread at a time: every driver binds reader slot 0,
// so two queries driven concurrently through one executor would race on
// the slot-0 NetworkReader/BufferPool (which are single-threaded). The
// QueryService keeps one executor per service worker for exactly this
// reason; benches and tests create one per sweep point.
//
// parallelism == 1 builds no pool: NewQuery rigs execute the identical
// turn schedule inline on the caller thread — the serial anchor of the
// differential suite.
#ifndef MCN_EXEC_EXPANSION_EXECUTOR_H_
#define MCN_EXEC_EXPANSION_EXECUTOR_H_

#include <memory>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/expand/striped_fetch.h"
#include "mcn/graph/location.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/buffer_pool.h"

namespace mcn::exec {

class ExpansionExecutor {
 public:
  /// `storage`/`files` describe a built network (DESIGN.md §8); `storage`
  /// must outlive the executor and every shard disk is frozen read-only
  /// (BeginConcurrentReads) for its lifetime. `pool_frames_per_slot` is
  /// each slot's buffer (the paper's buffer size, like
  /// ServiceOptions::pool_frames_per_worker). With
  /// `split_budget_across_shards` (the default) it is the slot's *total*
  /// budget, split exactly across the shard pools
  /// (shard::SplitFramesAcrossShards, iso-memory in K); without it, every
  /// shard pool gets the full budget (the per-socket memory model). The
  /// turn schedule, and hence results and record-level I/O accounting,
  /// are identical for every K.
  static Result<std::unique_ptr<ExpansionExecutor>> Create(
      shard::ShardedStorage* storage, const shard::ShardedNetworkFiles& files,
      int parallelism, size_t pool_frames_per_slot,
      bool split_budget_across_shards = true);

  ~ExpansionExecutor();

  ExpansionExecutor(const ExpansionExecutor&) = delete;
  ExpansionExecutor& operator=(const ExpansionExecutor&) = delete;

  int parallelism() const { return parallelism_; }

  /// Engine + scheduler for one query at `q`. The scheduler borrows the
  /// engine and the executor; both rig members must be destroyed before
  /// the executor (engine first is fine — the scheduler only holds
  /// pointers).
  struct QueryRig {
    std::unique_ptr<expand::StripedCeaEngine> engine;
    std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
  };
  Result<QueryRig> NewQuery(const graph::Location& q);

  /// Clears every slot's buffer contents and statistics (cold cache).
  void ResetIoState();
  /// Hit/miss counters aggregated over all reader slots.
  storage::BufferPool::Stats PoolStats() const;
  /// Routed-fetch counters summed over all slots.
  shard::ShardedNetworkReader::ShardIoStats ShardIoStats() const;
  /// Binds every slot reader's home shard for the local/remote fetch split.
  /// Call between queries.
  void SetHomeShard(shard::ShardId home);

 private:
  ExpansionExecutor(shard::ShardedStorage* storage, int parallelism);

  shard::ShardedStorage* storage_;
  int parallelism_;
  std::vector<std::unique_ptr<shard::ShardedNetworkReader>> readers_;
  std::unique_ptr<expand::ProbePool> probe_pool_;  ///< null when p == 1
};

}  // namespace mcn::exec

#endif  // MCN_EXEC_EXPANSION_EXECUTOR_H_
