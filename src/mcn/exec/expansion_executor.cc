#include "mcn/exec/expansion_executor.h"

#include <utility>

#include "mcn/common/macros.h"
#include "mcn/graph/cost_vector.h"

namespace mcn::exec {

Result<std::unique_ptr<ExpansionExecutor>> ExpansionExecutor::Create(
    shard::ShardedStorage* storage, const shard::ShardedNetworkFiles& files,
    int parallelism, size_t pool_frames_per_slot,
    bool split_budget_across_shards) {
  if (storage == nullptr) {
    return Status::InvalidArgument("ExpansionExecutor: null storage");
  }
  if (parallelism < 1) {
    return Status::InvalidArgument(
        "ExpansionExecutor: parallelism must be >= 1");
  }
  auto executor = std::unique_ptr<ExpansionExecutor>(
      new ExpansionExecutor(storage, parallelism));
  const int slots = parallelism + 1;  // slot 0 = the query-driving thread
  const std::vector<size_t> shard_frames =
      split_budget_across_shards
          ? shard::SplitFramesAcrossShards(pool_frames_per_slot,
                                           storage->num_shards())
          : std::vector<size_t>(
                static_cast<size_t>(storage->num_shards()),
                pool_frames_per_slot);
  executor->readers_.reserve(slots);
  for (int s = 0; s < slots; ++s) {
    executor->readers_.push_back(
        std::make_unique<shard::ShardedNetworkReader>(storage, files,
                                                      shard_frames));
  }
  if (parallelism > 1) {
    // A turn is at most one probe per cost type; the queue never holds
    // more than one turn (the caller blocks on the barrier).
    executor->probe_pool_ = std::make_unique<expand::ProbePool>(
        executor->parallelism_, /*queue_capacity=*/graph::kMaxCostTypes,
        &expand::ParallelProbeScheduler::Run,
        &expand::ParallelProbeScheduler::Discard);
  }
  return executor;
}

ExpansionExecutor::ExpansionExecutor(shard::ShardedStorage* storage,
                                     int parallelism)
    : storage_(storage), parallelism_(parallelism) {
  storage_->BeginConcurrentReads();
}

ExpansionExecutor::~ExpansionExecutor() {
  if (probe_pool_ != nullptr) probe_pool_->Shutdown(/*drain=*/true);
  storage_->EndConcurrentReads();
}

Result<ExpansionExecutor::QueryRig> ExpansionExecutor::NewQuery(
    const graph::Location& q) {
  std::vector<const net::NetworkReader*> readers;
  readers.reserve(readers_.size());
  for (const auto& r : readers_) readers.push_back(r.get());
  MCN_ASSIGN_OR_RETURN(auto engine,
                       expand::StripedCeaEngine::Create(std::move(readers), q));
  QueryRig rig;
  rig.scheduler = std::make_unique<expand::ParallelProbeScheduler>(
      engine.get(), probe_pool_.get(), engine->striped_fetch());
  rig.engine = std::move(engine);
  return rig;
}

void ExpansionExecutor::ResetIoState() {
  for (const auto& reader : readers_) reader->ResetIoState();
}

storage::BufferPool::Stats ExpansionExecutor::PoolStats() const {
  storage::BufferPool::Stats total{};
  for (const auto& reader : readers_) {
    const storage::BufferPool::Stats s = reader->PoolStats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

void ExpansionExecutor::SetHomeShard(shard::ShardId home) {
  for (const auto& reader : readers_) reader->set_home_shard(home);
}

shard::ShardedNetworkReader::ShardIoStats ExpansionExecutor::ShardIoStats()
    const {
  shard::ShardedNetworkReader::ShardIoStats total;
  total.fetches_to_shard.assign(storage_->num_shards(), 0);
  for (const auto& reader : readers_) {
    const auto s = reader->shard_io_stats();
    total.local_fetches += s.local_fetches;
    total.remote_fetches += s.remote_fetches;
    for (size_t i = 0; i < s.fetches_to_shard.size(); ++i) {
      total.fetches_to_shard[i] += s.fetches_to_shard[i];
    }
  }
  return total;
}

}  // namespace mcn::exec
