#include "mcn/shard/sharded_reader.h"

#include <algorithm>
#include <string>

#include "mcn/common/macros.h"

namespace mcn::shard {

std::vector<size_t> SplitFramesAcrossShards(size_t total_frames,
                                            int num_shards) {
  MCN_CHECK(num_shards > 0);
  const size_t k = static_cast<size_t>(num_shards);
  std::vector<size_t> frames(k, total_frames / k);
  const size_t remainder = total_frames % k;
  for (size_t s = 0; s < remainder; ++s) ++frames[s];
  if (total_frames > 0) {
    // One-frame floor: a zero-capacity pool cannot serve any fetch.
    for (size_t& f : frames) {
      if (f == 0) f = 1;
    }
  }
  return frames;
}

ShardedNetworkReader::ShardedNetworkReader(ShardedStorage* storage,
                                           const ShardedNetworkFiles& files,
                                           const std::vector<size_t>& frames)
    : net::NetworkReader(files.Global()),
      storage_(storage),
      partition_(&storage->partition()),
      facility_shard_(&files.facility_shard),
      io_{0, 0, std::vector<uint64_t>(files.shards.size(), 0)} {
  MCN_CHECK(storage != nullptr);
  MCN_CHECK(files.num_shards() == storage->num_shards());
  MCN_CHECK(frames.size() == static_cast<size_t>(files.num_shards()));
  const int k = files.num_shards();
  pools_.reserve(k);
  readers_.reserve(k);
  for (ShardId s = 0; s < static_cast<ShardId>(k); ++s) {
    pools_.push_back(std::make_unique<storage::BufferPool>(
        storage->disk(s), frames[s]));
    readers_.push_back(std::make_unique<net::NetworkReader>(
        files.shards[s], pools_.back().get()));
    // This routing layer records the per-fetch trace events itself (it
    // knows the local/remote flag); suppress the inner readers so a
    // routed fetch yields exactly one kProbeFetch event.
    readers_.back()->set_trace_fetches(false);
  }
}

/// Records one kProbeFetch trace event for a routed record fetch, with the
/// miss flag from shard `s`'s pool delta and the remote flag from the
/// home-shard affinity. No-op unless tracing is on and a query context is
/// installed on this thread.
class ShardedNetworkReader::FetchTrace {
 public:
  FetchTrace(const ShardedNetworkReader* reader, ShardId s)
      : context_(obs::CurrentTraceContext()) {
    if (!reader->trace_fetches() || !context_.active() ||
        !obs::Tracer::Global().enabled()) {
      return;
    }
    reader_ = reader;
    shard_ = s;
    misses_before_ = reader->pools_[s]->stats().misses;
  }

  void Record(uint64_t key) {
    if (reader_ == nullptr) return;
    uint64_t flags = 0;
    if (reader_->pools_[shard_]->stats().misses > misses_before_) {
      flags |= obs::kFetchMiss;
    }
    if (reader_->home_shard_ != kInvalidShard &&
        shard_ != reader_->home_shard_) {
      flags |= obs::kFetchRemote;
    }
    obs::RecordInstant(context_, obs::EventType::kProbeFetch, key, flags);
  }

 private:
  obs::TraceContext context_;
  const ShardedNetworkReader* reader_ = nullptr;
  ShardId shard_ = kInvalidShard;
  uint64_t misses_before_ = 0;
};

ShardId ShardedNetworkReader::Route(ShardId target) const {
  MCN_DCHECK(target < readers_.size());
  ++io_.fetches_to_shard[target];
  if (home_shard_ != kInvalidShard && target != home_shard_) {
    ++io_.remote_fetches;
  } else {
    ++io_.local_fetches;
  }
  return target;
}

Status ShardedNetworkReader::GetAdjacency(
    graph::NodeId node, std::vector<net::AdjEntry>* out) const {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("GetAdjacency: node out of range");
  }
  const ShardId s = Route(partition_->of_node(node));
  FetchTrace fetch_trace(this, s);
  const Status status = readers_[s]->GetAdjacency(node, out);
  if (status.ok()) fetch_trace.Record(node);
  return status;
}

Status ShardedNetworkReader::GetFacilities(
    graph::EdgeKey edge, const net::FacRef& ref,
    std::vector<net::FacilityOnEdge>* out) const {
  if (ref.empty()) {
    out->clear();
    return Status::OK();  // no record to route (base reader contract)
  }
  if (edge.u >= num_nodes()) {
    return Status::InvalidArgument("GetFacilities: edge out of range");
  }
  const ShardId s = Route(partition_->of_edge(edge));
  FetchTrace fetch_trace(this, s);
  const Status status = readers_[s]->GetFacilities(edge, ref, out);
  if (status.ok()) fetch_trace.Record(edge.u);
  return status;
}

Result<graph::EdgeKey> ShardedNetworkReader::LocateFacilityEdge(
    graph::FacilityId fac) const {
  if (fac >= facility_shard_->size()) {
    return Status::NotFound("facility " + std::to_string(fac) +
                            " not in routing table");
  }
  const ShardId s = Route((*facility_shard_)[fac]);
  return readers_[s]->LocateFacilityEdge(fac);
}

storage::BufferPool::Stats ShardedNetworkReader::PoolStats() const {
  storage::BufferPool::Stats total{};
  for (const auto& pool : pools_) {
    const storage::BufferPool::Stats s = pool->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

void ShardedNetworkReader::ResetIoState() {
  for (const auto& pool : pools_) {
    pool->Clear();
    pool->ResetStats();
  }
}

void ShardedNetworkReader::ResetShardIoStats() {
  io_.local_fetches = 0;
  io_.remote_fetches = 0;
  std::fill(io_.fetches_to_shard.begin(), io_.fetches_to_shard.end(), 0);
}

}  // namespace mcn::shard
