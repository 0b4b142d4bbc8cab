// ShardedNetworkReader: the routing implementation of the NetworkReader
// seam (DESIGN.md §8) and the one reader the query stack runs on. One
// instance is a *per-slot* reader set (one per service execution slot or
// session, DESIGN.md §6): it owns one BufferPool per shard
// (each over that shard's DiskManager) plus a per-shard NetworkReader, and
// dispatches every record request through the routing table (K = 1: every
// request goes to shard 0):
//
//   GetAdjacency(v)         -> shard of v          (NodeId table)
//   GetFacilities(edge,...) -> shard of edge.u     (edge ownership rule)
//   LocateFacilityEdge(f)   -> shard of f's edge   (FacilityId table)
//
// Affinity accounting: the reader carries a *home shard* (the shard of
// the query's location, rebound per request by the service). Every
// routed fetch increments either the local or the remote counter — the
// §2 I/O accounting's measure of how often an expansion escapes its tile.
// The counters follow the base contract like everything else (one reader
// per thread): the service reads a task's delta on the thread that ran it.
//
// Like the per-shard reader, record fetches are charged to the per-shard
// pools' hit/miss statistics; PoolStats()/ResetIoState() aggregate over
// the shard set so callers stay oblivious to K.
#ifndef MCN_SHARD_SHARDED_READER_H_
#define MCN_SHARD_SHARDED_READER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mcn/net/network_reader.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/buffer_pool.h"

namespace mcn::shard {

class ShardedNetworkReader : public net::NetworkReader {
 public:
  /// Routed-fetch counters (record granularity, like FetchProvider::Stats).
  struct ShardIoStats {
    uint64_t local_fetches = 0;   ///< routed to the home shard
    uint64_t remote_fetches = 0;  ///< routed across a shard boundary
    std::vector<uint64_t> fetches_to_shard;  ///< per target shard

    uint64_t total() const { return local_fetches + remote_fetches; }
    double RemoteRatio() const {
      return shard::RemoteRatio(local_fetches, remote_fetches);
    }
  };

  /// `storage`/`files` describe a built sharded network; both must outlive
  /// the reader. `frames[s]` sizes shard s's LRU pool (one entry per
  /// shard) — callers splitting a budget B across K shards pass
  /// SplitFramesAcrossShards(B, K) so no remainder frames are dropped.
  ShardedNetworkReader(ShardedStorage* storage,
                       const ShardedNetworkFiles& files,
                       const std::vector<size_t>& frames);

  int num_shards() const { return static_cast<int>(readers_.size()); }

  /// Binds the affinity used by the local/remote split. kInvalidShard (the
  /// default) counts every fetch as remote-neutral local.
  void set_home_shard(ShardId s) { home_shard_ = s; }
  ShardId home_shard() const { return home_shard_; }

  Status GetAdjacency(graph::NodeId node,
                      std::vector<net::AdjEntry>* out) const override;
  Status GetFacilities(graph::EdgeKey edge, const net::FacRef& ref,
                       std::vector<net::FacilityOnEdge>* out) const override;
  Result<graph::EdgeKey> LocateFacilityEdge(
      graph::FacilityId fac) const override;

  /// Aggregated over the per-shard pools.
  storage::BufferPool::Stats PoolStats() const override;
  void ResetIoState() override;

  const ShardIoStats& shard_io_stats() const { return io_; }
  void ResetShardIoStats();

  storage::BufferPool* shard_pool(ShardId s) const { return pools_[s].get(); }

 private:
  class FetchTrace;  ///< per-routed-fetch kProbeFetch recorder (see .cc)

  ShardId Route(ShardId target) const;  ///< counts, returns target

  ShardedStorage* storage_;
  const Partition* partition_;
  /// Borrowed from the ShardedNetworkFiles (which must outlive the
  /// reader, per the constructor contract) — one routing table, not one
  /// copy per reader.
  const std::vector<ShardId>* facility_shard_;
  std::vector<std::unique_ptr<storage::BufferPool>> pools_;
  std::vector<std::unique_ptr<net::NetworkReader>> readers_;
  ShardId home_shard_ = kInvalidShard;

  mutable ShardIoStats io_;  ///< routed-fetch counters (Route)
};

/// Exact split of a frame budget across K shard pools: shard s gets
/// total/K frames plus one of the total%K remainder frames (s < total%K),
/// so the sum equals `total_frames` whenever total_frames >= K. Budgets
/// smaller than K keep the one-frame floor (every pool must be usable), the
/// only case where the sum exceeds the budget.
std::vector<size_t> SplitFramesAcrossShards(size_t total_frames,
                                            int num_shards);

}  // namespace mcn::shard

#endif  // MCN_SHARD_SHARDED_READER_H_
