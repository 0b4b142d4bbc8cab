// ShardedStorage: the storage root of a built network (DESIGN.md §8). One
// instance owns K DiskManagers — one simulated disk per network shard —
// plus the Partition routing table that maps every NodeId to its owning
// shard. The build path (sharded_builder.h) lays each tile's pages into its
// shard's disk; readers route each fetch through the table.
//
// K = 1 (shard::SingleShardPartition) is the paper's single-disk layout:
// one disk holding the whole Fig. 2 file set.
//
// Concurrency: same single-writer/multi-reader contract as DiskManager,
// applied shard-wise. Begin/EndConcurrentReads freeze every shard at once.
#ifndef MCN_SHARD_SHARDED_STORAGE_H_
#define MCN_SHARD_SHARDED_STORAGE_H_

#include <utility>
#include <vector>

#include "mcn/shard/partition.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::shard {

class ShardedStorage {
 public:
  explicit ShardedStorage(Partition partition)
      : partition_(std::move(partition)),
        disks_(static_cast<size_t>(partition_.num_shards)) {}

  ShardedStorage(const ShardedStorage&) = delete;
  ShardedStorage& operator=(const ShardedStorage&) = delete;

  int num_shards() const { return partition_.num_shards; }
  const Partition& partition() const { return partition_; }

  storage::DiskManager* disk(ShardId s) { return &disks_[s]; }
  const storage::DiskManager& disk(ShardId s) const { return disks_[s]; }

  /// Per-shard counter snapshots, in shard order.
  std::vector<storage::DiskManager::Stats> ShardStats() const {
    std::vector<storage::DiskManager::Stats> stats;
    stats.reserve(disks_.size());
    for (const auto& d : disks_) stats.push_back(d.stats());
    return stats;
  }

  /// All shards summed (per-file rows merged by name), the figure-parity
  /// aggregate of §2.
  storage::DiskManager::Stats MergedStats() const {
    const auto parts = ShardStats();
    return storage::DiskManager::MergeStats(parts);
  }

  void ResetStats() {
    for (auto& d : disks_) d.ResetStats();
  }

  /// Freezes/unfreezes every shard read-only (see DiskManager).
  void BeginConcurrentReads() {
    for (auto& d : disks_) d.BeginConcurrentReads();
  }
  void EndConcurrentReads() {
    for (auto& d : disks_) d.EndConcurrentReads();
  }

  size_t TotalPages() const {
    size_t total = 0;
    for (const auto& d : disks_) total += d.TotalPages();
    return total;
  }

 private:
  Partition partition_;
  std::vector<storage::DiskManager> disks_;
};

}  // namespace mcn::shard

#endif  // MCN_SHARD_SHARDED_STORAGE_H_
