// Network partitioning for sharded storage (DESIGN.md §8): split the road
// network into K node-disjoint shards and materialize a NodeId -> ShardId
// routing table that every layer above (builder, reader, executor) consults.
//
// Ownership rules, fixed across the stack:
//   * a node belongs to exactly one shard (the routing table);
//   * an edge — and therefore its facility record and the facilities on
//     it — belongs to the shard of its canonical endpoint u (u < v);
//   * an edge whose endpoints resolve to different shards is a *boundary*
//     edge; the builder writes it into the owner shard's boundary file
//     (shard/sharded_builder.h) so a future multi-node deployment can
//     exchange frontiers without consulting the full graph.
//
// The partitioner is pluggable: GridTilePartitioner cuts the planar node
// coordinates into grid tiles and packs them, in boustrophedon order, into
// K contiguous balanced shards. A METIS-style min-cut partitioner can slot
// in behind the same interface later.
#ifndef MCN_SHARD_PARTITION_H_
#define MCN_SHARD_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/graph/multi_cost_graph.h"

namespace mcn::shard {

using ShardId = uint32_t;
inline constexpr ShardId kInvalidShard = 0xFFFFFFFFu;

/// Shared remote-fetch ratio convention (DESIGN.md §8): the fraction of
/// routed fetches that crossed a shard boundary. Used identically by the
/// reader stats, the service per-shard rows and the bench metrics.
inline double RemoteRatio(uint64_t local_fetches, uint64_t remote_fetches) {
  const uint64_t total = local_fetches + remote_fetches;
  return total > 0
             ? static_cast<double>(remote_fetches) / static_cast<double>(total)
             : 0.0;
}

/// The materialized routing table: every node's owning shard. Value type,
/// cheap to share by const reference.
struct Partition {
  int num_shards = 0;
  std::vector<ShardId> node_shard;  ///< NodeId-indexed

  ShardId of_node(graph::NodeId v) const { return node_shard[v]; }
  /// Edge ownership: the shard of the canonical endpoint u.
  ShardId of_edge(graph::EdgeKey e) const { return node_shard[e.u]; }
  bool is_boundary(graph::EdgeKey e) const {
    return node_shard[e.u] != node_shard[e.v];
  }

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(node_shard.size());
  }

  /// Nodes per shard (sums to num_nodes).
  std::vector<uint32_t> ShardSizes() const;

  /// OK iff every node resolves to a shard in [0, num_shards) and no shard
  /// is empty.
  Status Validate() const;
};

/// Strategy interface; implementations must be deterministic functions of
/// the graph (the routing table is part of the reproducibility contract).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual Result<Partition> Build(const graph::MultiCostGraph& graph,
                                  int num_shards) const = 0;
};

/// Grid-tile partitioner over the planar node coordinates: an oversampled
/// grid of cells (so skewed node distributions still balance), cells walked
/// in boustrophedon row order (spatially contiguous runs), packed greedily
/// into K shards of ~equal node count. K = 1 degenerates to the identity
/// partition. Requires num_shards <= num_nodes.
class GridTilePartitioner : public Partitioner {
 public:
  /// `cells_per_side` overrides the default grid resolution (0 = auto:
  /// enough cells that each shard spans several tiles).
  explicit GridTilePartitioner(int cells_per_side = 0)
      : cells_per_side_(cells_per_side) {}

  Result<Partition> Build(const graph::MultiCostGraph& graph,
                          int num_shards) const override;

 private:
  int cells_per_side_;
};

/// The K = 1 identity partition: the paper's single-disk layout.
Partition SingleShardPartition(uint32_t num_nodes);

}  // namespace mcn::shard

#endif  // MCN_SHARD_PARTITION_H_
