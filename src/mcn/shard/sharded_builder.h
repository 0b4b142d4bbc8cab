// Build path (DESIGN.md §8): materializes a MultiCostGraph + FacilitySet
// as the paper's Fig. 2 storage scheme, laid out as K per-shard file sets
// on a ShardedStorage:
//
//   per shard: facility_file, adjacency_file, adjacency_tree,
//              facility_tree  (exactly the Fig. 2 quartet, holding only
//              the shard's owned nodes/edges/facilities), plus a
//   boundary_file  — one explicit record per owned cross-shard edge
//              (endpoints, peer shard, cost vector), the hand-off data a
//              multi-node deployment would exchange; and on shard 0 a
//   routing_table  — the NodeId -> ShardId and FacilityId -> ShardId
//              tables as raw pages, so a sharded database image is
//              self-describing across processes.
//
// Record *contents* are byte-identical for every K (only page placement
// and FacRef positions differ), which is what makes result hashes and
// logical/physical record-fetch counts invariant in K — the determinism
// contract the differential sweep enforces. K = 1 is the single-disk
// layout: every record in node/edge order on one disk.
#ifndef MCN_SHARD_SHARDED_BUILDER_H_
#define MCN_SHARD_SHARDED_BUILDER_H_

#include <cstdint>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/net/network_reader.h"
#include "mcn/shard/partition.h"
#include "mcn/shard/sharded_storage.h"

namespace mcn::shard {

/// One cross-shard edge as stored in the owner shard's boundary file.
struct BoundaryEdge {
  graph::EdgeKey edge;
  ShardId owner_shard = kInvalidShard;  ///< == of_node(edge.u)
  ShardId peer_shard = kInvalidShard;   ///< == of_node(edge.v)
  graph::CostVector w;

  bool operator==(const BoundaryEdge& o) const {
    if (!(edge == o.edge) || owner_shard != o.owner_shard ||
        peer_shard != o.peer_shard || w.dim() != o.w.dim()) {
      return false;
    }
    for (int i = 0; i < w.dim(); ++i) {
      if (w[i] != o.w[i]) return false;
    }
    return true;
  }
};

/// Boundary record wire format (slotted):
///   u32 u, u32 v, u32 owner_shard, u32 peer_shard,
///   u16 num_costs, u16 reserved, d x f64 cost
std::vector<std::byte> EncodeBoundaryRecord(const BoundaryEdge& edge);
Result<BoundaryEdge> DecodeBoundaryRecord(std::span<const std::byte> bytes);

/// Handle to a built sharded network: the per-shard Fig. 2 quartets plus
/// the shard metadata queries and routing need. Cheap to copy.
struct ShardedNetworkFiles {
  std::vector<net::NetworkFiles> shards;        ///< per-shard quartet
  std::vector<storage::FileId> boundary_files;  ///< per shard
  storage::FileId routing_file = 0;             ///< on shard 0

  /// FacilityId -> owning shard (the shard of the facility's edge),
  /// materialized at build time for facility-tree routing.
  std::vector<ShardId> facility_shard;

  /// Global metadata (whole-network totals).
  uint32_t num_nodes = 0;
  uint32_t num_edges = 0;
  uint32_t num_facilities = 0;
  int num_costs = 0;
  /// Query-file pages (the four Fig. 2 files) summed over shards; the LRU
  /// buffer is sized from this (gen::BufferFrames).
  uint64_t total_pages = 0;
  uint32_t num_boundary_edges = 0;

  /// Optional landmark lower-bound index (DESIGN.md §12). One *global*
  /// index whose file lives on shard 0's disk (landmark selection is
  /// boundary-biased per shard, but rows cover every node). Excluded from
  /// total_pages, so index-on and index-off runs size the pools alike.
  net::LandmarkIndexFiles landmark;

  int num_shards() const { return static_cast<int>(shards.size()); }

  /// Metadata-only NetworkFiles carrying the global totals, for code that
  /// reads counts off a reader handle (file ids/trees are not meaningful).
  net::NetworkFiles Global() const {
    net::NetworkFiles g;
    g.num_nodes = num_nodes;
    g.num_edges = num_edges;
    g.num_facilities = num_facilities;
    g.num_costs = num_costs;
    g.total_pages = total_pages;
    return g;
  }
};

/// Writes the storage scheme for `graph` + `facilities` onto `storage`
/// (whose partition decides ownership). Every shard's disk must be empty,
/// and both inputs must be finalized. Build-time writes bypass the buffer
/// pool (load cost is not query cost). Fails if a node's adjacency record
/// or an edge's facility record would exceed one page.
Result<ShardedNetworkFiles> BuildShardedNetwork(
    ShardedStorage* storage, const graph::MultiCostGraph& graph,
    const graph::FacilitySet& facilities);

/// Decodes every record of a boundary file (raw page access: tooling and
/// tests, not charged to any pool).
Result<std::vector<BoundaryEdge>> ReadBoundaryRecords(
    const storage::DiskManager& disk, storage::FileId boundary_file);

/// Routing-table persistence on shard 0's disk (raw pages):
///   page 0: u32 magic, u32 num_shards, u32 num_nodes, u32 num_facilities
///   then num_nodes + num_facilities u32 shard ids, packed.
/// Lets a sharded database image round-trip through storage::SaveDiskImage
/// without out-of-band metadata.
Result<storage::FileId> WriteRoutingTable(
    storage::DiskManager* shard0_disk, const Partition& partition,
    const std::vector<ShardId>& facility_shard);
struct RoutingTable {
  Partition partition;
  std::vector<ShardId> facility_shard;
};
Result<RoutingTable> ReadRoutingTable(const storage::DiskManager& disk,
                                      storage::FileId routing_file);

}  // namespace mcn::shard

#endif  // MCN_SHARD_SHARDED_BUILDER_H_
