// NetworkReader: query-time access to one shard's Fig. 2 file set (the
// adjacency tree/file and facility file/tree) through a buffer pool. Every
// call is charged to the pool's hit/miss statistics, which is exactly the
// I/O model of the paper's experiments.
//
// The record getters are virtual: this class is the record-access seam of
// the stack (DESIGN.md §8). shard::ShardedNetworkReader owns one
// NetworkReader per shard and routes each request to the owning shard's
// pool, while FetchProvider/engine code upstream stays oblivious.
#ifndef MCN_NET_NETWORK_READER_H_
#define MCN_NET_NETWORK_READER_H_

#include <cstdint>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/index/bplus_tree.h"
#include "mcn/net/format.h"
#include "mcn/net/landmark_index.h"
#include "mcn/obs/trace.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::net {

/// Handle to one shard's built file set: the four files of Fig. 2 plus the
/// metadata queries need (written by shard::BuildShardedNetwork, persisted
/// by net/catalog.h). Cheap to copy.
struct NetworkFiles {
  storage::FileId adjacency_file = 0;
  storage::FileId facility_file = 0;
  index::BPlusTree adjacency_tree{0, storage::kInvalidPageNo, 0, 0};
  index::BPlusTree facility_tree{0, storage::kInvalidPageNo, 0, 0};

  uint32_t num_nodes = 0;
  uint32_t num_edges = 0;
  uint32_t num_facilities = 0;
  int num_costs = 0;

  /// Pages across the four structures; the paper sizes the LRU buffer as a
  /// percentage of this. The optional landmark index below is deliberately
  /// *excluded*: index-on and index-off runs must size the main pool
  /// identically (the index reader owns its own small pool).
  uint64_t total_pages = 0;

  /// Optional landmark lower-bound index (DESIGN.md §12); `present()` is
  /// false when the database was built without one.
  LandmarkIndexFiles landmark;
};

/// Read-side handle over a built network. Not thread-safe (shares the pool);
/// one reader is confined to one thread.
class NetworkReader {
 public:
  /// `pool` must outlive the reader and be backed by the DiskManager the
  /// network was built on.
  NetworkReader(const NetworkFiles& files, storage::BufferPool* pool);
  virtual ~NetworkReader() = default;

  int num_costs() const { return files_.num_costs; }
  uint32_t num_nodes() const { return files_.num_nodes; }
  uint32_t num_edges() const { return files_.num_edges; }
  uint32_t num_facilities() const { return files_.num_facilities; }
  uint64_t total_pages() const { return files_.total_pages; }

  /// Reads `node`'s adjacency record: an adjacency-tree probe plus one
  /// adjacency-file page fetch. Fills `out` (cleared first).
  virtual Status GetAdjacency(graph::NodeId node,
                              std::vector<AdjEntry>* out) const;

  /// Reads `edge`'s facility record via the FacRef stored in an adjacency
  /// entry. The edge key identifies the record's owner (routing readers
  /// dispatch on it; a per-shard reader only needs the ref). Fills `out`
  /// (cleared first).
  virtual Status GetFacilities(graph::EdgeKey edge, const FacRef& ref,
                               std::vector<FacilityOnEdge>* out) const;

  /// Facility-tree probe: the edge containing facility `fac`.
  virtual Result<graph::EdgeKey> LocateFacilityEdge(
      graph::FacilityId fac) const;

  /// Hit/miss counters of the pools this reader fetches through (one pool
  /// here; a routing reader sums its per-shard set).
  virtual storage::BufferPool::Stats PoolStats() const {
    return pool_->stats();
  }

  /// Clears buffer contents and statistics (cold cache between queries).
  virtual void ResetIoState() {
    pool_->Clear();
    pool_->ResetStats();
  }

  /// Convenience: the adjacency entry of edge (a, b), found by scanning a's
  /// record. Used to seed expansions when the query lies on an edge.
  Result<AdjEntry> FindEdgeEntry(graph::NodeId a, graph::NodeId b) const;

  /// Whether the record getters emit kProbeFetch trace events (obs/trace.h).
  /// Routing readers that record their own routed-fetch events (where the
  /// local/remote flag is known) suppress their inner per-shard readers
  /// with false, so each record fetch yields exactly one event.
  void set_trace_fetches(bool v) { trace_fetches_ = v; }
  bool trace_fetches() const { return trace_fetches_; }

 protected:
  /// For routing subclasses that own per-shard pools instead of one pool:
  /// `files` carries the global metadata (counts, d, total pages);
  /// its file ids/trees are not meaningful and the base record getters
  /// must all be overridden.
  explicit NetworkReader(const NetworkFiles& files)
      : files_(files), pool_(nullptr) {}

 private:
  NetworkFiles files_;
  storage::BufferPool* pool_;
  bool trace_fetches_ = true;
};

}  // namespace mcn::net

#endif  // MCN_NET_NETWORK_READER_H_
