// Landmark lower-bound index (DESIGN.md §12): a build-time Fig. 2-style
// file set storing, per node, the exact single-criterion network distance
// to each of L landmarks, for every cost dimension. At query time the
// triangle inequality turns two row loads into a component-wise lower
// bound on the network distance between any node pair — the admissible
// bound the skyline prune oracle (algo/prune_oracle.h) uses to elide
// frontier expansions before their adjacency probe touches a page.
//
// File layout (slotted pages, one file):
//   page 0: one header record, padded to SlottedPageBuilder::MaxRecordSize()
//           so node records start on page 1:
//     u32 magic 'MLI1', u32 version, u32 num_nodes, u32 num_costs,
//     u32 num_landmarks, u32 records_per_page, L x u32 landmark node id
//   page 1+: fixed-size node records in node-id order, records_per_page per
//           page, so node n lives at (1 + n / rpp, n % rpp) with no tree
//           probe:
//     d x L x f32 distance, dimension-major, rounded *down* to f32
//     (+inf where the landmark is unreachable in that dimension)
//
// Distances are stored rounded down so a stored value is always a valid
// lower bound; the matching upper bound is one ulp up (LandmarkUpperBound).
// The index is exact metadata, not a cache: queries with and without it
// return byte-identical results (the oracle's exactness argument).
#ifndef MCN_NET_LANDMARK_INDEX_H_
#define MCN_NET_LANDMARK_INDEX_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::net {

/// Frames for the dedicated landmark-index pool a reader owns. The row file
/// is small (d*L floats per node) and probed with strong locality; a few
/// frames keep the miss rate low without distorting the main pool's budget.
inline constexpr size_t kLandmarkPoolFrames = 16;

/// Handle to a built landmark index. Cheap to copy; `present()` is false on
/// a default-constructed value (no index built).
struct LandmarkIndexFiles {
  storage::FileId file = 0;
  uint32_t num_landmarks = 0;
  uint32_t num_nodes = 0;
  int num_costs = 0;
  uint32_t records_per_page = 0;
  uint64_t num_pages = 0;  ///< header page + node-record pages

  bool present() const { return num_landmarks > 0; }
};

/// Rounds a non-negative double down to float: the result is always <= x,
/// so stored distances stay admissible lower bounds. +inf passes through
/// (unreachable marker).
float RoundDownToFloat(double x);

/// The matching upper bound for a stored lower bound: one ulp up covers the
/// worst-case round-down error. +inf stays +inf.
inline float LandmarkUpperBound(float lo) {
  if (std::isinf(lo)) return lo;
  return std::nextafterf(lo, std::numeric_limits<float>::infinity());
}

/// Deterministic landmark selection: farthest-point sampling over the
/// dimension-0 network metric, seeded at the smallest-id candidate and
/// breaking argmax ties towards the smallest node id. `node_shard` (empty =
/// single shard) biases the candidate pool towards boundary nodes —
/// endpoints of cross-shard edges — and splits `num_landmarks` across the
/// `num_shards` shards with the same remainder rule as the frame budgets,
/// so a sharded build spends its quota where expansions escape tiles.
/// Returns at most num_landmarks node ids (fewer only on tiny graphs).
std::vector<graph::NodeId> SelectLandmarks(
    const graph::MultiCostGraph& graph, uint32_t num_landmarks,
    int num_shards, std::span<const uint32_t> node_shard);

/// Runs one single-criterion Dijkstra per (landmark, dimension) and writes
/// the row file described above into a fresh file on `disk`. The graph must
/// be finalized; fails if a row record cannot fit one page.
Result<LandmarkIndexFiles> BuildLandmarkIndex(
    storage::DiskManager* disk, const graph::MultiCostGraph& graph,
    std::span<const graph::NodeId> landmarks, const std::string& file_name);

/// Per-slot BufferPool-backed reader over a built index. Thread
/// confinement follows the pool: one thread at a time per reader. Index pages
/// are charged to this reader's own pool, never to the network pools, so
/// the main-pool miss counts of an index-off run are directly comparable.
class LandmarkIndexReader {
 public:
  /// `disk` must outlive the reader (shard 0's disk for sharded builds).
  LandmarkIndexReader(storage::DiskManager* disk,
                      const LandmarkIndexFiles& files,
                      size_t pool_frames = kLandmarkPoolFrames);

  /// Validates the header page against `files` (magic, version, counts)
  /// and loads the landmark ids. Must succeed before LoadNodeRow.
  Status Validate();

  uint32_t num_landmarks() const { return files_.num_landmarks; }
  uint32_t num_nodes() const { return files_.num_nodes; }
  int num_costs() const { return files_.num_costs; }
  const std::vector<graph::NodeId>& landmark_ids() const {
    return landmark_ids_;
  }
  const LandmarkIndexFiles& files() const { return files_; }

  /// Copies node `v`'s stored lower-bound row into `out`, which must hold
  /// num_costs() * num_landmarks() floats (dimension-major). One counted
  /// fetch against the index pool.
  Status LoadNodeRow(graph::NodeId v, float* out);

  const storage::BufferPool& pool() const { return pool_; }
  void ResetIoState() {
    pool_.Clear();
    pool_.ResetStats();
  }

 private:
  LandmarkIndexFiles files_;
  storage::BufferPool pool_;
  std::vector<graph::NodeId> landmark_ids_;
  bool validated_ = false;
};

}  // namespace mcn::net

#endif  // MCN_NET_LANDMARK_INDEX_H_
