// Shared types for the MCN preference-query algorithms (paper §IV/§V).
#ifndef MCN_ALGO_COMMON_H_
#define MCN_ALGO_COMMON_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mcn/expand/dijkstra.h"
#include "mcn/graph/cost_vector.h"
#include "mcn/graph/multi_cost_graph.h"

namespace mcn::expand {
class ParallelProbeScheduler;
}  // namespace mcn::expand

namespace mcn::net {
class LandmarkIndexReader;
}  // namespace mcn::net

namespace mcn::algo {

/// Aggregate cost function f over a (complete) cost vector. Must be
/// increasingly monotone: componentwise <= implies f <= (paper §III).
using AggregateFn = std::function<double(const graph::CostVector&)>;

/// Intra-query execution knobs shared by the three query processors
/// (DESIGN.md §7). Every schedule runs as ParallelProbeScheduler turns;
/// the defaults select the paper's per-probe schedule.
struct QueryOptions {
  /// Requested d-expansion parallelism. 0 = width-1 turns: one expansion
  /// advances per turn, exactly the paper's round-robin probing. >= 1 =
  /// wide round-robin turns that advance every active expansion at once —
  /// 1 executes them inline on the caller thread, > 1 concurrently on the
  /// scheduler's probe pool. Every value >= 1 yields byte-identical results
  /// and logical I/O counts; the thread count only changes how much
  /// physical I/O overlaps. The ablation frontier policies take width-1
  /// turns at every value.
  int parallelism = 0;
  /// The scheduler the turns run through, bound to the same engine the
  /// query runs on (wired by exec::ExpansionExecutor or the caller). Null
  /// = the query builds an inline one of its own.
  expand::ParallelProbeScheduler* scheduler = nullptr;
  /// Optional landmark lower-bound index (DESIGN.md §12). Must be validated
  /// and outlive the query; non-null arms the skyline prune oracle on
  /// round-robin runs at parallelism 0 (other schedules ignore it). Pruning
  /// is exact: results and report order are byte-identical with or without
  /// it.
  net::LandmarkIndexReader* landmark_index = nullptr;
};

/// The paper's experimental aggregate: f(p) = sum_i alpha_i * c_i(p).
AggregateFn WeightedSum(std::vector<double> weights);

/// Multiplexing policy for the d expansions. The paper argues for
/// round-robin (Fig. 4); the others exist for the ablation benchmark.
enum class ProbePolicy { kRoundRobin, kSmallestFrontier, kLargestFrontier };

/// A skyline answer. `known_mask` marks which costs had been computed by the
/// time the entry was retrieved — the algorithms may confirm a facility
/// without ever completing its vector (paper §IV-A enhancements).
struct SkylineEntry {
  graph::FacilityId facility = 0;
  graph::CostVector costs;
  uint32_t known_mask = 0;
};

/// A top-k answer (vectors of pinned facilities are always complete).
struct TopKEntry {
  graph::FacilityId facility = 0;
  graph::CostVector costs;
  double score = 0.0;
};

}  // namespace mcn::algo

#endif  // MCN_ALGO_COMMON_H_
