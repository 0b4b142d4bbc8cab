// Shared helpers for the mcn test suite: handcrafted fixtures, random
// instance builders, and the in-memory oracle the disk algorithms are
// verified against.
#ifndef MCN_TESTS_TEST_UTIL_H_
#define MCN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/expand/dijkstra.h"
#include "mcn/gen/workload.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/location.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::test {

/// A graph + facilities materialized as a single-shard (K = 1) network on
/// a fresh simulated disk, with a `buffer_frames`-frame reader on top.
struct DiskFixture {
  DiskFixture(graph::MultiCostGraph g, graph::FacilitySet f,
              size_t buffer_frames);

  graph::MultiCostGraph graph;
  graph::FacilitySet facilities;
  shard::ShardedStorage storage;
  shard::ShardedNetworkFiles files;
  std::unique_ptr<shard::ShardedNetworkReader> reader;

  /// The single shard's disk and the reader's pool over it.
  storage::DiskManager& disk() { return *storage.disk(0); }
  storage::BufferPool& pool() { return *reader->shard_pool(0); }
};

/// The running example of the paper's Fig. 1 flavor: a small two-cost
/// network with a handful of facilities, fully hand-checkable.
///   d = 2 (think: minutes, dollars).
graph::MultiCostGraph TinyGraph();
graph::FacilitySet TinyFacilities(const graph::MultiCostGraph& g);

/// Small random instance for property sweeps (nodes ~ a few hundred).
struct SmallConfig {
  uint32_t nodes = 400;
  uint32_t edges = 520;
  uint32_t facilities = 60;
  int num_costs = 3;
  gen::CostDistribution distribution =
      gen::CostDistribution::kAntiCorrelated;
  double buffer_pct = 1.0;
  uint64_t seed = 1;
};
/// Built as K = 1 (gen::BuildShardedInstance(config, 1)).
Result<std::unique_ptr<gen::ShardedInstance>> MakeSmallInstance(
    const SmallConfig& config);

/// Oracle: exact cost vectors via d in-memory Dijkstras; facilities
/// unreachable from q (infinite vectors) are excluded — the library's
/// documented semantics.
struct OracleResult {
  std::vector<graph::FacilityId> ids;
  std::vector<graph::CostVector> costs;  // parallel to `ids`
};
OracleResult OracleReachableCosts(const graph::MultiCostGraph& g,
                                  const graph::FacilitySet& facilities,
                                  const graph::Location& q);

/// Oracle skyline ids (strict dominance) as a sorted set.
std::set<graph::FacilityId> OracleSkyline(const graph::MultiCostGraph& g,
                                          const graph::FacilitySet& facs,
                                          const graph::Location& q);

/// Oracle top-k entries sorted by (score, id).
std::vector<algo::TopKEntry> OracleTopK(const graph::MultiCostGraph& g,
                                        const graph::FacilitySet& facs,
                                        const graph::Location& q,
                                        const algo::AggregateFn& f, int k);

/// Deterministic weights in (0,1] for aggregate functions.
std::vector<double> TestWeights(int d, uint64_t seed);

/// Base seed for randomized tests: the `MCN_TEST_SEED` environment
/// variable when set (decimal), else `fallback`. Every randomized test
/// derives all of its seeds from this one value, so any red run is
/// reproducible from the logged seed alone.
uint64_t TestSeed(uint64_t fallback = 24155u);

/// TestSeed() + a log line with the effective seed and the reproduction
/// command; call once on entry of every randomized test.
uint64_t AnnounceSeed(const char* test_name, uint64_t fallback = 24155u);

/// Deterministic per-case seed derived from a base seed (splitmix-style,
/// so nearby indices decorrelate).
uint64_t DeriveSeed(uint64_t base, uint64_t index);

}  // namespace mcn::test

#endif  // MCN_TESTS_TEST_UTIL_H_
