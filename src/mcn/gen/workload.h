// Workload assembly: the paper's experiment configuration (§VI) turned into
// a built, disk-resident instance — generated road network + clustered
// facilities, written through the Fig. 2 storage scheme onto K shard disks
// (K = 1: the paper's single disk), fronted by an LRU buffer sized as a
// percentage of the network's pages. Shared by the benchmark harness, the
// tests and the examples.
#ifndef MCN_GEN_WORKLOAD_H_
#define MCN_GEN_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "mcn/common/random.h"
#include "mcn/common/result.h"
#include "mcn/gen/cost_generator.h"
#include "mcn/gen/facility_generator.h"
#include "mcn/graph/facility.h"
#include "mcn/graph/location.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/net/landmark_index.h"
#include "mcn/net/network_reader.h"
#include "mcn/shard/partition.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"

namespace mcn::gen {

/// One experiment configuration. Defaults are the paper's defaults.
struct ExperimentConfig {
  uint32_t nodes = 174956;       ///< San Francisco scale
  uint32_t edges = 223001;
  uint32_t facilities = 100000;  ///< |P|
  int clusters = 10;
  int num_costs = 4;             ///< d
  CostDistribution distribution = CostDistribution::kAntiCorrelated;
  double buffer_pct = 1.0;       ///< LRU buffer, % of the MCN pages
  uint64_t seed = 7;
  /// Landmarks for the lower-bound prune index (DESIGN.md §12); 0 (the
  /// default) builds no index, keeping every existing workload byte-stable.
  uint32_t landmarks = 0;

  /// Proportionally scaled-down copy (for fast benchmark runs); keeps at
  /// least a small viable network.
  ExperimentConfig Scaled(double factor) const;

  std::string ToString() const;
};

/// Buffer capacity in frames for a percentage of `total_pages`.
size_t BufferFrames(double buffer_pct, uint64_t total_pages);

/// A fully built instance (heap-allocated: the reader holds pointers into
/// it): the generated graph and facility set, laid out as K per-shard file
/// sets (DESIGN.md §8) with a driver-thread routing reader on top. K = 1 is
/// the paper's single-disk layout. Generation precedes partitioning, so
/// one config yields the same network — and the same query results — for
/// every K.
struct ShardedInstance {
  ShardedInstance(graph::MultiCostGraph g, graph::FacilitySet f,
                  shard::Partition partition)
      : graph(std::move(g)),
        facilities(std::move(f)),
        storage(std::move(partition)) {}

  graph::MultiCostGraph graph;
  graph::FacilitySet facilities;
  shard::ShardedStorage storage;
  shard::ShardedNetworkFiles files;
  /// Per-shard pool set: the config's buffer (BufferFrames) split across
  /// the shards.
  std::unique_ptr<shard::ShardedNetworkReader> reader;
  /// Validated reader over the global landmark index (file on shard 0's
  /// disk) when the config asked for landmarks; null otherwise.
  std::unique_ptr<net::LandmarkIndexReader> landmark_reader;
  /// The whole frame budget (BufferFrames of the config), before the
  /// per-shard split — what service/executor callers should pass on.
  size_t pool_frames = 0;

  /// Uniform random query location (paper: uniform over the network).
  graph::Location RandomQueryLocation(Random& rng) const {
    return RandomLocation(graph, rng);
  }

  /// Resets buffer contents and all I/O statistics (between runs).
  void ResetIoState() {
    reader->ResetIoState();
    reader->ResetShardIoStats();
    if (landmark_reader != nullptr) landmark_reader->ResetIoState();
    storage.ResetStats();
  }
};

/// Generates the network of `config`, partitions it into `num_shards`
/// shards with `partitioner` (default: shard::GridTilePartitioner) and
/// builds the sharded layout.
Result<std::unique_ptr<ShardedInstance>> BuildShardedInstance(
    const ExperimentConfig& config, int num_shards,
    const shard::Partitioner* partitioner = nullptr);

}  // namespace mcn::gen

#endif  // MCN_GEN_WORKLOAD_H_
