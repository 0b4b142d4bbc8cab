#include "mcn/gen/workload.h"

#include <algorithm>
#include <cmath>

#include "mcn/common/macros.h"

namespace mcn::gen {

ExperimentConfig ExperimentConfig::Scaled(double factor) const {
  MCN_CHECK(factor > 0.0);
  ExperimentConfig c = *this;
  c.nodes = std::max<uint32_t>(64, static_cast<uint32_t>(nodes * factor));
  c.edges = std::max<uint32_t>(
      c.nodes + 16, static_cast<uint32_t>(edges * factor));
  c.facilities =
      std::max<uint32_t>(16, static_cast<uint32_t>(facilities * factor));
  return c;
}

std::string ExperimentConfig::ToString() const {
  std::string s;
  s += "nodes=" + std::to_string(nodes);
  s += " edges=" + std::to_string(edges);
  s += " |P|=" + std::to_string(facilities);
  s += " d=" + std::to_string(num_costs);
  s += " dist=" + std::string(gen::ToString(distribution));
  s += " buffer=" + std::to_string(buffer_pct) + "%";
  s += " seed=" + std::to_string(seed);
  // Only configs that ask for an index mention it: pre-existing workload
  // descriptions (and the bench figures keyed on them) stay byte-stable.
  if (landmarks > 0) s += " L=" + std::to_string(landmarks);
  return s;
}

size_t BufferFrames(double buffer_pct, uint64_t total_pages) {
  MCN_CHECK(buffer_pct >= 0.0);
  return static_cast<size_t>(
      std::llround(buffer_pct / 100.0 * static_cast<double>(total_pages)));
}

namespace {

struct Generated {
  graph::MultiCostGraph graph;
  graph::FacilitySet facilities;
};

// The generated network is a function of the config alone, so the layouts
// of one config for different K hold the same data and their query results
// are comparable byte for byte.
Result<Generated> GenerateGraphAndFacilities(const ExperimentConfig& config) {
  Random rng(config.seed);

  RoadNetworkOptions road;
  road.target_nodes = config.nodes;
  road.target_edges = config.edges;
  road.seed = rng.Next();
  MCN_ASSIGN_OR_RETURN(Topology topo, GenerateRoadNetwork(road));

  CostGenOptions costs;
  costs.num_costs = config.num_costs;
  costs.distribution = config.distribution;
  costs.seed = rng.Next();
  MCN_ASSIGN_OR_RETURN(graph::MultiCostGraph g,
                       BuildMultiCostGraph(topo, costs));

  FacilityGenOptions fac;
  fac.count = config.facilities;
  fac.num_clusters = config.clusters;
  fac.seed = rng.Next();
  MCN_ASSIGN_OR_RETURN(graph::FacilitySet facilities,
                       GenerateFacilities(g, fac));
  return Generated{std::move(g), std::move(facilities)};
}

}  // namespace

Result<std::unique_ptr<ShardedInstance>> BuildShardedInstance(
    const ExperimentConfig& config, int num_shards,
    const shard::Partitioner* partitioner) {
  MCN_ASSIGN_OR_RETURN(Generated gen, GenerateGraphAndFacilities(config));

  shard::GridTilePartitioner default_partitioner;
  const shard::Partitioner* chosen =
      partitioner != nullptr ? partitioner : &default_partitioner;
  MCN_ASSIGN_OR_RETURN(shard::Partition partition,
                       chosen->Build(gen.graph, num_shards));

  auto instance = std::make_unique<ShardedInstance>(
      std::move(gen.graph), std::move(gen.facilities), std::move(partition));
  MCN_ASSIGN_OR_RETURN(
      instance->files,
      shard::BuildShardedNetwork(&instance->storage, instance->graph,
                                 instance->facilities));
  instance->pool_frames =
      BufferFrames(config.buffer_pct, instance->files.total_pages);
  instance->reader = std::make_unique<shard::ShardedNetworkReader>(
      &instance->storage, instance->files,
      shard::SplitFramesAcrossShards(instance->pool_frames,
                                     instance->storage.num_shards()));
  if (config.landmarks > 0) {
    // One global index with a boundary-biased, per-shard landmark quota
    // (K = 1: plain farthest-point sampling over every node); the row file
    // lives on shard 0's disk.
    const shard::Partition& part = instance->storage.partition();
    const std::vector<graph::NodeId> landmarks = net::SelectLandmarks(
        instance->graph, config.landmarks, part.num_shards, part.node_shard);
    MCN_ASSIGN_OR_RETURN(
        instance->files.landmark,
        net::BuildLandmarkIndex(instance->storage.disk(0), instance->graph,
                                landmarks, "landmark_index"));
    instance->landmark_reader = std::make_unique<net::LandmarkIndexReader>(
        instance->storage.disk(0), instance->files.landmark);
    MCN_RETURN_IF_ERROR(instance->landmark_reader->Validate());
  }
  instance->storage.ResetStats();  // build-time writes are not query I/O
  return instance;
}

}  // namespace mcn::gen
