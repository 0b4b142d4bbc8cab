// Command-line utility around the library: generate synthetic multi-cost
// networks, export/import the extended DIMACS format, and answer skyline /
// top-k queries from the shell.
//
//   network_tool generate <nodes> <edges> <d> <dist> <out.gr>
//   network_tool facilities <graph.gr> <count> <clusters> <out.fac>
//   network_tool skyline <graph.gr> <facilities.fac> <node-id>
//   network_tool topk <graph.gr> <facilities.fac> <node-id> <k> [w1,w2,...]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mcn/mcn.h"

namespace {

using namespace mcn;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  network_tool generate <nodes> <edges> <d> "
      "<anti|ind|corr> <out.gr>\n"
      "  network_tool facilities <graph.gr> <count> <clusters> <out.fac>\n"
      "  network_tool skyline <graph.gr> <facilities.fac> <node-id>\n"
      "  network_tool topk <graph.gr> <facilities.fac> <node-id> <k> "
      "[w1,w2,...]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Generate(int argc, char** argv) {
  if (argc != 7) return Usage();
  gen::RoadNetworkOptions road;
  road.target_nodes = static_cast<uint32_t>(std::atoll(argv[2]));
  road.target_edges = static_cast<uint32_t>(std::atoll(argv[3]));
  auto topo = gen::GenerateRoadNetwork(road);
  if (!topo.ok()) return Fail(topo.status());
  gen::CostGenOptions costs;
  costs.num_costs = std::atoi(argv[4]);
  auto dist = gen::ParseCostDistribution(argv[5]);
  if (!dist.ok()) return Fail(dist.status());
  costs.distribution = dist.value();
  auto g = gen::BuildMultiCostGraph(*topo, costs);
  if (!g.ok()) return Fail(g.status());
  Status s = io::WriteGraphToFile(argv[6], *g);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %u nodes / %u edges / d=%d to %s\n", g->num_nodes(),
              g->num_edges(), g->num_costs(), argv[6]);
  return 0;
}

int Facilities(int argc, char** argv) {
  if (argc != 6) return Usage();
  auto g = io::ReadGraphFromFile(argv[2]);
  if (!g.ok()) return Fail(g.status());
  gen::FacilityGenOptions opts;
  opts.count = static_cast<uint32_t>(std::atoll(argv[3]));
  opts.num_clusters = std::atoi(argv[4]);
  auto facs = gen::GenerateFacilities(*g, opts);
  if (!facs.ok()) return Fail(facs.status());
  Status s = io::WriteFacilitiesToFile(argv[5], *g, *facs);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu facilities to %s\n", facs->size(), argv[5]);
  return 0;
}

struct LoadedNetwork {
  graph::MultiCostGraph g{1};
  graph::FacilitySet facilities;
  std::unique_ptr<shard::ShardedStorage> storage;  ///< one shard, one disk
  shard::ShardedNetworkFiles files;
  std::unique_ptr<shard::ShardedNetworkReader> reader;
};

Result<std::unique_ptr<LoadedNetwork>> Load(const char* graph_path,
                                            const char* fac_path) {
  auto loaded = std::make_unique<LoadedNetwork>();
  MCN_ASSIGN_OR_RETURN(loaded->g, io::ReadGraphFromFile(graph_path));
  MCN_ASSIGN_OR_RETURN(loaded->facilities,
                       io::ReadFacilitiesFromFile(fac_path, loaded->g));
  loaded->storage = std::make_unique<shard::ShardedStorage>(
      shard::SingleShardPartition(loaded->g.num_nodes()));
  MCN_ASSIGN_OR_RETURN(loaded->files,
                       shard::BuildShardedNetwork(loaded->storage.get(),
                                                  loaded->g,
                                                  loaded->facilities));
  loaded->reader = std::make_unique<shard::ShardedNetworkReader>(
      loaded->storage.get(), loaded->files,
      std::vector<size_t>{gen::BufferFrames(1.0, loaded->files.total_pages)});
  return loaded;
}

int Skyline(int argc, char** argv) {
  if (argc != 5) return Usage();
  auto loaded = Load(argv[2], argv[3]);
  if (!loaded.ok()) return Fail(loaded.status());
  graph::NodeId node = static_cast<graph::NodeId>(std::atoll(argv[4]));
  auto engine = expand::CeaEngine::Create((*loaded)->reader.get(),
                                          graph::Location::AtNode(node));
  if (!engine.ok()) return Fail(engine.status());
  algo::SkylineQuery query(engine.value().get());
  auto result = query.ComputeAll();
  if (!result.ok()) return Fail(result.status());
  std::printf("skyline of node %u: %zu facilities\n", node,
              result->size());
  for (const auto& entry : *result) {
    std::printf("  facility %-8u costs=%s\n", entry.facility,
                entry.costs.ToString().c_str());
  }
  std::printf("I/O: %llu page reads\n",
              static_cast<unsigned long long>(
                  (*loaded)->reader->PoolStats().misses));
  return 0;
}

int TopK(int argc, char** argv) {
  if (argc != 6 && argc != 7) return Usage();
  auto loaded = Load(argv[2], argv[3]);
  if (!loaded.ok()) return Fail(loaded.status());
  graph::NodeId node = static_cast<graph::NodeId>(std::atoll(argv[4]));
  int k = std::atoi(argv[5]);
  int d = (*loaded)->g.num_costs();
  std::vector<double> weights(d, 1.0 / d);
  if (argc == 7) {
    weights.clear();
    for (const char* at = argv[6]; *at != '\0';) {
      weights.push_back(std::strtod(at, const_cast<char**>(&at)));
      if (*at == ',') ++at;
    }
    if (static_cast<int>(weights.size()) != d) {
      std::fprintf(stderr, "need %d weights\n", d);
      return 2;
    }
  }
  auto engine = expand::CeaEngine::Create((*loaded)->reader.get(),
                                          graph::Location::AtNode(node));
  if (!engine.ok()) return Fail(engine.status());
  algo::TopKOptions opts;
  opts.k = k;
  algo::TopKQuery query(engine.value().get(), algo::WeightedSum(weights),
                        opts);
  auto result = query.Run();
  if (!result.ok()) return Fail(result.status());
  std::printf("top-%d of node %u:\n", k, node);
  for (const auto& entry : *result) {
    std::printf("  facility %-8u score=%.4f costs=%s\n", entry.facility,
                entry.score, entry.costs.ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return Generate(argc, argv);
  if (std::strcmp(argv[1], "facilities") == 0) return Facilities(argc, argv);
  if (std::strcmp(argv[1], "skyline") == 0) return Skyline(argc, argv);
  if (std::strcmp(argv[1], "topk") == 0) return TopK(argc, argv);
  return Usage();
}
