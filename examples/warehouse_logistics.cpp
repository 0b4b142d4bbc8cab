// The paper's introductory logistics scenario (§I, Fig. 1): goods move from
// a port to one of many candidate warehouses. Sensitive goods need the
// fastest route; non-sensitive goods the cheapest. Warehouses that are both
// slower AND more expensive to reach than another are never a good choice —
// the MCN skyline returns exactly the defensible candidates, and a top-k
// query ranks them once the sensitive/non-sensitive mix is known.
//
//   ./examples/warehouse_logistics [num_warehouses]
#include <cstdio>
#include <cstdlib>

#include "mcn/mcn.h"

int main(int argc, char** argv) {
  using namespace mcn;
  uint32_t num_warehouses =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 400;

  // A generated city with two cost types per road segment:
  //   cost 0 = driving minutes, cost 1 = monetary cost (tolls, fuel).
  // Anti-correlated fields mimic toll highways: fast where expensive.
  gen::ExperimentConfig config;
  config.nodes = 6000;
  config.edges = 7647;
  config.facilities = num_warehouses;
  config.clusters = 5;  // industrial zones
  config.num_costs = 2;
  config.distribution = gen::CostDistribution::kAntiCorrelated;
  config.buffer_pct = 1.0;
  config.seed = 99;
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1).value();

  // The port: a fixed location in the network.
  Random rng(7);
  graph::Location port = instance->RandomQueryLocation(rng);
  std::printf("port at %s; %u candidate warehouses\n\n",
              port.ToString().c_str(), num_warehouses);

  // --- Skyline: every warehouse not dominated in (minutes, dollars) -----
  auto engine = expand::CeaEngine::Create(instance->reader.get(), port)
                    .value();
  algo::SkylineQuery skyline(engine.get());
  auto candidates = skyline.ComputeAll().value();
  std::printf("%zu warehouses on the time/money skyline:\n",
              candidates.size());
  std::printf("  %-10s %12s %12s\n", "warehouse", "minutes", "dollars");
  for (const auto& entry : candidates) {
    std::printf("  %-10u %12.2f %12.2f\n", entry.facility,
                (entry.known_mask & 1u) ? entry.costs[0] : -1.0,
                (entry.known_mask & 2u) ? entry.costs[1] : -1.0);
  }
  std::printf("  (-1.00 = not computed: the algorithm confirmed skyline\n"
              "   membership without needing that cost)\n\n");

  // --- Top-3 when 90%% of shipments are time-sensitive ------------------
  auto engine2 = expand::CeaEngine::Create(instance->reader.get(), port)
                     .value();
  algo::TopKOptions opts;
  opts.k = 3;
  algo::TopKQuery topk(engine2.get(), algo::WeightedSum({0.9, 0.1}), opts);
  auto best = topk.Run().value();
  std::printf("top-3 for f = 0.9*minutes + 0.1*dollars:\n");
  for (const auto& entry : best) {
    std::printf("  warehouse %-6u score=%8.2f  (%.1f min, %.2f $)\n",
                entry.facility, entry.score, entry.costs[0],
                entry.costs[1]);
  }

  // --- Show the actual fastest route to the winner ----------------------
  if (!best.empty()) {
    const auto& winner = best[0];
    const graph::Facility& fac = instance->facilities[winner.facility];
    const graph::EdgeRecord& er = instance->graph.edge(fac.edge);
    // Route from the port edge's nearer endpoint to the warehouse edge's
    // nearer endpoint, w.r.t. driving minutes.
    graph::NodeId from = port.is_node() ? port.node() : port.edge().u;
    auto path = expand::ShortestPath(instance->graph, /*cost=*/0, from,
                                     er.u);
    if (path.ok()) {
      std::printf("\nfastest route to warehouse %u (%zu nodes, %.1f min "
                  "to the warehouse's street):\n  ",
                  winner.facility, path->nodes.size(), path->cost);
      for (size_t i = 0; i < path->nodes.size(); ++i) {
        if (i > 0) std::printf(" -> ");
        if (i == 8 && path->nodes.size() > 12) {
          std::printf("... -> %u", path->nodes.back());
          break;
        }
        std::printf("%u", path->nodes[i]);
      }
      std::printf("\n");
    }
  }
  return 0;
}
