#include "test_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "mcn/common/hash.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"

namespace mcn::test {

DiskFixture::DiskFixture(graph::MultiCostGraph g, graph::FacilitySet f,
                         size_t buffer_frames)
    : graph(std::move(g)),
      facilities(std::move(f)),
      storage(shard::SingleShardPartition(graph.num_nodes())) {
  auto built = shard::BuildShardedNetwork(&storage, graph, facilities);
  MCN_CHECK(built.ok());
  files = std::move(built).value();
  reader = std::make_unique<shard::ShardedNetworkReader>(
      &storage, files, std::vector<size_t>{buffer_frames});
}

graph::MultiCostGraph TinyGraph() {
  // A 3x3 grid-ish network, d = 2:
  //   0 - 1 - 2
  //   |   |   |
  //   3 - 4 - 5
  //   |   |   |
  //   6 - 7 - 8
  graph::MultiCostGraph g(2);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      g.AddNode(c, r);
    }
  }
  auto add = [&](graph::NodeId a, graph::NodeId b, double w1, double w2) {
    MCN_CHECK(g.AddEdge(a, b, graph::CostVector{w1, w2}).ok());
  };
  add(0, 1, 4.0, 1.0);
  add(1, 2, 2.0, 5.0);
  add(0, 3, 1.0, 2.0);
  add(1, 4, 3.0, 1.0);
  add(2, 5, 1.0, 1.0);
  add(3, 4, 2.0, 6.0);
  add(4, 5, 5.0, 2.0);
  add(3, 6, 6.0, 1.0);
  add(4, 7, 1.0, 4.0);
  add(5, 8, 2.0, 2.0);
  add(6, 7, 2.0, 2.0);
  add(7, 8, 3.0, 1.0);
  g.Finalize();
  return g;
}

graph::FacilitySet TinyFacilities(const graph::MultiCostGraph& g) {
  graph::FacilitySet f;
  f.Add(g.FindEdge(1, 2).value(), 0.5);
  f.Add(g.FindEdge(3, 4).value(), 0.25);
  f.Add(g.FindEdge(7, 8).value(), 0.75);
  f.Add(g.FindEdge(5, 8).value(), 0.0);
  f.Add(g.FindEdge(0, 3).value(), 1.0);
  f.Finalize();
  return f;
}

Result<std::unique_ptr<gen::ShardedInstance>> MakeSmallInstance(
    const SmallConfig& config) {
  gen::ExperimentConfig ec;
  ec.nodes = config.nodes;
  ec.edges = config.edges;
  ec.facilities = config.facilities;
  ec.clusters = 4;
  ec.num_costs = config.num_costs;
  ec.distribution = config.distribution;
  ec.buffer_pct = config.buffer_pct;
  ec.seed = config.seed;
  return gen::BuildShardedInstance(ec, /*num_shards=*/1);
}

OracleResult OracleReachableCosts(const graph::MultiCostGraph& g,
                                  const graph::FacilitySet& facilities,
                                  const graph::Location& q) {
  std::vector<graph::CostVector> all =
      expand::AllFacilityCosts(g, facilities, q);
  OracleResult result;
  for (graph::FacilityId f = 0; f < facilities.size(); ++f) {
    bool reachable = true;
    for (int i = 0; i < g.num_costs(); ++i) {
      if (all[f][i] == expand::kInfCost) reachable = false;
    }
    if (reachable) {
      result.ids.push_back(f);
      result.costs.push_back(all[f]);
    }
  }
  return result;
}

std::set<graph::FacilityId> OracleSkyline(const graph::MultiCostGraph& g,
                                          const graph::FacilitySet& facs,
                                          const graph::Location& q) {
  OracleResult r = OracleReachableCosts(g, facs, q);
  std::set<graph::FacilityId> sky;
  for (size_t i = 0; i < r.ids.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < r.ids.size() && !dominated; ++j) {
      if (i != j && r.costs[j].Dominates(r.costs[i])) dominated = true;
    }
    if (!dominated) sky.insert(r.ids[i]);
  }
  return sky;
}

std::vector<algo::TopKEntry> OracleTopK(const graph::MultiCostGraph& g,
                                        const graph::FacilitySet& facs,
                                        const graph::Location& q,
                                        const algo::AggregateFn& f, int k) {
  OracleResult r = OracleReachableCosts(g, facs, q);
  std::vector<algo::TopKEntry> entries;
  entries.reserve(r.ids.size());
  for (size_t i = 0; i < r.ids.size(); ++i) {
    entries.push_back(algo::TopKEntry{r.ids[i], r.costs[i], f(r.costs[i])});
  }
  std::sort(entries.begin(), entries.end(),
            [](const algo::TopKEntry& a, const algo::TopKEntry& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.facility < b.facility;
            });
  if (static_cast<int>(entries.size()) > k) entries.resize(k);
  return entries;
}

std::vector<double> TestWeights(int d, uint64_t seed) {
  Random rng(seed);
  std::vector<double> w(d);
  for (double& x : w) x = rng.UniformDouble(0.05, 1.0);
  return w;
}

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("MCN_TEST_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  uint64_t seed = std::strtoull(env, &end, 10);
  MCN_CHECK(end != nullptr && *end == '\0');  // malformed MCN_TEST_SEED
  return seed;
}

uint64_t AnnounceSeed(const char* test_name, uint64_t fallback) {
  uint64_t seed = TestSeed(fallback);
  std::fprintf(stderr,
               "[ seed     ] %s: %llu (rerun: MCN_TEST_SEED=%llu ctest -R "
               "%s)\n",
               test_name, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed), test_name);
  return seed;
}

uint64_t DeriveSeed(uint64_t base, uint64_t index) {
  // Golden-ratio stride + the shared mixer; avoids correlated instance
  // streams when sweeping nearby indices.
  return MixU64(base + 0x9E3779B97F4A7C15ull * (index + 1));
}

}  // namespace mcn::test
