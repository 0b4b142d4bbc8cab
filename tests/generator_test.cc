#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "mcn/common/random.h"
#include "mcn/gen/cost_generator.h"
#include "mcn/gen/facility_generator.h"
#include "mcn/gen/road_network_generator.h"
#include "mcn/gen/workload.h"

namespace mcn::gen {
namespace {

bool IsConnected(const Topology& topo) {
  uint32_t n = topo.num_nodes();
  std::vector<std::vector<uint32_t>> adj(n);
  for (auto [u, v] : topo.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<bool> seen(n, false);
  std::vector<uint32_t> stack{0};
  seen[0] = true;
  uint32_t count = 1;
  while (!stack.empty()) {
    uint32_t v = stack.back();
    stack.pop_back();
    for (uint32_t w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        ++count;
        stack.push_back(w);
      }
    }
  }
  return count == n;
}

TEST(RoadNetworkGeneratorTest, ExactCountsAndConnectivity) {
  for (auto [n, e] : std::vector<std::pair<uint32_t, uint32_t>>{
           {200, 255}, {500, 640}, {1000, 1274}, {150, 149}}) {
    RoadNetworkOptions opts;
    opts.target_nodes = n;
    opts.target_edges = e;
    opts.seed = n + e;
    auto topo = GenerateRoadNetwork(opts);
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    EXPECT_EQ(topo->num_nodes(), n);
    EXPECT_EQ(topo->num_edges(), e);
    EXPECT_TRUE(IsConnected(*topo));
  }
}

TEST(RoadNetworkGeneratorTest, DeterministicForSeed) {
  RoadNetworkOptions opts;
  opts.target_nodes = 300;
  opts.target_edges = 380;
  opts.seed = 99;
  auto a = GenerateRoadNetwork(opts).value();
  auto b = GenerateRoadNetwork(opts).value();
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.coords, b.coords);
}

TEST(RoadNetworkGeneratorTest, CoordinatesInUnitSquareish) {
  RoadNetworkOptions opts;
  opts.target_nodes = 400;
  opts.target_edges = 500;
  auto topo = GenerateRoadNetwork(opts).value();
  for (auto [x, y] : topo.coords) {
    EXPECT_GT(x, -0.5);
    EXPECT_LT(x, 1.5);
    EXPECT_GT(y, -0.5);
    EXPECT_LT(y, 1.5);
  }
}

TEST(RoadNetworkGeneratorTest, RoadLikeDegreeDistribution) {
  RoadNetworkOptions opts;  // SF defaults scaled down
  opts.target_nodes = 17495;
  opts.target_edges = 22300;
  auto topo = GenerateRoadNetwork(opts).value();
  std::vector<int> degree(topo.num_nodes(), 0);
  for (auto [u, v] : topo.edges) {
    ++degree[u];
    ++degree[v];
  }
  int deg2 = 0, max_degree = 0;
  for (int d : degree) {
    if (d == 2) ++deg2;
    max_degree = std::max(max_degree, d);
  }
  // Road networks have a large share of degree-2 polyline nodes and small
  // maximum degree.
  EXPECT_GT(deg2, static_cast<int>(topo.num_nodes()) / 4);
  EXPECT_LE(max_degree, 8);
}

TEST(RoadNetworkGeneratorTest, RejectsInfeasibleRequests) {
  RoadNetworkOptions opts;
  opts.target_nodes = 2;
  EXPECT_FALSE(GenerateRoadNetwork(opts).ok());
  opts.target_nodes = 100;
  opts.target_edges = 50;  // below n-1
  EXPECT_FALSE(GenerateRoadNetwork(opts).ok());
  opts.target_edges = 500;  // way too dense for a road network
  EXPECT_FALSE(GenerateRoadNetwork(opts).ok());
}

TEST(CostGeneratorTest, ParseAndToString) {
  EXPECT_EQ(ParseCostDistribution("independent").value(),
            CostDistribution::kIndependent);
  EXPECT_EQ(ParseCostDistribution("anti").value(),
            CostDistribution::kAntiCorrelated);
  EXPECT_EQ(ParseCostDistribution("corr").value(),
            CostDistribution::kCorrelated);
  EXPECT_FALSE(ParseCostDistribution("bogus").ok());
  EXPECT_EQ(ToString(CostDistribution::kAntiCorrelated), "anti-correlated");
}

TEST(CostGeneratorTest, CostsPositiveAndScaleWithBase) {
  Random rng(4);
  for (CostDistribution dist :
       {CostDistribution::kIndependent, CostDistribution::kCorrelated,
        CostDistribution::kAntiCorrelated}) {
    for (int i = 0; i < 200; ++i) {
      graph::CostVector w = GenerateEdgeCosts(rng, dist, 4, 2.0);
      for (int j = 0; j < 4; ++j) {
        EXPECT_GT(w[j], 0.0);
        EXPECT_LT(w[j], 2.0 * 4.2);  // bounded by ~base * d
      }
    }
  }
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double ma = std::accumulate(a.begin(), a.end(), 0.0) / a.size();
  double mb = std::accumulate(b.begin(), b.end(), 0.0) / b.size();
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

TEST(CostGeneratorTest, CorrelationStructureMatchesName) {
  Random rng(5);
  const int n = 4000;
  for (CostDistribution dist :
       {CostDistribution::kIndependent, CostDistribution::kCorrelated,
        CostDistribution::kAntiCorrelated}) {
    std::vector<double> c0, c1;
    for (int i = 0; i < n; ++i) {
      graph::CostVector w = GenerateEdgeCosts(rng, dist, 2, 1.0);
      c0.push_back(w[0]);
      c1.push_back(w[1]);
    }
    double r = PearsonCorrelation(c0, c1);
    switch (dist) {
      case CostDistribution::kIndependent:
        EXPECT_NEAR(r, 0.0, 0.1);
        break;
      case CostDistribution::kCorrelated:
        EXPECT_GT(r, 0.9);
        break;
      case CostDistribution::kAntiCorrelated:
        EXPECT_LT(r, -0.5);
        break;
    }
  }
}

TEST(CostGeneratorTest, BuildGraphFromTopology) {
  RoadNetworkOptions road;
  road.target_nodes = 300;
  road.target_edges = 380;
  auto topo = GenerateRoadNetwork(road).value();
  CostGenOptions costs;
  costs.num_costs = 3;
  auto g = BuildMultiCostGraph(topo, costs);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 300u);
  EXPECT_EQ(g->num_edges(), 380u);
  EXPECT_EQ(g->num_costs(), 3);
  EXPECT_TRUE(g->finalized());
}

TEST(FacilityGeneratorTest, CountAndClustering) {
  RoadNetworkOptions road;
  road.target_nodes = 2000;
  road.target_edges = 2548;
  auto topo = GenerateRoadNetwork(road).value();
  CostGenOptions cg;
  cg.num_costs = 2;
  auto g = BuildMultiCostGraph(topo, cg).value();

  FacilityGenOptions opts;
  opts.count = 500;
  opts.num_clusters = 3;
  opts.cluster_sigma = 0.03;
  auto facs = GenerateFacilities(g, opts).value();
  EXPECT_EQ(facs.size(), 500u);
  EXPECT_TRUE(facs.finalized());

  // Clustered: the average pairwise facility distance should be well below
  // the uniform expectation (~0.52 for the unit square).
  auto fac_xy = [&](graph::FacilityId f) {
    const graph::EdgeRecord& e = g.edge(facs[f].edge);
    double t = facs[f].frac;
    return std::pair<double, double>(
        g.x(e.u) + t * (g.x(e.v) - g.x(e.u)),
        g.y(e.u) + t * (g.y(e.v) - g.y(e.u)));
  };
  Random rng(1);
  double total = 0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    auto [x1, y1] = fac_xy(static_cast<graph::FacilityId>(
        rng.Uniform(facs.size())));
    auto [x2, y2] = fac_xy(static_cast<graph::FacilityId>(
        rng.Uniform(facs.size())));
    total += std::hypot(x1 - x2, y1 - y2);
  }
  EXPECT_LT(total / samples, 0.4);
}

TEST(FacilityGeneratorTest, InvalidOptions) {
  graph::MultiCostGraph g(1);
  g.AddNode(0, 0);
  g.Finalize();
  FacilityGenOptions opts;
  EXPECT_FALSE(GenerateFacilities(g, opts).ok());  // no edges
}

TEST(WorkloadTest, BuildInstanceEndToEnd) {
  ExperimentConfig config;
  config.nodes = 800;
  config.edges = 1020;
  config.facilities = 100;
  config.num_costs = 3;
  config.buffer_pct = 1.0;
  auto instance = BuildShardedInstance(config, /*num_shards=*/1).value();
  EXPECT_EQ(instance->graph.num_nodes(), 800u);
  EXPECT_EQ(instance->graph.num_edges(), 1020u);
  EXPECT_EQ(instance->facilities.size(), 100u);
  EXPECT_EQ(instance->files.num_costs, 3);
  EXPECT_GT(instance->files.total_pages, 0u);
  EXPECT_EQ(instance->pool_frames,
            BufferFrames(1.0, instance->files.total_pages));
  EXPECT_EQ(instance->reader->shard_pool(0)->capacity(),
            instance->pool_frames);

  Random rng(3);
  graph::Location q = instance->RandomQueryLocation(rng);
  EXPECT_FALSE(q.is_node());
}

TEST(WorkloadTest, BufferFramesRounding) {
  EXPECT_EQ(BufferFrames(0.0, 10000), 0u);
  EXPECT_EQ(BufferFrames(1.0, 10000), 100u);
  EXPECT_EQ(BufferFrames(0.5, 10000), 50u);
  EXPECT_EQ(BufferFrames(2.0, 333), 7u);  // round(6.66)
}

TEST(WorkloadTest, ScaledConfig) {
  ExperimentConfig config;  // SF defaults
  ExperimentConfig half = config.Scaled(0.5);
  EXPECT_NEAR(half.nodes, config.nodes * 0.5, 1.0);
  EXPECT_NEAR(half.edges, config.edges * 0.5, 1.0);
  EXPECT_NEAR(half.facilities, config.facilities * 0.5, 1.0);
  ExperimentConfig tiny = config.Scaled(1e-9);
  EXPECT_GE(tiny.nodes, 64u);
  EXPECT_GE(tiny.edges, tiny.nodes + 16);
  EXPECT_FALSE(config.ToString().empty());
}

TEST(WorkloadTest, ResetIoStateClearsCounters) {
  ExperimentConfig config;
  config.nodes = 300;
  config.edges = 400;
  config.facilities = 40;
  auto instance = BuildShardedInstance(config, /*num_shards=*/1).value();
  std::vector<net::AdjEntry> entries;
  ASSERT_TRUE(instance->reader->GetAdjacency(0, &entries).ok());
  EXPECT_GT(instance->reader->PoolStats().accesses(), 0u);
  instance->ResetIoState();
  EXPECT_EQ(instance->reader->PoolStats().accesses(), 0u);
  EXPECT_EQ(instance->storage.MergedStats().page_reads, 0u);
  EXPECT_EQ(instance->reader->shard_pool(0)->resident_frames(), 0u);
}

}  // namespace
}  // namespace mcn::gen
