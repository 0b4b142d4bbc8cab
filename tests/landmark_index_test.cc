// Landmark lower-bound index coverage (DESIGN.md §12, ctest label `index`):
//
//  * quantization properties: stored lower bounds never exceed the exact
//    distance, the one-ulp upper bound never undercuts it;
//  * deterministic selection: SelectLandmarks is a pure function of
//    (graph, L, partition) — same inputs, same landmark list;
//  * build determinism + persistence: two builds of the same graph agree
//    row for row, and a SaveNetworkDatabase/LoadNetworkDatabase round trip
//    reopens a validating index with identical rows;
//  * admissibility: every stored (dimension, landmark) entry brackets the
//    exact single-criterion Dijkstra distance;
//  * exactness at the query layer: skyline runs with the oracle installed
//    are byte-identical to runs without it (K = 1, 2 and 4 layouts, and
//    through QueryService), prune at least once somewhere across the
//    sweep, and obey the probe accounting inequality
//    adjacency_requests_on + nodes_pruned <= adjacency_requests_off.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/exec/query_service.h"
#include "mcn/expand/dijkstra.h"
#include "mcn/expand/engines.h"
#include "mcn/gen/workload.h"
#include "mcn/net/catalog.h"
#include "mcn/net/landmark_index.h"
#include "mcn/shard/partition.h"
#include "test_util.h"

namespace mcn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A small built instance with an index: a few hundred nodes keeps the d*L
/// Dijkstra builds and the exact-oracle comparisons fast.
gen::ExperimentConfig IndexedConfig(uint64_t seed, int d = 3,
                                    uint32_t landmarks = 8) {
  gen::ExperimentConfig config;
  config.nodes = 500;
  config.edges = 700;
  config.facilities = 48;
  config.clusters = 4;
  config.num_costs = d;
  config.buffer_pct = 1.0;
  config.seed = seed;
  config.landmarks = landmarks;
  return config;
}

/// A single-disk (K = 1) build of `config`.
std::unique_ptr<gen::ShardedInstance> BuildIndexed(
    const gen::ExperimentConfig& config) {
  return gen::BuildShardedInstance(config, /*num_shards=*/1).value();
}

TEST(LandmarkIndexTest, QuantizationBracketsTheDouble) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  Random rng(base);
  for (int i = 0; i < 10000; ++i) {
    // Spread across magnitudes, including values too precise for float.
    const double x = rng.NextDouble() * std::pow(10.0, rng.UniformInt(0, 12));
    const float lo = net::RoundDownToFloat(x);
    const float hi = net::LandmarkUpperBound(lo);
    EXPECT_LE(static_cast<double>(lo), x) << "x=" << x;
    EXPECT_GE(static_cast<double>(hi), x) << "x=" << x;
  }
  EXPECT_TRUE(std::isinf(net::RoundDownToFloat(kInf)));
  EXPECT_TRUE(std::isinf(net::LandmarkUpperBound(
      net::RoundDownToFloat(kInf))));
  EXPECT_EQ(net::RoundDownToFloat(0.0), 0.0f);
}

TEST(LandmarkIndexTest, SelectionIsDeterministicAndDistinct) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  auto instance = BuildIndexed(IndexedConfig(base, 3, 0));
  const auto a =
      net::SelectLandmarks(instance->graph, 8, /*num_shards=*/1, {});
  const auto b =
      net::SelectLandmarks(instance->graph, 8, /*num_shards=*/1, {});
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 8u);
  EXPECT_EQ(std::set<graph::NodeId>(a.begin(), a.end()).size(), a.size());

  // Sharded selection: also deterministic, also distinct, and biased by a
  // real partition's boundary structure.
  shard::GridTilePartitioner partitioner;
  const shard::Partition part = partitioner.Build(instance->graph, 4).value();
  const auto s1 = net::SelectLandmarks(instance->graph, 8, part.num_shards,
                                       part.node_shard);
  const auto s2 = net::SelectLandmarks(instance->graph, 8, part.num_shards,
                                       part.node_shard);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(std::set<graph::NodeId>(s1.begin(), s1.end()).size(), s1.size());
}

TEST(LandmarkIndexTest, BuildIsDeterministicAcrossRuns) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  auto one = BuildIndexed(IndexedConfig(base));
  auto two = BuildIndexed(IndexedConfig(base));
  ASSERT_TRUE(one->files.landmark.present());
  ASSERT_TRUE(two->files.landmark.present());
  EXPECT_EQ(one->files.landmark.num_landmarks,
            two->files.landmark.num_landmarks);
  EXPECT_EQ(one->files.landmark.num_pages, two->files.landmark.num_pages);
  EXPECT_EQ(one->landmark_reader->landmark_ids(),
            two->landmark_reader->landmark_ids());
  const size_t row_len =
      static_cast<size_t>(one->files.landmark.num_costs) *
      one->files.landmark.num_landmarks;
  std::vector<float> row_one(row_len), row_two(row_len);
  for (graph::NodeId v = 0; v < one->graph.num_nodes(); v += 7) {
    ASSERT_TRUE(one->landmark_reader->LoadNodeRow(v, row_one.data()).ok());
    ASSERT_TRUE(two->landmark_reader->LoadNodeRow(v, row_two.data()).ok());
    EXPECT_EQ(row_one, row_two) << "node " << v;
  }
}

TEST(LandmarkIndexTest, PersistenceRoundTripThroughCatalog) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  auto instance = BuildIndexed(IndexedConfig(base));
  ASSERT_TRUE(instance->files.landmark.present());
  // The single shard's file set plus the index handle: everything a
  // reopened process needs, on shard 0's disk.
  net::NetworkFiles catalog = instance->files.shards[0];
  catalog.landmark = instance->files.landmark;
  const std::string db = TempPath("landmark_netdb");
  ASSERT_TRUE(
      net::SaveNetworkDatabase(*instance->storage.disk(0), catalog, db).ok());
  auto loaded = net::LoadNetworkDatabase(db).value();
  ASSERT_TRUE(loaded.files.landmark.present());
  EXPECT_EQ(loaded.files.landmark.file, instance->files.landmark.file);
  EXPECT_EQ(loaded.files.landmark.num_landmarks,
            instance->files.landmark.num_landmarks);
  EXPECT_EQ(loaded.files.landmark.num_nodes,
            instance->files.landmark.num_nodes);
  EXPECT_EQ(loaded.files.landmark.num_costs,
            instance->files.landmark.num_costs);
  EXPECT_EQ(loaded.files.landmark.records_per_page,
            instance->files.landmark.records_per_page);
  EXPECT_EQ(loaded.files.landmark.num_pages,
            instance->files.landmark.num_pages);

  net::LandmarkIndexReader reopened(&loaded.disk, loaded.files.landmark);
  ASSERT_TRUE(reopened.Validate().ok());
  EXPECT_EQ(reopened.landmark_ids(), instance->landmark_reader->landmark_ids());
  const size_t row_len = static_cast<size_t>(reopened.num_costs()) *
                         reopened.num_landmarks();
  std::vector<float> row_a(row_len), row_b(row_len);
  for (graph::NodeId v = 0; v < instance->graph.num_nodes(); v += 11) {
    ASSERT_TRUE(instance->landmark_reader->LoadNodeRow(v, row_a.data()).ok());
    ASSERT_TRUE(reopened.LoadNodeRow(v, row_b.data()).ok());
    EXPECT_EQ(row_a, row_b) << "node " << v;
  }

  // A catalog without lm_ keys must still load (index-less databases stay
  // readable), reporting an absent index.
  auto bare = BuildIndexed(IndexedConfig(base, 3, 0));
  const std::string bare_path = TempPath("landmark_bare.cat");
  ASSERT_TRUE(net::SaveCatalog(bare->files.shards[0], bare_path).ok());
  auto bare_files = net::LoadCatalog(bare_path).value();
  EXPECT_FALSE(bare_files.landmark.present());
}

TEST(LandmarkIndexTest, RowsBracketExactDijkstraDistances) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  auto instance = BuildIndexed(IndexedConfig(base, 3, 6));
  const net::LandmarkIndexReader& reader = *instance->landmark_reader;
  const int d = reader.num_costs();
  const uint32_t L = reader.num_landmarks();
  const size_t row_len = static_cast<size_t>(d) * L;
  std::vector<float> row(row_len);
  // Exact per-dimension distances from each landmark (undirected network:
  // to == from), the ground truth the stored rows must bracket.
  std::vector<std::vector<double>> exact(static_cast<size_t>(d) * L);
  for (int i = 0; i < d; ++i) {
    for (uint32_t lm = 0; lm < L; ++lm) {
      exact[static_cast<size_t>(i) * L + lm] = expand::ShortestPathCosts(
          instance->graph, i,
          graph::Location::AtNode(reader.landmark_ids()[lm]));
    }
  }
  for (graph::NodeId v = 0; v < instance->graph.num_nodes(); v += 3) {
    ASSERT_TRUE(instance->landmark_reader->LoadNodeRow(v, row.data()).ok());
    for (size_t j = 0; j < row_len; ++j) {
      const double truth = exact[j][v];
      if (std::isinf(truth)) {
        EXPECT_TRUE(std::isinf(row[j])) << "node " << v << " entry " << j;
        continue;
      }
      EXPECT_LE(static_cast<double>(row[j]), truth)
          << "node " << v << " entry " << j;
      EXPECT_GE(static_cast<double>(net::LandmarkUpperBound(row[j])), truth)
          << "node " << v << " entry " << j;
    }
  }
}

struct PruneCapture {
  uint64_t hash = 0;
  std::vector<graph::FacilityId> ids;
  uint64_t adjacency_requests = 0;
  uint64_t nodes_pruned = 0;
  uint64_t prune_checked = 0;
  uint64_t prune_cut = 0;
};

PruneCapture RunSkyline(net::NetworkReader* reader, const graph::Location& q,
                        net::LandmarkIndexReader* index) {
  auto engine = expand::MakeEngine(expand::EngineKind::kCea, reader, q).value();
  algo::SkylineOptions opts;
  opts.exec.landmark_index = index;
  algo::SkylineQuery query(engine.get(), opts);
  auto rows = query.ComputeAll();
  MCN_CHECK(rows.ok());
  PruneCapture c;
  c.hash = algo::HashResult(rows.value());
  for (const auto& e : rows.value()) c.ids.push_back(e.facility);
  c.adjacency_requests = engine->fetch().stats().adjacency_requests;
  for (int i = 0; i < engine->fetch().num_costs(); ++i) {
    c.nodes_pruned += engine->expansion(i).stats().nodes_pruned;
  }
  c.prune_checked = query.stats().prune_checked;
  c.prune_cut = query.stats().prune_cut;
  return c;
}

TEST(LandmarkIndexTest, SkylineWithIndexIsByteIdentical) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  uint64_t total_cut = 0;
  for (int d : {2, 3, 4}) {
    auto instance = BuildIndexed(IndexedConfig(test::DeriveSeed(base, d), d));
    Random rng(test::DeriveSeed(base, 40 + d));
    for (int qi = 0; qi < 6; ++qi) {
      const graph::Location q = instance->RandomQueryLocation(rng);
      SCOPED_TRACE("d=" + std::to_string(d) + " q=" + q.ToString() +
                   " | rerun: MCN_TEST_SEED=" +
                   std::to_string(test::TestSeed()) +
                   " ctest -R landmark_index_test");
      instance->ResetIoState();
      const PruneCapture off =
          RunSkyline(instance->reader.get(), q, /*index=*/nullptr);
      instance->ResetIoState();
      const PruneCapture on =
          RunSkyline(instance->reader.get(), q, instance->landmark_reader.get());

      // Exactness: the oracle may only skip probes, never change results.
      EXPECT_EQ(off.hash, on.hash);
      EXPECT_EQ(off.ids, on.ids);
      // Off runs never consult the oracle.
      EXPECT_EQ(off.prune_checked, 0u);
      EXPECT_EQ(off.nodes_pruned, 0u);
      // Every pruned pop is a pop the off run probed, and the on run's
      // probes are a subset of the off run's (pruned subtrees also vanish,
      // hence <=, not ==).
      EXPECT_LE(on.adjacency_requests + on.nodes_pruned,
                off.adjacency_requests);
      EXPECT_EQ(on.prune_cut, on.nodes_pruned);
      EXPECT_LE(on.prune_cut, on.prune_checked);
      total_cut += on.prune_cut;
    }
  }
  // The sweep as a whole must exercise the prune path for real.
  EXPECT_GT(total_cut, 0u);
}

TEST(LandmarkIndexTest, ShardedBuildMatchesFlatResults) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  const gen::ExperimentConfig config =
      IndexedConfig(test::DeriveSeed(base, 77));
  auto reference = BuildIndexed(config);
  Random rng(test::DeriveSeed(base, 78));
  std::vector<graph::Location> queries;
  for (int qi = 0; qi < 4; ++qi) {
    queries.push_back(reference->RandomQueryLocation(rng));
  }

  std::vector<uint64_t> reference_hashes;
  for (const auto& q : queries) {
    reference->ResetIoState();
    reference_hashes.push_back(RunSkyline(reference->reader.get(), q,
                                          reference->landmark_reader.get())
                                   .hash);
  }

  for (int k : {1, 2, 4}) {
    auto sharded = gen::BuildShardedInstance(config, k).value();
    ASSERT_TRUE(sharded->files.landmark.present());
    ASSERT_NE(sharded->landmark_reader, nullptr);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("K=" + std::to_string(k) + " q=" + queries[qi].ToString());
      sharded->ResetIoState();
      // The K > 1 landmark selection differs from the K = 1 one (quota is
      // boundary-biased per shard), so fetch counts may differ — results
      // may not: the oracle is exact for any admissible index.
      const PruneCapture got = RunSkyline(sharded->reader.get(), queries[qi],
                                          sharded->landmark_reader.get());
      EXPECT_EQ(got.hash, reference_hashes[qi]);
    }
  }
}

TEST(LandmarkIndexTest, QueryServicePruneParity) {
  const uint64_t base = test::AnnounceSeed("landmark_index_test");
  auto instance = BuildIndexed(IndexedConfig(test::DeriveSeed(base, 99)));
  ASSERT_TRUE(instance->files.landmark.present());

  // Every spec kind rides the same service, constrained variants included:
  // constraints are a post-dominance filter, so prune parity must hold
  // under them too (the oracle runs during expansion, before filtering).
  Random rng(test::DeriveSeed(base, 100));
  const int d = 3;
  std::vector<api::QuerySpec> specs;
  for (int qi = 0; qi < 10; ++qi) {
    const graph::Location loc = instance->RandomQueryLocation(rng);
    const std::vector<double> weights =
        test::TestWeights(d, test::DeriveSeed(base, 200 + qi));
    api::QuerySpec spec;
    switch (qi % 5) {
      case 0:  // plain skyline
        spec = api::SkylineSpec(loc);
        break;
      case 1:  // epsilon-thinned skyline
        spec = api::SkylineSpec(loc);
        spec.preference.constraints.epsilon = 0.1;
        break;
      case 2:  // cost-capped skyline (one modest cap, rest unbounded)
        spec = api::SkylineSpec(loc);
        spec.preference.constraints.cost_caps.assign(d, kInf);
        spec.preference.constraints.cost_caps[qi % d] = 60.0;
        break;
      case 3:
        spec = api::TopKSpec(loc, 3, weights);
        break;
      default:
        spec = api::IncrementalSpec(loc, 3, weights);
        break;
    }
    specs.push_back(spec);
  }

  auto run_service = [&](bool enable) {
    exec::ServiceOptions options;
    options.num_workers = 2;
    options.pool_frames_per_worker = instance->pool_frames;
    options.enable_prune_index = enable;
    auto service = exec::QueryService::Create(&instance->storage,
                                              instance->files, options)
                       .value();
    std::vector<uint64_t> hashes;
    uint64_t misses = 0;
    for (const auto& spec : specs) {
      exec::QueryResult result = service->Submit(spec).get();
      MCN_CHECK(result.status.ok());
      hashes.push_back(result.result_hash);
      misses += result.stats.buffer_misses;
    }
    const obs::Snapshot stats = service->MetricsSnapshot();
    service->Shutdown();
    return std::tuple<std::vector<uint64_t>, obs::Snapshot, uint64_t>(
        hashes, stats, misses);
  };

  const auto [hashes_off, stats_off, misses_off] = run_service(false);
  const auto [hashes_on, stats_on, misses_on] = run_service(true);
  EXPECT_EQ(hashes_off, hashes_on);
  namespace mn = exec::metric_names;
  EXPECT_EQ(stats_off.CounterValue(mn::kPruneChecked), 0u);
  EXPECT_GT(stats_on.CounterValue(mn::kPruneChecked), 0u);
  EXPECT_GT(stats_on.CounterValue(mn::kPruneCut), 0u);
  EXPECT_LE(stats_on.CounterValue(mn::kPruneCut),
            stats_on.CounterValue(mn::kPruneChecked));
}

}  // namespace
}  // namespace mcn
