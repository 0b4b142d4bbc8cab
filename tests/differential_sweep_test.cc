// Randomized differential suite for intra-query parallel d-expansion
// (DESIGN.md §7). Over instances sweeping d in {2..5} and tiny/large
// buffer pools, for every ProbePolicy and every query processor:
//
//  * the turn schedule at parallelism 1 (inline), 2 and 4 (pooled) must be
//    byte-identical: same result hashes, same logical fetch-request
//    counts, same physical fetch counts (the single-flight guard makes
//    thread count invisible to the I/O accounting);
//  * physical fetches obey the §IV-B "at most once per query" invariant
//    (every physical fetch corresponds to exactly one cached record);
//  * the ablation frontier policies take width-1 turns at every
//    parallelism, so the striped runs must replay the parallelism-0 run
//    over the plain CEA engine exactly — hashes and logical counts byte
//    for byte;
//  * round-robin wide turns (the parallel schedule proper) must agree
//    with the parallelism-0 run and the naive.h ground truth on the
//    results themselves: identical skyline sets, identical top-k /
//    incremental entries.
//
// All randomness derives from MCN_TEST_SEED (logged on entry); every
// failure message carries the reseed command.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/naive.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/exec/expansion_executor.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/gen/workload.h"
#include "mcn/shard/partition.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_storage.h"
#include "test_util.h"

namespace mcn::algo {
namespace {

struct SweepPoint {
  int num_costs;
  double buffer_pct;
  uint64_t seed;
};

std::vector<SweepPoint> SweepPoints() {
  std::vector<SweepPoint> points;
  const uint64_t base = test::AnnounceSeed("differential_sweep_test");
  uint64_t index = 0;
  for (int d : {2, 3, 4, 5}) {
    for (double buffer_pct : {0.05, 1.0}) {
      points.push_back(SweepPoint{d, buffer_pct, test::DeriveSeed(base, ++index)});
    }
  }
  return points;
}

std::string ReseedHint() {
  return "rerun: MCN_TEST_SEED=" + std::to_string(test::TestSeed()) +
         " ctest -R differential_sweep_test";
}

/// Everything one query run is compared on.
struct Capture {
  uint64_t hash = algo::kFnvOffsetBasis;
  std::vector<graph::FacilityId> ids;  ///< report order
  std::vector<double> scores;          ///< top-k / incremental only
  expand::FetchProvider::Stats fetch;  ///< logical + physical counts
  size_t cached_nodes = 0;             ///< striped runs only
  size_t cached_edges = 0;
};

enum class Algo { kSkyline, kTopK, kIncremental };

const char* AlgoName(Algo a) {
  switch (a) {
    case Algo::kSkyline: return "skyline";
    case Algo::kTopK: return "topk";
    case Algo::kIncremental: return "incremental";
  }
  return "?";
}

Capture RunOne(Algo algo, expand::NnEngine* engine, QueryOptions exec,
               ProbePolicy policy, const AggregateFn& f, int k) {
  Capture c;
  switch (algo) {
    case Algo::kSkyline: {
      SkylineOptions opts;
      opts.probe_policy = policy;
      opts.exec = exec;
      SkylineQuery query(engine, opts);
      auto rows = query.ComputeAll();
      MCN_CHECK(rows.ok());
      c.hash = HashResult(rows.value());
      for (const auto& e : rows.value()) c.ids.push_back(e.facility);
      break;
    }
    case Algo::kTopK: {
      TopKOptions opts;
      opts.k = k;
      opts.probe_policy = policy;
      opts.exec = exec;
      TopKQuery query(engine, f, opts);
      auto rows = query.Run();
      MCN_CHECK(rows.ok());
      c.hash = HashResult(rows.value());
      for (const auto& e : rows.value()) {
        c.ids.push_back(e.facility);
        c.scores.push_back(e.score);
      }
      break;
    }
    case Algo::kIncremental: {
      IncrementalTopK query(engine, f, policy, exec);
      std::vector<TopKEntry> rows;
      for (int i = 0; i < k; ++i) {
        auto next = query.NextBest();
        MCN_CHECK(next.ok());
        if (!next.value().has_value()) break;
        rows.push_back(*next.value());
      }
      c.hash = HashResult(rows);
      for (const auto& e : rows) {
        c.ids.push_back(e.facility);
        c.scores.push_back(e.score);
      }
      break;
    }
  }
  c.fetch = engine->fetch().stats();
  return c;
}

class DifferentialSweepTest : public ::testing::Test {};

TEST(DifferentialSweepTest, SerialAndParallelSchedulesAgree) {
  for (const SweepPoint& p : SweepPoints()) {
    test::SmallConfig config;
    config.num_costs = p.num_costs;
    config.buffer_pct = p.buffer_pct;
    config.seed = p.seed;
    auto instance = test::MakeSmallInstance(config).value();
    const size_t frames = instance->pool_frames;

    // One executor per parallelism level; parallelism 1 builds no pool
    // and runs the identical schedule inline (the serial anchor).
    std::vector<int> levels = {1, 2, 4};
    std::vector<std::unique_ptr<exec::ExpansionExecutor>> executors;
    for (int par : levels) {
      executors.push_back(exec::ExpansionExecutor::Create(
                              &instance->storage, instance->files, par,
                              frames)
                              .value());
    }

    // The executors hold BeginConcurrentReads scopes on the shared disk,
    // so between runs only the pool may be reset (disk counter resets
    // would trip the storage layer's single-writer DCHECK — by design).
    auto reset_pool = [&] { instance->reader->ResetIoState(); };

    Random rng(test::DeriveSeed(p.seed, 77));
    for (int qi = 0; qi < 2; ++qi) {
      graph::Location q = instance->RandomQueryLocation(rng);
      AggregateFn f = WeightedSum(
          test::TestWeights(p.num_costs, test::DeriveSeed(p.seed, 100 + qi)));
      const int k = 2 + static_cast<int>(test::DeriveSeed(p.seed, qi) % 5);

      // naive.h ground truth (full materialization + classic operators).
      reset_pool();
      auto naive_sky = NaiveSkyline(*instance->reader, q).value();
      std::set<graph::FacilityId> naive_sky_ids;
      for (const auto& e : naive_sky) naive_sky_ids.insert(e.facility);
      reset_pool();
      auto naive_topk = NaiveTopK(*instance->reader, q, f, k).value();

      for (ProbePolicy policy :
           {ProbePolicy::kRoundRobin, ProbePolicy::kSmallestFrontier,
            ProbePolicy::kLargestFrontier}) {
        for (Algo algo : {Algo::kSkyline, Algo::kTopK, Algo::kIncremental}) {
          SCOPED_TRACE("d=" + std::to_string(p.num_costs) +
                       " buffer=" + std::to_string(p.buffer_pct) +
                       " q=" + q.ToString() + " policy=" +
                       std::to_string(static_cast<int>(policy)) + " algo=" +
                       AlgoName(algo) + " | " + ReseedHint());
          // Parallelism 0: width-1 turns, the paper's per-probe schedule.
          reset_pool();
          auto serial_engine =
              expand::MakeEngine(expand::EngineKind::kCea,
                                 instance->reader.get(), q)
                  .value();
          Capture serial = RunOne(algo, serial_engine.get(), QueryOptions{},
                                  policy, f, k);

          // Turn schedule at parallelism 1 (inline), 2 and 4 (pooled).
          std::vector<Capture> turns;
          for (size_t li = 0; li < levels.size(); ++li) {
            executors[li]->ResetIoState();
            auto rig = executors[li]->NewQuery(q).value();
            QueryOptions exec;
            exec.parallelism = levels[li];
            exec.scheduler = rig.scheduler.get();
            Capture c = RunOne(algo, rig.engine.get(), exec, policy, f, k);
            c.cached_nodes = rig.engine->striped_fetch()->cached_nodes();
            c.cached_edges = rig.engine->striped_fetch()->cached_edges();
            turns.push_back(c);
          }

          // (1) Thread count must be invisible: byte-identical hashes,
          // identical logical requests, identical physical fetches.
          for (size_t li = 1; li < turns.size(); ++li) {
            EXPECT_EQ(turns[0].hash, turns[li].hash)
                << "parallelism " << levels[li] << " diverged";
            EXPECT_EQ(turns[0].fetch.adjacency_requests,
                      turns[li].fetch.adjacency_requests);
            EXPECT_EQ(turns[0].fetch.facility_requests,
                      turns[li].fetch.facility_requests);
            EXPECT_EQ(turns[0].fetch.adjacency_fetches,
                      turns[li].fetch.adjacency_fetches);
            EXPECT_EQ(turns[0].fetch.facility_fetches,
                      turns[li].fetch.facility_fetches);
          }

          // (2) §IV-B accounting: every physical fetch produced exactly
          // one cached record — fetched at most once per query — and
          // physical never exceeds logical.
          for (size_t li = 0; li < turns.size(); ++li) {
            EXPECT_EQ(turns[li].fetch.adjacency_fetches,
                      turns[li].cached_nodes);
            EXPECT_EQ(turns[li].fetch.facility_fetches,
                      turns[li].cached_edges);
            EXPECT_LE(turns[li].fetch.adjacency_fetches,
                      turns[li].fetch.adjacency_requests);
            EXPECT_LE(turns[li].fetch.facility_fetches,
                      turns[li].fetch.facility_requests);
          }

          if (policy != ProbePolicy::kRoundRobin) {
            // (3) Width-1 turns replay the parallelism-0 run exactly.
            EXPECT_EQ(serial.hash, turns[0].hash);
            EXPECT_EQ(serial.fetch.adjacency_requests,
                      turns[0].fetch.adjacency_requests);
            EXPECT_EQ(serial.fetch.facility_requests,
                      turns[0].fetch.facility_requests);
            EXPECT_EQ(serial.fetch.adjacency_fetches,
                      turns[0].fetch.adjacency_fetches);
            EXPECT_EQ(serial.fetch.facility_fetches,
                      turns[0].fetch.facility_fetches);
            continue;
          }

          // (4) Round-robin: the full-width turn schedule must agree with
          // the parallelism-0 run and the naive ground truth on the
          // results.
          switch (algo) {
            case Algo::kSkyline: {
              std::set<graph::FacilityId> serial_ids(serial.ids.begin(),
                                                     serial.ids.end());
              std::set<graph::FacilityId> turn_ids(turns[0].ids.begin(),
                                                   turns[0].ids.end());
              EXPECT_EQ(serial_ids, naive_sky_ids);
              EXPECT_EQ(turn_ids, naive_sky_ids);
              break;
            }
            case Algo::kTopK:
            case Algo::kIncremental: {
              // Complete cost vectors and deterministic (score, id) order:
              // the entries themselves must be byte-identical.
              EXPECT_EQ(serial.hash, turns[0].hash);
              ASSERT_EQ(turns[0].ids.size(), naive_topk.size());
              for (size_t r = 0; r < naive_topk.size(); ++r) {
                EXPECT_EQ(turns[0].ids[r], naive_topk[r].facility)
                    << "rank " << r;
                EXPECT_NEAR(turns[0].scores[r], naive_topk[r].score, 1e-9)
                    << "rank " << r;
              }
              break;
            }
          }
        }
      }
    }
  }
}

// Shard-count invariance (DESIGN.md §8): the same graph laid out as K in
// {1, 2, 4} shard file sets must produce byte-identical result hashes and
// identical logical/physical record-fetch counts, for all three query
// processors at parallelism 1, 2 and 4, anchored against an executor over
// the instance's own single-disk (K = 1) layout. K only moves pages between
// disks, so any divergence is a routing bug, not a modeling choice.
TEST(DifferentialSweepTest, ShardCountInvariance) {
  const uint64_t base = test::AnnounceSeed("differential_sweep_test");
  for (int d : {2, 4}) {
    test::SmallConfig config;
    config.num_costs = d;
    config.buffer_pct = 0.5;
    config.seed = test::DeriveSeed(base, 900 + static_cast<uint64_t>(d));
    auto instance = test::MakeSmallInstance(config).value();
    const size_t frames = instance->pool_frames;

    // The same graph + facilities laid out at every shard count.
    const std::vector<int> shard_counts = {1, 2, 4};
    std::vector<std::unique_ptr<shard::ShardedStorage>> storages;
    std::vector<shard::ShardedNetworkFiles> sharded_files;
    shard::GridTilePartitioner partitioner;
    for (int k : shard_counts) {
      auto part = partitioner.Build(instance->graph, k).value();
      storages.push_back(
          std::make_unique<shard::ShardedStorage>(std::move(part)));
      sharded_files.push_back(
          shard::BuildShardedNetwork(storages.back().get(), instance->graph,
                                     instance->facilities)
              .value());
      // K = 1 reproduces the reference page layout exactly; K > 1 may pay
      // a few pages of per-shard fragmentation (partial trailing pages)
      // but never loses any.
      if (k == 1) {
        ASSERT_EQ(sharded_files.back().total_pages,
                  instance->files.total_pages);
      } else {
        ASSERT_GE(sharded_files.back().total_pages,
                  instance->files.total_pages);
      }
    }

    Random rng(test::DeriveSeed(config.seed, 5));
    for (int qi = 0; qi < 2; ++qi) {
      graph::Location q = instance->RandomQueryLocation(rng);
      const shard::ShardId home_of_q =
          q.is_node()
              ? storages.back()->partition().of_node(q.node())
              : storages.back()->partition().of_edge(q.edge());
      AggregateFn f = WeightedSum(
          test::TestWeights(d, test::DeriveSeed(config.seed, 300 + qi)));
      const int k = 2 + static_cast<int>(test::DeriveSeed(config.seed, qi) % 5);

      for (int par : {1, 2, 4}) {
        auto reference_exec =
            exec::ExpansionExecutor::Create(&instance->storage,
                                            instance->files, par, frames)
                .value();
        for (Algo algo : {Algo::kSkyline, Algo::kTopK, Algo::kIncremental}) {
          SCOPED_TRACE("d=" + std::to_string(d) + " q=" + q.ToString() +
                       " par=" + std::to_string(par) + " algo=" +
                       AlgoName(algo) + " | " + ReseedHint());
          reference_exec->ResetIoState();
          auto reference_rig = reference_exec->NewQuery(q).value();
          QueryOptions exec_opts;
          exec_opts.parallelism = par;
          exec_opts.scheduler = reference_rig.scheduler.get();
          Capture reference =
              RunOne(algo, reference_rig.engine.get(), exec_opts,
                     ProbePolicy::kRoundRobin, f, k);

          for (size_t ki = 0; ki < shard_counts.size(); ++ki) {
            auto sharded_exec = exec::ExpansionExecutor::Create(
                                    storages[ki].get(), sharded_files[ki],
                                    par, frames)
                                    .value();
            // Affinity: bind the slots to the query's home shard so the
            // local/remote split is meaningful below.
            sharded_exec->SetHomeShard(
                ki == shard_counts.size() - 1
                    ? home_of_q
                    : (q.is_node()
                           ? storages[ki]->partition().of_node(q.node())
                           : storages[ki]->partition().of_edge(q.edge())));
            auto rig = sharded_exec->NewQuery(q).value();
            QueryOptions sharded_opts;
            sharded_opts.parallelism = par;
            sharded_opts.scheduler = rig.scheduler.get();
            Capture got = RunOne(algo, rig.engine.get(), sharded_opts,
                                 ProbePolicy::kRoundRobin, f, k);

            // The determinism contract: K is invisible to results and to
            // the record-level I/O accounting.
            EXPECT_EQ(reference.hash, got.hash)
                << "K=" << shard_counts[ki] << " diverged";
            EXPECT_EQ(reference.fetch.adjacency_requests,
                      got.fetch.adjacency_requests);
            EXPECT_EQ(reference.fetch.facility_requests,
                      got.fetch.facility_requests);
            EXPECT_EQ(reference.fetch.adjacency_fetches,
                      got.fetch.adjacency_fetches);
            EXPECT_EQ(reference.fetch.facility_fetches,
                      got.fetch.facility_fetches);
            EXPECT_EQ(reference.ids, got.ids) << "K=" << shard_counts[ki];

            // Remote accounting: a single shard has no boundaries to
            // cross; with more shards every routed fetch lands somewhere
            // and the per-shard page reads sum to the merged total.
            const auto io = sharded_exec->ShardIoStats();
            EXPECT_GE(io.total(), got.fetch.adjacency_fetches +
                                      got.fetch.facility_fetches);
            if (shard_counts[ki] == 1) {
              EXPECT_EQ(io.remote_fetches, 0u);
            }
            uint64_t routed = 0;
            for (uint64_t n : io.fetches_to_shard) routed += n;
            EXPECT_EQ(routed, io.total());

            const auto merged = storages[ki]->MergedStats();
            uint64_t by_file = 0;
            for (const auto& fr : merged.per_file_reads) {
              by_file += fr.reads;
            }
            EXPECT_EQ(by_file, merged.page_reads);
          }
        }
      }
    }
  }
}

// Prune-index on/off parity (DESIGN.md §12): with the landmark oracle
// installed, every spec kind under every probe policy must return
// byte-identical results — and the I/O accounting must be "net of pruned
// probes": each pruned pop is an adjacency request the off run issued, and
// the on run's requests are a subset of the off run's (pruned subtrees
// vanish wholesale, hence <=, not ==). The oracle is armed only on serial
// round-robin skyline runs; every other leg — other policies, other
// processors, and the turn schedule — must keep the index literally
// invisible: zero prunes and identical request counts, not just identical
// results.
TEST(DifferentialSweepTest, PruneIndexOnOffParity) {
  const uint64_t base = test::AnnounceSeed("differential_sweep_test");
  uint64_t total_cut = 0;

  auto nodes_pruned = [](expand::NnEngine* engine) {
    uint64_t pruned = 0;
    for (int i = 0; i < engine->fetch().num_costs(); ++i) {
      pruned += engine->expansion(i).stats().nodes_pruned;
    }
    return pruned;
  };

  for (int d : {2, 3, 4}) {
    gen::ExperimentConfig config;
    config.nodes = 500;
    config.edges = 700;
    config.facilities = 48;
    config.clusters = 4;
    config.num_costs = d;
    config.buffer_pct = 1.0;
    config.seed = test::DeriveSeed(base, 700 + static_cast<uint64_t>(d));
    config.landmarks = 8;
    auto instance =
        gen::BuildShardedInstance(config, /*num_shards=*/1).value();
    ASSERT_TRUE(instance->files.landmark.present());
    net::LandmarkIndexReader* index = instance->landmark_reader.get();

    Random rng(test::DeriveSeed(config.seed, 7));
    for (int qi = 0; qi < 2; ++qi) {
      graph::Location q = instance->RandomQueryLocation(rng);
      AggregateFn f = WeightedSum(
          test::TestWeights(d, test::DeriveSeed(config.seed, 500 + qi)));
      const int k =
          2 + static_cast<int>(test::DeriveSeed(config.seed, qi) % 5);

      for (ProbePolicy policy :
           {ProbePolicy::kRoundRobin, ProbePolicy::kSmallestFrontier,
            ProbePolicy::kLargestFrontier}) {
        for (Algo algo : {Algo::kSkyline, Algo::kTopK, Algo::kIncremental}) {
          SCOPED_TRACE("d=" + std::to_string(d) + " q=" + q.ToString() +
                       " policy=" + std::to_string(static_cast<int>(policy)) +
                       " algo=" + AlgoName(algo) + " | " + ReseedHint());
          instance->ResetIoState();
          auto engine_off =
              expand::MakeEngine(expand::EngineKind::kCea,
                                 instance->reader.get(), q)
                  .value();
          Capture off = RunOne(algo, engine_off.get(), QueryOptions{},
                               policy, f, k);
          ASSERT_EQ(nodes_pruned(engine_off.get()), 0u);

          instance->ResetIoState();
          auto engine_on =
              expand::MakeEngine(expand::EngineKind::kCea,
                                 instance->reader.get(), q)
                  .value();
          QueryOptions with_index;
          with_index.landmark_index = index;
          Capture on = RunOne(algo, engine_on.get(), with_index, policy, f, k);
          const uint64_t pruned = nodes_pruned(engine_on.get());

          // Exactness: the oracle may only skip probes, never change
          // results — the full entry set, order and scores included.
          EXPECT_EQ(off.hash, on.hash);
          EXPECT_EQ(off.ids, on.ids);
          EXPECT_EQ(off.scores, on.scores);

          const bool armed =
              algo == Algo::kSkyline && policy == ProbePolicy::kRoundRobin;
          if (armed) {
            // Net-of-pruned-probes accounting: every pruned pop is a pop
            // the off run probed, and pruned subtrees also vanish.
            EXPECT_LE(on.fetch.adjacency_requests + pruned,
                      off.fetch.adjacency_requests);
            EXPECT_LE(on.fetch.facility_requests,
                      off.fetch.facility_requests);
            total_cut += pruned;
          } else {
            // Dormant legs: the index must be invisible to the schedule,
            // not merely harmless to the results.
            EXPECT_EQ(pruned, 0u);
            EXPECT_EQ(on.fetch.adjacency_requests,
                      off.fetch.adjacency_requests);
            EXPECT_EQ(on.fetch.facility_requests,
                      off.fetch.facility_requests);
          }
        }
      }

      // The turn schedule ignores the oracle by design (it would change
      // the deterministic event order): parallelism 1 with the index on
      // must replay the index-off turn schedule byte for byte.
      {
        SCOPED_TRACE("turn-mode d=" + std::to_string(d) + " q=" +
                     q.ToString() + " | " + ReseedHint());
        auto executor = exec::ExpansionExecutor::Create(
                            &instance->storage, instance->files,
                            /*parallelism=*/1, instance->pool_frames)
                            .value();
        std::vector<Capture> runs;
        for (net::LandmarkIndexReader* idx :
             {static_cast<net::LandmarkIndexReader*>(nullptr), index}) {
          executor->ResetIoState();
          auto rig = executor->NewQuery(q).value();
          QueryOptions exec_opts;
          exec_opts.parallelism = 1;
          exec_opts.scheduler = rig.scheduler.get();
          exec_opts.landmark_index = idx;
          runs.push_back(RunOne(Algo::kSkyline, rig.engine.get(), exec_opts,
                                ProbePolicy::kRoundRobin, f, k));
          EXPECT_EQ(nodes_pruned(rig.engine.get()), 0u);
        }
        EXPECT_EQ(runs[0].hash, runs[1].hash);
        EXPECT_EQ(runs[0].ids, runs[1].ids);
        EXPECT_EQ(runs[0].fetch.adjacency_requests,
                  runs[1].fetch.adjacency_requests);
        EXPECT_EQ(runs[0].fetch.facility_requests,
                  runs[1].fetch.facility_requests);
      }
    }
  }
  // The sweep as a whole must exercise the prune path for real.
  EXPECT_GT(total_cut, 0u);
}

}  // namespace
}  // namespace mcn::algo
