// Landmark prune-index benchmark (DESIGN.md §12).
//
// Builds the fig. 8(a) base configuration once, with a landmark lower-bound
// index alongside the network files, and runs an identical fixed set of
// skyline queries twice per engine flavor: index off (the oracle never
// consulted) and index on (frontier pops dominance-pruned before their
// adjacency probe fetches a page). Both rows report honest I/O: the on-row's
// buffer misses include the index reader's own dedicated pool, so the win
// is net of the pages the oracle itself reads.
//
// Output: one figure with rows "off" and "on" (both engine flavors), plus
// the measured miss-cut ratio off/on per engine. The run aborts if
//   * any query's result hash differs between the off and on runs (the
//     exactness contract: pruning may only skip probes, never change
//     results), or
//   * the CEA miss-cut ratio falls below MCN_PRUNE_MIN_MISS_CUT
//     (default 2.0; 0 disables — CI smoke runs at tiny scale, where the
//     graph is too small for the index to pay for its own reads).
//
// Extra environment knobs (on top of the harness ones):
//   MCN_PRUNE_LANDMARKS     landmarks L in the index    (default 64)
//   MCN_PRUNE_MIN_MISS_CUT  abort threshold, 0 disables (default 2.0)
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/common/stopwatch.h"
#include "mcn/gen/workload.h"
#include "mcn/net/landmark_index.h"

namespace mcn::bench {
namespace {

struct SweepRun {
  RunMetrics metrics;
  std::vector<uint64_t> hashes;  ///< per-query, for off/on parity
  uint64_t index_misses = 0;     ///< the index pool's share of the misses
  uint64_t index_accesses = 0;   ///< index pool hits + misses
  uint64_t prune_checked = 0;
  uint64_t prune_cut = 0;
};

SweepRun RunSkylineSweep(gen::ShardedInstance& instance,
                         expand::EngineKind kind,
                         const std::vector<graph::Location>& locations,
                         net::LandmarkIndexReader* index,
                         const BenchEnv& env) {
  SweepRun run;
  run.metrics.queries = static_cast<int>(locations.size());
  for (const graph::Location& loc : locations) {
    instance.ResetIoState();  // cold caches, index pool included
    Stopwatch watch;
    auto engine = expand::MakeEngine(kind, instance.reader.get(), loc);
    MCN_CHECK(engine.ok());
    algo::SkylineOptions opts;
    opts.exec.landmark_index = index;
    algo::SkylineQuery query(engine.value().get(), opts);
    auto rows = query.ComputeAll();
    MCN_CHECK(rows.ok());
    run.metrics.cpu_seconds += watch.ElapsedSeconds();
    run.prune_checked += query.stats().prune_checked;
    run.prune_cut += query.stats().prune_cut;

    const uint64_t hash = algo::HashResult(rows.value());
    run.hashes.push_back(hash);
    run.metrics.result_hash = algo::FnvMixU64(run.metrics.result_hash, hash);
    run.metrics.result_size += static_cast<double>(rows.value().size());

    // Honest accounting: the index reader's dedicated pool counts against
    // the on-run — the prune win must be net of the oracle's own reads.
    storage::BufferPool::Stats io = instance.reader->PoolStats();
    if (index != nullptr) {
      const storage::BufferPool::Stats lm = index->pool().stats();
      io.hits += lm.hits;
      io.misses += lm.misses;
      run.index_misses += lm.misses;
      run.index_accesses += lm.hits + lm.misses;
    }
    run.metrics.buffer_misses += io.misses;
    run.metrics.buffer_accesses += io.hits + io.misses;
  }
  run.metrics.modeled_seconds =
      run.metrics.cpu_seconds +
      static_cast<double>(run.metrics.buffer_misses) * env.io_latency_ms /
          1000.0;
  run.metrics.result_size /= static_cast<double>(locations.size());
  return run;
}

double MissCut(const RunMetrics& off, const RunMetrics& on) {
  return on.buffer_misses > 0 ? static_cast<double>(off.buffer_misses) /
                                    static_cast<double>(on.buffer_misses)
                              : 0.0;
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const uint32_t landmarks =
      static_cast<uint32_t>(EnvDouble("MCN_PRUNE_LANDMARKS", 64));
  const double min_cut = EnvDouble("MCN_PRUNE_MIN_MISS_CUT", 2.0);
  MCN_CHECK(landmarks > 0);

  gen::ExperimentConfig config;  // fig. 8(a) base: the paper's defaults
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  scaled.landmarks = landmarks;
  std::printf("building indexed instance (%s)...\n",
              scaled.ToString().c_str());
  auto instance = gen::BuildShardedInstance(scaled, /*num_shards=*/1);
  MCN_CHECK(instance.ok());
  MCN_CHECK((*instance)->landmark_reader != nullptr);

  Random rng(2027);
  std::vector<graph::Location> locations;
  locations.reserve(env.queries);
  for (int i = 0; i < env.queries; ++i) {
    locations.push_back((*instance)->RandomQueryLocation(rng));
  }

  PrintHeader("Prune index: skyline I/O, index off vs on (fig. 8(a) base)",
              "index", scaled, env);
  std::printf("landmarks=%u min_miss_cut=%.2f (MCN_PRUNE_LANDMARKS / "
              "MCN_PRUNE_MIN_MISS_CUT)\n",
              landmarks, min_cut);

  SweepRun runs[2][2];  // [engine][off=0 / on=1]
  const expand::EngineKind kinds[2] = {expand::EngineKind::kLsa,
                                       expand::EngineKind::kCea};
  const char* kind_names[2] = {"LSA", "CEA"};
  for (int e = 0; e < 2; ++e) {
    runs[e][0] = RunSkylineSweep(**instance, kinds[e], locations,
                                 /*index=*/nullptr, env);
    runs[e][1] = RunSkylineSweep(**instance, kinds[e], locations,
                                 (*instance)->landmark_reader.get(), env);
    for (size_t i = 0; i < locations.size(); ++i) {
      if (runs[e][0].hashes[i] != runs[e][1].hashes[i]) {
        std::fprintf(stderr,
                     "PARITY FAILURE: %s query %zu hash %016" PRIx64
                     " (off) != %016" PRIx64 " (on)\n",
                     kind_names[e], i, runs[e][0].hashes[i],
                     runs[e][1].hashes[i]);
        std::abort();
      }
    }
  }

  for (int side = 0; side < 2; ++side) {
    AlgoComparison c;
    c.lsa = runs[0][side].metrics;
    c.cea = runs[1][side].metrics;
    PrintRow(side == 0 ? "off" : "on", c);
  }
  PrintFooter();

  std::printf("result hashes: identical off vs on for both engines.\n");
  const double cut_lsa = MissCut(runs[0][0].metrics, runs[0][1].metrics);
  const double cut_cea = MissCut(runs[1][0].metrics, runs[1][1].metrics);
  std::printf("miss cut (off/on): LSA %.2fx  CEA %.2fx  (on-side index-pool "
              "share: LSA %" PRIu64 "/%" PRIu64 "  CEA %" PRIu64 "/%" PRIu64
              ")\n",
              cut_lsa, cut_cea, runs[0][1].index_misses,
              runs[0][1].metrics.buffer_misses, runs[1][1].index_misses,
              runs[1][1].metrics.buffer_misses);
  std::printf("oracle (CEA, totals): checked %" PRIu64 "  cut %" PRIu64
              "  index row loads %" PRIu64 "\n",
              runs[1][1].prune_checked, runs[1][1].prune_cut,
              runs[1][1].index_accesses);
  if (min_cut > 0 && cut_cea < min_cut) {
    std::fprintf(stderr,
                 "FAILURE: CEA miss cut %.2fx below %.2fx "
                 "(MCN_PRUNE_MIN_MISS_CUT)\n",
                 cut_cea, min_cut);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
