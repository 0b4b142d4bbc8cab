// The strawman baseline of §IV's introduction — d complete network
// expansions + a conventional skyline — against LSA and CEA. Run at a
// smaller default scale than the figures: the baseline reads the whole
// MCN d times per query ("prohibitively long running time").
#include <cstdio>
#include <cstdlib>

#include "harness.h"
#include "mcn/algo/naive.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/stopwatch.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  env.scale = std::min(env.scale, 0.02);  // the baseline is slow by design
  env.queries = std::min(env.queries, 8);
  gen::ExperimentConfig config;
  config = config.Scaled(env.scale);
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
  if (!instance.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }

  std::printf("== Baseline: naive d-full-expansions vs LSA vs CEA "
              "(skyline) ==\n");
  std::printf("config: %s; %d queries\n", config.ToString().c_str(),
              env.queries);
  std::printf("%-10s | %12s | %12s\n", "algorithm", "time(s)", "IOs");

  Random rng(777);
  std::vector<graph::Location> queries;
  for (int qi = 0; qi < env.queries; ++qi) {
    queries.push_back((*instance)->RandomQueryLocation(rng));
  }

  // Naive.
  {
    double modeled = 0;
    uint64_t misses_total = 0;
    for (const auto& q : queries) {
      (*instance)->ResetIoState();
      Stopwatch watch;
      MCN_CHECK(algo::NaiveSkyline(*(*instance)->reader, q).ok());
      uint64_t misses = (*instance)->reader->PoolStats().misses;
      modeled += watch.ElapsedSeconds() + misses * env.io_latency_ms / 1e3;
      misses_total += misses;
    }
    std::printf("%-10s | %12.4f | %12.1f\n", "naive",
                modeled / queries.size(),
                static_cast<double>(misses_total) / queries.size());
  }
  // LSA / CEA.
  for (auto kind : {expand::EngineKind::kLsa, expand::EngineKind::kCea}) {
    double modeled = 0;
    uint64_t misses_total = 0;
    for (const auto& q : queries) {
      (*instance)->ResetIoState();
      Stopwatch watch;
      auto engine = expand::MakeEngine(kind, (*instance)->reader.get(), q);
      MCN_CHECK(engine.ok());
      algo::SkylineQuery query(engine.value().get());
      MCN_CHECK(query.ComputeAll().ok());
      uint64_t misses = (*instance)->reader->PoolStats().misses;
      modeled += watch.ElapsedSeconds() + misses * env.io_latency_ms / 1e3;
      misses_total += misses;
    }
    std::printf("%-10s | %12.4f | %12.1f\n",
                kind == expand::EngineKind::kLsa ? "LSA" : "CEA",
                modeled / queries.size(),
                static_cast<double>(misses_total) / queries.size());
  }
  std::printf("\n");
  return 0;
}
