// Ablation: expansion probing policy (paper §IV-A discussion, Fig. 4).
// Round-robin (the paper's choice) vs smallest-frontier-first vs
// largest-frontier-first, on CEA skylines. Expected: round-robin pins the
// first facility early; the frontier-driven policies let one cheap cost
// type monopolize probing and blow up the candidate set.
#include <cstdio>

#include "harness.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/stopwatch.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig config;  // paper defaults
  config = config.Scaled(env.scale);
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
  if (!instance.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }

  std::printf("== Ablation: probing policy (CEA skyline) ==\n");
  std::printf("config: %s; %d queries\n", config.ToString().c_str(),
              env.queries);
  std::printf("%-18s | %12s | %10s | %12s | %10s\n", "policy", "time(s)",
              "IOs", "cand. peak", "NN pops");

  struct Case {
    const char* name;
    algo::ProbePolicy policy;
  };
  for (const Case& c :
       {Case{"round-robin", algo::ProbePolicy::kRoundRobin},
        Case{"smallest-first", algo::ProbePolicy::kSmallestFrontier},
        Case{"largest-first", algo::ProbePolicy::kLargestFrontier}}) {
    Random rng(991);
    double modeled = 0;
    uint64_t misses_total = 0, cand_peak = 0, pops = 0;
    for (int qi = 0; qi < env.queries; ++qi) {
      graph::Location q = (*instance)->RandomQueryLocation(rng);
      (*instance)->ResetIoState();
      Stopwatch watch;
      auto engine =
          expand::CeaEngine::Create((*instance)->reader.get(), q);
      MCN_CHECK(engine.ok());
      algo::SkylineOptions opts;
      opts.probe_policy = c.policy;
      algo::SkylineQuery query(engine.value().get(), opts);
      MCN_CHECK(query.ComputeAll().ok());
      uint64_t misses = (*instance)->reader->PoolStats().misses;
      modeled += watch.ElapsedSeconds() + misses * env.io_latency_ms / 1e3;
      misses_total += misses;
      cand_peak = std::max(cand_peak, query.stats().candidates_peak);
      pops += query.stats().nn_pops;
    }
    std::printf("%-18s | %12.4f | %10.1f | %12llu | %10.1f\n", c.name,
                modeled / env.queries,
                static_cast<double>(misses_total) / env.queries,
                static_cast<unsigned long long>(cand_peak),
                static_cast<double>(pops) / env.queries);
  }
  std::printf("\n");
  return 0;
}
