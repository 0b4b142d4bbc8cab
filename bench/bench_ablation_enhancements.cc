// Ablation: the three §IV-A enhancements of the skyline algorithms,
// toggled one at a time on CEA (all results stay identical; only cost
// changes): direct first-NN reporting, the shrinking-stage facility
// filter, and per-cost expansion early stop.
#include <cstdio>

#include "harness.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/stopwatch.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig config;
  config = config.Scaled(env.scale);
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
  if (!instance.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }

  std::printf("== Ablation: skyline enhancements (CEA) ==\n");
  std::printf("config: %s; %d queries\n", config.ToString().c_str(),
              env.queries);
  std::printf("%-28s | %12s | %10s | %10s\n", "variant", "time(s)", "IOs",
              "NN pops");

  struct Case {
    const char* name;
    bool first_nn;
    bool filter;
    bool stop;
  };
  for (const Case& c : {Case{"all enhancements", true, true, true},
                        Case{"no first-NN report", false, true, true},
                        Case{"no facility filter", true, false, true},
                        Case{"no expansion early-stop", true, true, false},
                        Case{"none (base algorithm)", false, false, false}}) {
    Random rng(1371);
    double modeled = 0;
    uint64_t misses_total = 0, pops = 0;
    for (int qi = 0; qi < env.queries; ++qi) {
      graph::Location q = (*instance)->RandomQueryLocation(rng);
      (*instance)->ResetIoState();
      Stopwatch watch;
      auto engine =
          expand::CeaEngine::Create((*instance)->reader.get(), q);
      MCN_CHECK(engine.ok());
      algo::SkylineOptions opts;
      opts.report_first_nn = c.first_nn;
      opts.use_facility_filter = c.filter;
      opts.stop_finished_expansions = c.stop;
      algo::SkylineQuery query(engine.value().get(), opts);
      MCN_CHECK(query.ComputeAll().ok());
      uint64_t misses = (*instance)->reader->PoolStats().misses;
      modeled += watch.ElapsedSeconds() + misses * env.io_latency_ms / 1e3;
      misses_total += misses;
      pops += query.stats().nn_pops;
    }
    std::printf("%-28s | %12.4f | %10.1f | %10.1f\n", c.name,
                modeled / env.queries,
                static_cast<double>(misses_total) / env.queries,
                static_cast<double>(pops) / env.queries);
  }
  std::printf("\n");
  return 0;
}
