// Figure 8(b): skyline processing time vs the number of cost types d
// (2..5), |P|=100K at paper scale, anti-correlated, 1% buffer. Expected
// shape: time grows with d; the CEA/LSA gap widens with d (LSA re-reads
// records up to d times).
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;
  bench::PrintHeader("Figure 8(b): skyline, time vs d", "d",
                     base.Scaled(env.scale), env);

  for (int d : {2, 3, 4, 5}) {
    gen::ExperimentConfig config = base;
    config.num_costs = d;
    config = config.Scaled(env.scale);
    auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
    if (!instance.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    auto comparison = bench::CompareLsaCea(**instance, env, 4242,
                                           bench::SkylineRunner());
    bench::PrintRow(std::to_string(d), comparison);
  }
  bench::PrintFooter();
  return 0;
}
