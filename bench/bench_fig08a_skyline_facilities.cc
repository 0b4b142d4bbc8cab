// Figure 8(a): skyline processing time vs |P| (25K..200K at paper scale),
// d=4, anti-correlated costs, 1% buffer. Expected shape: both algorithms
// get slower as the facility set gets sparser; CEA >~2.3x faster than LSA.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;  // paper defaults
  bench::PrintHeader("Figure 8(a): skyline, time vs |P|", "|P|",
                     base.Scaled(env.scale), env);

  for (uint32_t facilities : {25000u, 50000u, 100000u, 150000u, 200000u}) {
    gen::ExperimentConfig config = base;
    config.facilities = facilities;
    config = config.Scaled(env.scale);
    auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
    if (!instance.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    auto comparison = bench::CompareLsaCea(**instance, env, 4242,
                                           bench::SkylineRunner());
    bench::PrintRow(std::to_string(config.facilities), comparison);
  }
  bench::PrintFooter();
  return 0;
}
