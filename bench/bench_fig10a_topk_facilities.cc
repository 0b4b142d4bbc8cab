// Figure 10(a): top-k processing time vs |P| (k=4, d=4, anti-correlated,
// 1% buffer; aggregate = weighted sum with per-query random coefficients).
// Expected shape: slower at small |P|; CEA 2.1-3.4x faster; top-4 slightly
// cheaper than the skyline on the same configuration.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;
  bench::PrintHeader("Figure 10(a): top-k, time vs |P| (k=4)", "|P|",
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
        bench::TopKRunner(4, config.num_costs));
    bench::PrintRow(std::to_string(config.facilities), comparison);
  }
  bench::PrintFooter();
  return 0;
}
