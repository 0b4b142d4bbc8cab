// Figure 11(a): top-k processing time vs the edge-cost distribution,
// k=4, defaults otherwise. Expected shape: anti-correlated slowest,
// correlated fastest; CEA ~3x faster throughout.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;
  bench::PrintHeader("Figure 11(a): top-k, time vs cost distribution (k=4)",
                     "distribution", base.Scaled(env.scale), env);

  for (auto dist : {gen::CostDistribution::kAntiCorrelated,
                    gen::CostDistribution::kIndependent,
                    gen::CostDistribution::kCorrelated}) {
    gen::ExperimentConfig config = base;
    config.distribution = dist;
    config = config.Scaled(env.scale);
    auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
    if (!instance.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    auto comparison = bench::CompareLsaCea(**instance, env, 4242,
        bench::TopKRunner(4, config.num_costs));
    bench::PrintRow(std::string(gen::ToString(dist)), comparison);
  }
  bench::PrintFooter();
  return 0;
}
