// Figure 12: top-k processing time vs k (1..16), defaults otherwise.
// Expected shape: time grows with k (more pins, broader expansion); LSA's
// multiple-read penalty grows with k, up to ~3.4x slower than CEA.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;
  bench::PrintHeader("Figure 12: top-k, time vs k", "k",
                     base.Scaled(env.scale), env);

  gen::ExperimentConfig config = base.Scaled(env.scale);
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
  if (!instance.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  for (int k : {1, 2, 4, 8, 16}) {
    auto comparison = bench::CompareLsaCea(**instance, env, 4242, bench::TopKRunner(k, config.num_costs));
    bench::PrintRow(std::to_string(k), comparison);
  }
  bench::PrintFooter();
  return 0;
}
