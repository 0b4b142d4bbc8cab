// Figure 10(b): top-k processing time vs the number of cost types d (2..5),
// k=4, defaults otherwise. Expected shape: time grows with d; the CEA/LSA
// gap widens with d.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;
  bench::PrintHeader("Figure 10(b): top-k, time vs d (k=4)", "d",
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
    auto comparison =
        bench::CompareLsaCea(**instance, env, 4242,
                             bench::TopKRunner(4, d));
    bench::PrintRow(std::to_string(d), comparison);
  }
  bench::PrintFooter();
  return 0;
}
