// Figure 9(b): skyline processing time vs LRU buffer size (0%..2% of the
// MCN pages), defaults otherwise. Expected shape: both algorithms improve
// with buffer, LSA more (its repeated reads become hits); the CEA/LSA gap
// is largest at 0% and smallest at 2%.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace mcn;
  bench::BenchEnv env = bench::BenchEnv::FromEnvironment();
  gen::ExperimentConfig base;
  bench::PrintHeader("Figure 9(b): skyline, time vs buffer size",
                     "buffer %", base.Scaled(env.scale), env);

  gen::ExperimentConfig config = base.Scaled(env.scale);
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1);
  if (!instance.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  for (double pct : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    (*instance)->reader->shard_pool(0)->SetCapacity(
        gen::BufferFrames(pct, (*instance)->files.total_pages));
    auto comparison = bench::CompareLsaCea(**instance, env, 4242,
        bench::SkylineRunner());
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f%%", pct);
    bench::PrintRow(label, comparison);
  }
  bench::PrintFooter();
  return 0;
}
