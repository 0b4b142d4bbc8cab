// The paper's university-housing scenario (§I): choose a residential block
// for students and instructors who commute on foot or by car. Closeness is
// a per-mode notion (walking vs driving time differ because of one-way and
// pedestrian-only streets), so the selection is an MCN preference query
// with d=2 cost types. With the walking/driving split known (70%/30%), a
// top-k query ranks blocks; when the committee keeps asking "and the next
// one?", the incremental variant answers without recomputation.
//
//   ./examples/housing_commute
#include <cstdio>

#include "mcn/mcn.h"

int main() {
  using namespace mcn;

  // cost 0 = walking minutes, cost 1 = driving minutes. Independent
  // fields: pedestrian shortcuts and fast roads do not coincide.
  gen::ExperimentConfig config;
  config.nodes = 5000;
  config.edges = 6373;
  config.facilities = 250;  // available residential blocks
  config.clusters = 4;
  config.num_costs = 2;
  config.distribution = gen::CostDistribution::kIndependent;
  config.seed = 2210;
  auto instance = gen::BuildShardedInstance(config, /*num_shards=*/1).value();

  Random rng(11);
  graph::Location university = instance->RandomQueryLocation(rng);
  std::printf("university at %s; %zu candidate blocks\n\n",
              university.ToString().c_str(), instance->facilities.size());

  // --- Which blocks are defensible at all? ------------------------------
  auto sky_engine =
      expand::CeaEngine::Create(instance->reader.get(), university).value();
  algo::SkylineQuery skyline(sky_engine.get());
  auto defensible = skyline.ComputeAll().value();
  std::printf("%zu blocks on the walk/drive skyline (no other block is\n"
              "closer for both commuting modes)\n\n",
              defensible.size());

  // --- Rank with the 70/30 mode split -----------------------------------
  algo::AggregateFn f = algo::WeightedSum({0.7, 0.3});
  auto inc_engine =
      expand::CeaEngine::Create(instance->reader.get(), university).value();
  algo::IncrementalTopK ranking(inc_engine.get(), f);

  std::printf("committee session (f = 0.7*walk + 0.3*drive):\n");
  for (int rank = 1; rank <= 5; ++rank) {
    auto next = ranking.NextBest().value();
    if (!next.has_value()) break;
    std::printf("  \"next best?\"  -> block %-6u score=%6.2f "
                "(walk %.1f min, drive %.1f min)\n",
                next->facility, next->score, next->costs[0],
                next->costs[1]);
  }
  std::printf("\n...three more, without recomputing from scratch:\n");
  for (int rank = 6; rank <= 8; ++rank) {
    auto next = ranking.NextBest().value();
    if (!next.has_value()) break;
    std::printf("  #%d block %-6u score=%6.2f\n", rank, next->facility,
                next->score);
  }
  std::printf("\nexpansion statistics: %llu facility pops, %llu reported\n",
              static_cast<unsigned long long>(ranking.stats().nn_pops),
              static_cast<unsigned long long>(ranking.stats().reported));

  // Cross-check the first answer against the one-shot top-1 query.
  auto k_engine =
      expand::CeaEngine::Create(instance->reader.get(), university).value();
  algo::TopKOptions opts;
  opts.k = 1;
  algo::TopKQuery top1(k_engine.get(), f, opts);
  auto one = top1.Run().value();
  std::printf("one-shot top-1 agrees: block %u, score %.2f\n",
              one[0].facility, one[0].score);
  return 0;
}
