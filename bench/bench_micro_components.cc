// google-benchmark microbenchmarks for the substrate components: buffer
// pool, B+-tree, slotted pages, Dijkstra/expansion, the sort-filter
// skyline operator, and MCPP — plus before/after pairs for the flattened
// hot-path structures (d-ary heap vs std::priority_queue, dense candidate
// store vs unordered_map, flat fetch-cache maps vs unordered_map).
#include <benchmark/benchmark.h>

#include <queue>
#include <unordered_map>

#include "mcn/algo/candidate_store.h"
#include "mcn/algo/common.h"
#include "mcn/common/flat_u64_map.h"
#include "mcn/common/random.h"
#include "mcn/expand/dary_heap.h"
#include "mcn/expand/dijkstra.h"
#include "mcn/gen/cost_generator.h"
#include "mcn/gen/facility_generator.h"
#include "mcn/gen/road_network_generator.h"
#include "mcn/index/bplus_tree.h"
#include "mcn/mcpp/pareto_paths.h"
#include "mcn/skyline/skyline.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/slotted_page.h"

namespace mcn {
namespace {

void BM_BufferPoolHit(benchmark::State& state) {
  storage::DiskManager disk;
  storage::FileId f = disk.CreateFile("f");
  disk.AllocatePage(f).value();
  storage::BufferPool pool(&disk, 4);
  for (auto _ : state) {
    auto guard = pool.Fetch({f, 0});
    benchmark::DoNotOptimize(guard.value().data());
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  storage::DiskManager disk;
  storage::FileId f = disk.CreateFile("f");
  for (int i = 0; i < 64; ++i) disk.AllocatePage(f).value();
  storage::BufferPool pool(&disk, 8);
  uint32_t p = 0;
  for (auto _ : state) {
    auto guard = pool.Fetch({f, p});
    benchmark::DoNotOptimize(guard.value().data());
    p = (p + 9) % 64;  // stride > capacity: always miss
  }
}
BENCHMARK(BM_BufferPoolMissEvict);

void BM_BPlusTreeLookup(benchmark::State& state) {
  storage::DiskManager disk;
  storage::FileId f = disk.CreateFile("tree");
  std::vector<index::BPlusTree::Entry> entries;
  int64_t n = state.range(0);
  for (int64_t k = 0; k < n; ++k) entries.push_back({uint64_t(k), k * 2ull});
  auto tree = index::BPlusTree::BulkLoad(&disk, f, entries).value();
  storage::BufferPool pool(&disk, 4096);
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(pool, rng.Uniform(uint64_t(n))).value());
  }
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(10000)->Arg(200000);

void BM_SlottedPageAppend(benchmark::State& state) {
  std::vector<std::byte> page(storage::kPageSize);
  std::vector<std::byte> record(48);
  for (auto _ : state) {
    std::fill(page.begin(), page.end(), std::byte{0});
    storage::SlottedPageBuilder builder(page.data());
    while (builder.TryAppend(record, nullptr)) {
    }
    benchmark::DoNotOptimize(builder.count());
  }
}
BENCHMARK(BM_SlottedPageAppend);

graph::MultiCostGraph BenchGraph(uint32_t nodes, int d) {
  gen::RoadNetworkOptions road;
  road.target_nodes = nodes;
  road.target_edges = static_cast<uint32_t>(nodes * 1.27);
  auto topo = gen::GenerateRoadNetwork(road).value();
  gen::CostGenOptions costs;
  costs.num_costs = d;
  return gen::BuildMultiCostGraph(topo, costs).value();
}

void BM_DijkstraSssp(benchmark::State& state) {
  graph::MultiCostGraph g = BenchGraph(uint32_t(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        expand::ShortestPathCosts(g, 0, graph::Location::AtNode(0)));
  }
}
BENCHMARK(BM_DijkstraSssp)->Arg(5000)->Arg(20000);

void BM_ClassicSkyline(benchmark::State& state) {
  Random rng(4);
  std::vector<skyline::Tuple> data;
  for (int i = 0; i < state.range(0); ++i) {
    data.push_back(skyline::Tuple{
        uint32_t(i),
        gen::GenerateEdgeCosts(rng, gen::CostDistribution::kAntiCorrelated,
                               4, 1.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(skyline::SortFilterSkyline(data));
  }
}
BENCHMARK(BM_ClassicSkyline)->Arg(2000)->Arg(10000);

void BM_McppLabelSetting(benchmark::State& state) {
  // Pareto path sets grow quickly with graph size and d; keep the instance
  // small and bound the label budget so one iteration stays sub-second.
  graph::MultiCostGraph g = BenchGraph(400, int(state.range(0)));
  mcpp::McppOptions opts;
  opts.max_labels = 2'000'000;
  for (auto _ : state) {
    auto paths =
        mcpp::ParetoShortestPaths(g, 0, g.num_nodes() - 1, opts);
    benchmark::DoNotOptimize(paths.ok());
  }
}
BENCHMARK(BM_McppLabelSetting)->Arg(2)->Iterations(4);

// ------------------------------------------------------------------------
// Before/after pairs for the flattened hot-path structures. The "before"
// variants reproduce the seed implementation's data structures so the
// refactor's effect stays measurable in one binary.

struct ExpansionHeapItem {
  double key;
  uint64_t tagged_id;

  bool operator>(const ExpansionHeapItem& o) const {
    if (key != o.key) return key > o.key;
    return tagged_id > o.tagged_id;
  }
};
struct ExpansionHeapBefore {
  bool operator()(const ExpansionHeapItem& a,
                  const ExpansionHeapItem& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.tagged_id < b.tagged_id;
  }
};

// A Dijkstra-like workload: bursts of pushes with drifting keys, one pop
// per burst (the expansion settle loop's shape).
template <typename PushFn, typename PopFn>
void RunHeapWorkload(Random& rng, int64_t ops, const PushFn& push,
                     const PopFn& pop) {
  double base = 0.0;
  for (int64_t i = 0; i < ops; ++i) {
    for (int b = 0; b < 3; ++b) {
      push(ExpansionHeapItem{base + rng.NextDouble() * 10.0,
                             uint64_t(rng.Uniform(1u << 20))});
    }
    base = pop();
  }
}

void BM_ExpansionHeapStdPriorityQueue(benchmark::State& state) {
  for (auto _ : state) {
    std::priority_queue<ExpansionHeapItem, std::vector<ExpansionHeapItem>,
                        std::greater<>>
        heap;
    Random rng(11);
    RunHeapWorkload(
        rng, state.range(0),
        [&](ExpansionHeapItem item) { heap.push(item); },
        [&]() {
          double key = heap.top().key;
          heap.pop();
          return key;
        });
    benchmark::DoNotOptimize(heap.size());
  }
}
BENCHMARK(BM_ExpansionHeapStdPriorityQueue)->Arg(100000);

void BM_ExpansionHeapDary(benchmark::State& state) {
  for (auto _ : state) {
    expand::DaryHeap<ExpansionHeapItem, ExpansionHeapBefore> heap;
    heap.reserve(4096);
    Random rng(11);
    RunHeapWorkload(
        rng, state.range(0),
        [&](ExpansionHeapItem item) { heap.push(item); },
        [&]() {
          double key = heap.top().key;
          heap.pop();
          return key;
        });
    benchmark::DoNotOptimize(heap.size());
  }
}
BENCHMARK(BM_ExpansionHeapDary)->Arg(100000);

// The seed's per-facility bookkeeping record (algo/common.h at the time).
struct MapTrackedFacility {
  graph::CostVector costs;
  uint32_t known_mask = 0;
  int known_count = 0;
  bool in_result = false;
  bool eliminated = false;
  bool pinned = false;
  bool pending = false;
};

// Pop + dominance-sweep workload of a skyline run: facilities are popped
// in random interleaving, and every "pin" sweeps all live candidates.
void BM_CandidateBookkeepingUnorderedMap(benchmark::State& state) {
  const int d = 4;
  const uint32_t facilities = uint32_t(state.range(0));
  for (auto _ : state) {
    std::unordered_map<graph::FacilityId, MapTrackedFacility> tracked;
    Random rng(17);
    uint64_t sweeps = 0;
    for (int64_t pop = 0; pop < state.range(0) * d; ++pop) {
      graph::FacilityId f = rng.Uniform(facilities);
      auto [it, created] = tracked.try_emplace(
          f, MapTrackedFacility{graph::CostVector(d, expand::kInfCost)});
      MapTrackedFacility& st = it->second;
      if (st.pinned || st.eliminated) continue;
      int i = int(pop % d);
      if (st.known_mask & (1u << i)) continue;
      st.costs[i] = rng.NextDouble();
      st.known_mask |= 1u << i;
      if (++st.known_count == d) {
        st.pinned = true;
        // Seed-style sweep: the full map, live or not.
        for (auto& [fid, ost] : tracked) {
          if (ost.pinned || ost.eliminated) continue;
          if (st.costs.DominatesOrEquals(ost.costs)) ost.eliminated = true;
          ++sweeps;
        }
      }
    }
    benchmark::DoNotOptimize(sweeps);
  }
}
BENCHMARK(BM_CandidateBookkeepingUnorderedMap)->Arg(2000);

void BM_CandidateBookkeepingDenseStore(benchmark::State& state) {
  const int d = 4;
  const uint32_t facilities = uint32_t(state.range(0));
  for (auto _ : state) {
    algo::CandidateStore store(facilities, d, expand::kInfCost);
    Random rng(17);
    uint64_t sweeps = 0;
    for (int64_t pop = 0; pop < state.range(0) * d; ++pop) {
      graph::FacilityId f = rng.Uniform(facilities);
      bool created = false;
      uint32_t s = store.Acquire(f, &created);
      if (created) store.AddCandidate(s);
      if (store.slot(s).pinned || store.slot(s).eliminated) continue;
      int i = int(pop % d);
      if (store.slot(s).Knows(i)) continue;
      store.SetCost(s, i, rng.NextDouble());
      if (store.slot(s).known_count == d) {
        store.slot(s).pinned = true;
        store.RemoveCandidate(s);
        // Dense-store sweep: live candidates only, contiguous cost rows.
        const auto& cs = store.candidates();
        for (size_t pos = 0; pos < cs.size();) {
          uint32_t o = cs[pos];
          ++sweeps;
          if (store.costs(s).DominatesOrEquals(store.costs(o))) {
            store.slot(o).eliminated = true;
            store.RemoveCandidate(o);
          } else {
            ++pos;
          }
        }
      }
    }
    benchmark::DoNotOptimize(sweeps);
  }
}
BENCHMARK(BM_CandidateBookkeepingDenseStore)->Arg(2000);

// Fetch-cache lookup shape: mostly-hit lookups keyed by edge.
void BM_FetchCacheUnorderedMap(benchmark::State& state) {
  std::unordered_map<graph::EdgeKey, uint32_t, graph::EdgeKeyHash> cache;
  Random rng(23);
  for (uint32_t i = 0; i < 20000; ++i) {
    cache.emplace(graph::EdgeKey(rng.Uniform(40000u), rng.Uniform(40000u)),
                  i);
  }
  Random probe(29);
  uint64_t found = 0;
  for (auto _ : state) {
    graph::EdgeKey key(probe.Uniform(40000u), probe.Uniform(40000u));
    auto it = cache.find(key);
    if (it != cache.end()) found += it->second;
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_FetchCacheUnorderedMap);

void BM_FetchCacheFlatMap(benchmark::State& state) {
  FlatU64Map cache;
  Random rng(23);
  for (uint32_t i = 0; i < 20000; ++i) {
    uint64_t key =
        graph::EdgeKey(rng.Uniform(40000u), rng.Uniform(40000u)).Pack();
    if (cache.Find(key) == FlatU64Map::kNoValue) cache.Insert(key, i);
  }
  Random probe(29);
  uint64_t found = 0;
  for (auto _ : state) {
    uint64_t key =
        graph::EdgeKey(probe.Uniform(40000u), probe.Uniform(40000u)).Pack();
    uint32_t v = cache.Find(key);
    if (v != FlatU64Map::kNoValue) found += v;
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_FetchCacheFlatMap);

}  // namespace
}  // namespace mcn

BENCHMARK_MAIN();
