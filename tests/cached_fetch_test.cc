// The CEA cache's arena contract (expand/fetch_provider.h, DESIGN.md §4):
// CachedFetch keeps every record it fetched for the query's lifetime in two
// flat arenas, serves repeats from them byte-identically to a fresh read,
// and fetches each record once. The binary replaces the global operator
// new with a counting one, so it can also pin the allocation behaviour: a
// record fetch allocates only when one of the cache's buffers grows.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "mcn/expand/fetch_provider.h"
#include "mcn/gen/workload.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcn::expand {
namespace {

class CachedFetchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto instance =
        gen::BuildShardedInstance(gen::ExperimentConfig().Scaled(0.02), 1);
    ASSERT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = std::move(instance).value();
  }

  /// Fetches every node's adjacency record and every facility record it
  /// points at, through `cache`, in node order. The first facility records
  /// fetched are appended to `first_facilities` when it is not null.
  static void FetchEverything(
      CachedFetch& cache,
      std::vector<std::pair<graph::EdgeKey, net::FacRef>>* first_facilities) {
    for (graph::NodeId v = 0; v < cache.num_nodes(); ++v) {
      auto adj = cache.GetAdjacency(v);
      ASSERT_TRUE(adj.ok()) << adj.status().ToString();
      // The adjacency span stays valid across facility fetches.
      for (const net::AdjEntry& e : adj.value()) {
        if (e.fac.empty()) continue;
        const graph::EdgeKey edge(v, e.neighbor);
        ASSERT_TRUE(cache.GetFacilities(edge, e.fac).ok());
        if (first_facilities != nullptr && first_facilities->size() < 64) {
          first_facilities->emplace_back(edge, e.fac);
        }
      }
    }
  }

  std::unique_ptr<gen::ShardedInstance> instance_;
};

TEST_F(CachedFetchTest, ArenaRowsMatchFreshReadsAfterGrowth) {
  CachedFetch cache(instance_->reader.get());
  std::vector<std::pair<graph::EdgeKey, net::FacRef>> first_facilities;
  FetchEverything(cache, &first_facilities);
  const FetchProvider::Stats after_fill = cache.stats();
  EXPECT_EQ(cache.cached_nodes(), cache.num_nodes());
  EXPECT_EQ(after_fill.adjacency_fetches, cache.cached_nodes());
  EXPECT_EQ(after_fill.facility_fetches, cache.cached_edges());
  ASSERT_EQ(first_facilities.size(), 64u);

  // The first rows went in before every arena growth; they must still read
  // exactly as a fresh pass-through read does.
  DirectFetch direct(instance_->reader.get());
  const int d = cache.num_costs();
  for (graph::NodeId v = 0; v < 64; ++v) {
    auto cached = cache.GetAdjacency(v);
    auto fresh = direct.GetAdjacency(v);
    ASSERT_TRUE(cached.ok() && fresh.ok());
    ASSERT_EQ(cached->size(), fresh->size());
    for (size_t i = 0; i < fresh->size(); ++i) {
      const net::AdjEntry& got = (*cached)[i];
      const net::AdjEntry& want = (*fresh)[i];
      EXPECT_EQ(got.neighbor, want.neighbor);
      EXPECT_EQ(got.fac.page, want.fac.page);
      EXPECT_EQ(got.fac.slot, want.fac.slot);
      EXPECT_EQ(got.fac.count, want.fac.count);
      ASSERT_EQ(got.w.dim(), d);
      for (int c = 0; c < d; ++c) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.w[c]),
                  std::bit_cast<uint64_t>(want.w[c]));
      }
    }
  }
  for (const auto& [edge, ref] : first_facilities) {
    auto cached = cache.GetFacilities(edge, ref);
    auto fresh = direct.GetFacilities(edge, ref);
    ASSERT_TRUE(cached.ok() && fresh.ok());
    ASSERT_EQ(cached->size(), fresh->size());
    ASSERT_EQ(cached->size(), ref.count);
    for (size_t j = 0; j < fresh->size(); ++j) {
      EXPECT_EQ((*cached)[j].facility, (*fresh)[j].facility);
      EXPECT_EQ(std::bit_cast<uint64_t>((*cached)[j].frac),
                std::bit_cast<uint64_t>((*fresh)[j].frac));
    }
  }
  // Every re-fetch was a hit: no record was read twice.
  EXPECT_EQ(cache.stats().adjacency_fetches, after_fill.adjacency_fetches);
  EXPECT_EQ(cache.stats().facility_fetches, after_fill.facility_fetches);
}

TEST_F(CachedFetchTest, FetchingEveryRecordAllocatesLogarithmically) {
  CachedFetch cache(instance_->reader.get());
  g_allocations.store(0);
  g_counting.store(true);
  FetchEverything(cache, nullptr);
  g_counting.store(false);
  const uint64_t allocations = g_allocations.load();
  const uint64_t records = cache.cached_nodes() + cache.cached_edges();
  ASSERT_GT(records, 3000u);
  // Only the cache's seven growable buffers allocate: two arenas, two row
  // tables and the edge table, which double, and two scratch rows, which
  // grow to the widest record. That is O(log n): the bound is 104 for the
  // ~4,500 records here, where a cache that heap-allocates each row makes
  // at least one allocation per record.
  const uint64_t bound = 8 * static_cast<uint64_t>(std::bit_width(records));
  EXPECT_LT(allocations, bound) << "over " << records << " records";
}

}  // namespace
}  // namespace mcn::expand
