// Metrics-registry invariants (DESIGN.md §11): the log-bucket geometry
// partitions the uint64 range with the documented ≤ 12.5% width bound,
// histogram snapshots/merges agree with a sorted-vector oracle, counters
// sum exactly under concurrent writers, and Registry/Snapshot lookup and
// merge semantics hold.
#include "mcn/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/common/random.h"
#include "test_util.h"

namespace mcn::obs {
namespace {

TEST(HistogramBucketsTest, IdentityBucketsAreExact) {
  for (uint64_t v = 0; v < Histogram::kIdentityBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBucketsTest, BoundsFormAPartition) {
  // Every bucket: its lower bound maps back to it, its last value maps to
  // it, and buckets tile the range with no gap or overlap.
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    const uint64_t hi = Histogram::BucketUpperBound(i);
    ASSERT_LT(lo, hi) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(hi - 1), i) << "bucket " << i;
    if (i + 1 < Histogram::kNumBuckets) {
      EXPECT_EQ(Histogram::BucketLowerBound(i + 1), hi) << "bucket " << i;
    }
  }
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramBucketsTest, WidthBoundsQuantileError) {
  // Above the identity range every bucket is at most lo/8 wide — the
  // bound behind the documented ≤ 12.5% relative quantile error.
  for (int i = Histogram::kIdentityBuckets; i < Histogram::kNumBuckets - 1;
       ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    const uint64_t width = Histogram::BucketUpperBound(i) - lo;
    EXPECT_LE(width, lo / 8) << "bucket " << i;
  }
}

TEST(HistogramBucketsTest, IndexIsMonotoneInValue) {
  const uint64_t seed = test::AnnounceSeed("HistogramBuckets.Monotone");
  Random rng(seed);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform pairs so every octave gets exercised.
    const uint64_t a = rng.Next() >> (rng.Next() % 64);
    const uint64_t b = rng.Next() >> (rng.Next() % 64);
    const auto [lo, hi] = std::minmax(a, b);
    EXPECT_LE(Histogram::BucketIndex(lo), Histogram::BucketIndex(hi))
        << lo << " vs " << hi;
  }
}

HistogramSnapshot Snap(const Histogram& h, const char* name = "h") {
  HistogramSnapshot s;
  s.name = name;
  h.SnapshotInto(&s.buckets, &s.count, &s.sum);
  return s;
}

TEST(HistogramTest, QuantilesMatchSortedVectorOracle) {
  const uint64_t seed = test::AnnounceSeed("Histogram.QuantileOracle");
  Random rng(seed);
  Histogram h(4);
  std::vector<uint64_t> values;
  uint64_t sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 56);  // log-uniform
    values.push_back(v);
    sum += v;
    h.Record(v, static_cast<int>(rng.Next() % 4));  // slots must not matter
  }
  std::sort(values.begin(), values.end());

  const HistogramSnapshot s = Snap(h);
  EXPECT_EQ(s.count, values.size());
  EXPECT_EQ(s.sum, sum);
  // Sparse form: ascending indices, nonzero counts, total adds up.
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < s.buckets.size(); ++i) {
    EXPECT_GT(s.buckets[i].second, 0u);
    if (i > 0) EXPECT_LT(s.buckets[i - 1].first, s.buckets[i].first);
    bucket_total += s.buckets[i].second;
  }
  EXPECT_EQ(bucket_total, s.count);

  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    // Nearest-rank oracle: the rank-ceil(q*n) smallest sample.
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * values.size())));
    const uint64_t oracle = values[std::min(rank, values.size()) - 1];
    const double est = s.ValueAtQuantile(q);
    // The estimate must land inside the oracle's own bucket — the
    // strongest statement the bucketing admits, and it implies the
    // ≤ 12.5% relative-error bound.
    const int idx = Histogram::BucketIndex(oracle);
    EXPECT_GE(est, static_cast<double>(Histogram::BucketLowerBound(idx)))
        << "q=" << q;
    EXPECT_LE(est, static_cast<double>(Histogram::BucketUpperBound(idx)))
        << "q=" << q;
  }
}

TEST(HistogramTest, MergeMatchesSingleRecorder) {
  const uint64_t seed = test::AnnounceSeed("Histogram.MergeOracle");
  Random rng(seed ^ 0x9E3779B97F4A7C15ull);
  Histogram a(2), b(2), combined(1);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 48);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  HistogramSnapshot sa = Snap(a), sb = Snap(b), sc = Snap(combined);
  sa.Merge(sb);
  EXPECT_EQ(sa.count, sc.count);
  EXPECT_EQ(sa.sum, sc.sum);
  EXPECT_EQ(sa.buckets, sc.buckets);
  for (double q : {0.5, 0.95}) {
    EXPECT_DOUBLE_EQ(sa.ValueAtQuantile(q), sc.ValueAtQuantile(q));
  }
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c(8);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1, t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  // Per-slot attribution is exact when each writer owns a slot.
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(c.SlotValue(t), kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, SlotCountClampsToPowerOfTwo) {
  EXPECT_EQ(ClampSlots(0), 1);
  EXPECT_EQ(ClampSlots(1), 1);
  EXPECT_EQ(ClampSlots(3), 4);
  EXPECT_EQ(ClampSlots(kMaxSlots), kMaxSlots);
  EXPECT_EQ(ClampSlots(kMaxSlots + 1), kMaxSlots);
  // Out-of-range slot ids wrap via the mask instead of faulting.
  Counter c(4);
  c.Add(5, 1 << 20);
  EXPECT_EQ(c.Value(), 5u);
}

TEST(RegistryTest, InstrumentPointersAreStableAndShared) {
  Registry registry(4);
  Counter* c = registry.GetCounter("mcn.test.counter");
  Histogram* h = registry.GetHistogram("mcn.test.hist");
  EXPECT_EQ(registry.GetCounter("mcn.test.counter"), c);
  EXPECT_EQ(registry.GetHistogram("mcn.test.hist"), h);

  c->Add(7);
  h->Record(100);
  h->Record(3);

  const Snapshot s = registry.TakeSnapshot();
  EXPECT_EQ(s.CounterValue("mcn.test.counter"), 7u);
  EXPECT_EQ(s.CounterValue("absent", 42), 42u);
  const HistogramSnapshot* hs = s.FindHistogram("mcn.test.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->sum, 103u);
  EXPECT_EQ(s.FindHistogram("absent"), nullptr);

  registry.ResetAll();
  const Snapshot zero = registry.TakeSnapshot();
  EXPECT_EQ(zero.CounterValue("mcn.test.counter"), 0u);
  EXPECT_EQ(zero.FindHistogram("mcn.test.hist")->count, 0u);
}

TEST(SnapshotTest, MergeSumsCountersAndKeepsLastGauge) {
  Snapshot a, b;
  a.AddCounter("c1", 10);
  a.AddCounter("only_a", 1);
  a.SetGauge("g", 1.0);
  b.AddCounter("c1", 5);
  b.AddCounter("only_b", 2);
  b.SetGauge("g", 9.0);

  a.Merge(b);
  EXPECT_EQ(a.CounterValue("c1"), 15u);
  EXPECT_EQ(a.CounterValue("only_a"), 1u);
  EXPECT_EQ(a.CounterValue("only_b"), 2u);
  EXPECT_DOUBLE_EQ(a.GaugeValue("g"), 9.0);  // last write wins

  // AddCounter sums into an existing same-named row.
  a.AddCounter("c1", 1);
  EXPECT_EQ(a.CounterValue("c1"), 16u);
}

}  // namespace
}  // namespace mcn::obs
