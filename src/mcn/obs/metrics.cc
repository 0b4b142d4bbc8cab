#include "mcn/obs/metrics.h"

#include <cmath>

namespace mcn::obs {

int ClampSlots(int requested) {
  if (requested < 1) requested = 1;
  if (requested > kMaxSlots) requested = kMaxSlots;
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(requested)));
}

int CurrentThreadSlot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void Histogram::SnapshotInto(
    std::vector<std::pair<uint32_t, uint64_t>>* buckets, uint64_t* count,
    uint64_t* sum) const {
  uint64_t dense[kNumBuckets] = {};
  uint64_t total = 0, value_sum = 0;
  for (const Slot& s : slots_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      dense[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    value_sum += s.sum.load(std::memory_order_relaxed);
  }
  buckets->clear();
  for (int b = 0; b < kNumBuckets; ++b) {
    if (dense[b] == 0) continue;
    buckets->emplace_back(static_cast<uint32_t>(b), dense[b]);
    total += dense[b];
  }
  *count = total;
  *sum = value_sum;
}

double HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  auto rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (const auto& [index, c] : buckets) {
    cumulative += c;
    if (cumulative >= rank) {
      const auto lo =
          static_cast<double>(Histogram::BucketLowerBound(index));
      const int last = Histogram::kNumBuckets - 1;
      const double hi =
          static_cast<int>(index) >= last
              ? lo * 1.125
              : static_cast<double>(Histogram::BucketUpperBound(index));
      return (lo + hi) / 2.0;
    }
  }
  return 0;  // unreachable when count == sum of buckets
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  // Merge two ascending sparse lists.
  std::vector<std::pair<uint32_t, uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t i = 0, j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() ||
        (i < buckets.size() && buckets[i].first < other.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() ||
               other.buckets[j].first < buckets[i].first) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first,
                          buckets[i].second + other.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

void Snapshot::Merge(const Snapshot& other) {
  MergeRowsByName(&counters, other.counters,
                  [](CounterRow& into, const CounterRow& from) {
                    into.value += from.value;
                  });
  MergeRowsByName(&gauges, other.gauges,
                  [](GaugeRow& into, const GaugeRow& from) {
                    into.value = from.value;
                  });
  MergeRowsByName(&histograms, other.histograms,
                  [](HistogramSnapshot& into, const HistogramSnapshot& from) {
                    into.Merge(from);
                  });
}

uint64_t Snapshot::CounterValue(const std::string& name,
                                uint64_t fallback) const {
  for (const CounterRow& row : counters) {
    if (row.name == name) return row.value;
  }
  return fallback;
}

double Snapshot::GaugeValue(const std::string& name, double fallback) const {
  for (const GaugeRow& row : gauges) {
    if (row.name == name) return row.value;
  }
  return fallback;
}

const HistogramSnapshot* Snapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void Snapshot::AddCounter(const std::string& name, uint64_t value) {
  std::vector<CounterRow> one{{name, value}};
  MergeRowsByName(&counters, one,
                  [](CounterRow& into, const CounterRow& from) {
                    into.value += from.value;
                  });
}

void Snapshot::SetGauge(const std::string& name, double value) {
  std::vector<GaugeRow> one{{name, value}};
  MergeRowsByName(&gauges, one, [](GaugeRow& into, const GaugeRow& from) {
    into.value = from.value;
  });
}

Counter* Registry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>(num_slots_));
  return counters_.back().second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return h.get();
  }
  histograms_.emplace_back(name, std::make_unique<Histogram>(num_slots_));
  return histograms_.back().second.get();
}

Snapshot Registry::TakeSnapshot() const {
  MutexLock lock(&mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    histogram->SnapshotInto(&h.buckets, &h.count, &h.sum);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Registry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace mcn::obs
