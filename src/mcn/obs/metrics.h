// Lock-light metrics registry (DESIGN.md §11): named counters and
// log-bucketed latency histograms, one registry per service.
//
// Hot-path contract: recording into an existing instrument takes NO lock —
// counters and histograms keep per-slot cache-line-padded relaxed atomics
// (slot = the caller's worker index, or a stable per-thread ordinal), so
// concurrent workers never contend on a line. The registry mutex is taken
// only to create an instrument (once, at service construction) and to cut
// a snapshot.
//
// Snapshots are plain value types merged by instrument name —
// MergeRowsByName is the one aggregation routine shared by registry
// snapshots and DiskManager::Stats. A snapshot is the only stats surface
// of exec::QueryService: callers read its rows by the names in
// exec::metric_names. Gauges exist only as snapshot rows
// (Snapshot::SetGauge), written by whoever takes the snapshot.
//
// Histogram bucketing: values 0..15 get exact unit buckets; above that,
// each power-of-two octave is split into 8 sub-buckets, so any recorded
// value lands in a bucket whose width is at most 1/8 of its lower bound
// (quantile estimates carry ≤ 12.5% relative error). 496 buckets cover
// the full uint64 range; snapshots store them sparsely.
#ifndef MCN_OBS_METRICS_H_
#define MCN_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mcn/common/mutex.h"
#include "mcn/common/thread_annotations.h"

namespace mcn::obs {

/// Upper bound on per-instrument slot arrays (beyond ~64 workers, slot
/// sharing costs contention, not correctness — values are always summed).
inline constexpr int kMaxSlots = 64;

/// `requested` rounded up to a power of two, clamped to [1, kMaxSlots].
/// Power-of-two slot counts let the record path mask instead of divide.
int ClampSlots(int requested);

/// A stable small ordinal for the calling thread (assigned on first use),
/// used as the default slot so unrelated threads rarely share a line.
int CurrentThreadSlot();

/// Monotonic named counter. Add() is lock-free (relaxed per-slot atomics);
/// Value()/Reset() are snapshot-time operations.
class Counter {
 public:
  explicit Counter(int num_slots)
      : slots_(ClampSlots(num_slots)),
        mask_(static_cast<uint32_t>(slots_.size() - 1)) {}

  void Add(uint64_t delta) { Add(delta, CurrentThreadSlot()); }
  void Add(uint64_t delta, int slot) {
    slots_[static_cast<uint32_t>(slot) & mask_].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  /// One slot's share (exact per-worker attribution when the owning
  /// registry was sized with at least one slot per worker).
  uint64_t SlotValue(int slot) const {
    return slots_[static_cast<uint32_t>(slot) & mask_].v.load(
        std::memory_order_relaxed);
  }

  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  std::vector<Slot> slots_;
  uint32_t mask_;
};

/// Log-bucketed histogram over uint64 values (microseconds by convention).
/// Record() is lock-free; see the file comment for the bucket layout.
class Histogram {
 public:
  static constexpr int kIdentityBuckets = 16;  ///< exact buckets for 0..15
  static constexpr int kSubBuckets = 8;        ///< per octave above that
  /// Octaves 4..63 each contribute kSubBuckets buckets.
  static constexpr int kNumBuckets = kIdentityBuckets + (64 - 4) * kSubBuckets;

  /// The bucket index `v` lands in (total order preserved: the index is
  /// monotone in v).
  static int BucketIndex(uint64_t v) {
    if (v < kIdentityBuckets) return static_cast<int>(v);
    const int octave = 63 - std::countl_zero(v);
    const int sub = static_cast<int>((v >> (octave - 3)) & 7);
    return kIdentityBuckets + (octave - 4) * kSubBuckets + sub;
  }
  /// Smallest value mapping to `index` (inclusive).
  static uint64_t BucketLowerBound(int index) {
    if (index < kIdentityBuckets) return static_cast<uint64_t>(index);
    const int octave = 4 + (index - kIdentityBuckets) / kSubBuckets;
    const int sub = (index - kIdentityBuckets) % kSubBuckets;
    return (uint64_t{1} << octave) +
           (static_cast<uint64_t>(sub) << (octave - 3));
  }
  /// Exclusive upper bound of `index` (UINT64_MAX for the last bucket).
  static uint64_t BucketUpperBound(int index) {
    if (index + 1 >= kNumBuckets) return UINT64_MAX;
    return BucketLowerBound(index + 1);
  }

  explicit Histogram(int num_slots)
      : slots_(ClampSlots(num_slots)),
        mask_(static_cast<uint32_t>(slots_.size() - 1)) {}

  void Record(uint64_t value) { Record(value, CurrentThreadSlot()); }
  void Record(uint64_t value, int slot) {
    Slot& s = slots_[static_cast<uint32_t>(slot) & mask_];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  void Reset() {
    for (Slot& s : slots_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
  }

  /// Sparse merged view of every slot (count derived from the buckets).
  void SnapshotInto(std::vector<std::pair<uint32_t, uint64_t>>* buckets,
                    uint64_t* count, uint64_t* sum) const;

 private:
  struct Slot {
    /// Not line-padded per bucket (that would be 32KB/slot); different
    /// slots still live in different allocated regions, which is what
    /// kills the cross-worker contention.
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  std::vector<Slot> slots_;
  uint32_t mask_;
};

// ------------------------------------------------------------- snapshots

struct CounterRow {
  std::string name;
  uint64_t value = 0;
};

struct GaugeRow {
  std::string name;
  double value = 0;
};

/// Point-in-time copy of one histogram: sparse ascending (index, count)
/// pairs plus the value sum.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;  ///< always the sum of bucket counts
  uint64_t sum = 0;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0;
  }
  /// Nearest-rank quantile estimate, q in [0,1]: the midpoint of the
  /// bucket holding the rank-ceil(q*count) sample (≤ 12.5% relative
  /// error by the bucket-width bound).
  double ValueAtQuantile(double q) const;

  void Merge(const HistogramSnapshot& other);
};

/// One registry's instruments at a point in time. Rows keep registry
/// insertion order; Merge() combines by name (sum counters/histograms,
/// last-write gauges), appending names unseen on the left.
struct Snapshot {
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramSnapshot> histograms;

  void Merge(const Snapshot& other);

  /// Value of a named counter/gauge (fallback when absent).
  uint64_t CounterValue(const std::string& name, uint64_t fallback = 0) const;
  double GaugeValue(const std::string& name, double fallback = 0) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  /// Mutators for derived rows (e.g. the disk I/O totals and the gauges
  /// appended by QueryService::MetricsSnapshot). AddCounter sums into an
  /// existing same-named row.
  void AddCounter(const std::string& name, uint64_t value);
  void SetGauge(const std::string& name, double value);
};

/// THE shared name-keyed merge: for each row of `from`, combine into the
/// same-named row of `*into` (appending a copy when absent). `combine`
/// takes (Row& into, const Row& from). Quadratic in distinct names, which
/// is fine for the few dozen instruments a snapshot carries.
template <typename Row, typename Fn>
void MergeRowsByName(std::vector<Row>* into, const std::vector<Row>& from,
                     Fn combine) {
  for (const Row& row : from) {
    auto it = std::find_if(into->begin(), into->end(), [&](const Row& r) {
      return r.name == row.name;
    });
    if (it == into->end()) {
      into->push_back(row);
    } else {
      combine(*it, row);
    }
  }
}

// -------------------------------------------------------------- registry

/// Create-or-get named instruments. Returned pointers are stable for the
/// registry's lifetime — resolve once, record forever without a lock.
class Registry {
 public:
  /// `num_slots`: expected concurrent recorder count (a service passes
  /// its worker count so per-worker slots are exact), clamped by
  /// ClampSlots.
  explicit Registry(int num_slots) : num_slots_(ClampSlots(num_slots)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  Snapshot TakeSnapshot() const;
  /// Zeroes every instrument (call only while recorders are quiesced
  /// enough that a racing Add being lost or kept is acceptable).
  void ResetAll();

 private:
  int num_slots_;
  mutable Mutex mu_;  ///< creation + snapshot only, never recording
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
      MCN_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_
      MCN_GUARDED_BY(mu_);
};

}  // namespace mcn::obs

#endif  // MCN_OBS_METRICS_H_
