// StripedCachedFetch: the concurrent sibling of CachedFetch (DESIGN.md §7).
// One instance is shared by the d expansions of a query while a
// ParallelProbeScheduler runs their probes on different threads:
//
//  * the adjacency and facility tables are sharded into stripes, each a
//    FlatU64Map + row deque behind its own mutex, so probes touching
//    different records never contend on one lock;
//  * a single-flight guard per record: the first prober to miss marks the
//    entry in-flight, releases the stripe lock, fetches, publishes, and
//    wakes the stripe; concurrent probers for the same record *wait* for
//    that fetch instead of issuing their own. This preserves the paper's
//    §IV-B CEA accounting — every record is physically fetched at most
//    once per query — under any thread interleaving;
//  * physical fetches go through a per-worker-slot NetworkReader (slot 0 =
//    the query-driving thread, slots 1.. = probe-pool workers), because
//    NetworkReader/BufferPool are single-threaded. The executing slot is
//    bound thread-locally by the scheduler before each probe.
//
// Row storage is a per-stripe deque of rows, so published rows keep
// stable addresses for the query's lifetime. Concurrent probes need that:
// one probe's span must survive another probe's insert into the same
// stripe. (CachedFetch serves one thread and keeps flat arenas instead,
// whose spans live only until the next call of the same getter.)
#ifndef MCN_EXPAND_STRIPED_FETCH_H_
#define MCN_EXPAND_STRIPED_FETCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "mcn/common/flat_u64_map.h"
#include "mcn/common/mutex.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/common/result.h"
#include "mcn/expand/fetch_provider.h"
#include "mcn/net/network_reader.h"

namespace mcn::expand {

/// Thread-safe CEA-style caching provider. See the file comment.
class StripedCachedFetch : public FetchProvider {
 public:
  /// Counters beyond the base FetchProvider::Stats.
  struct ConcurrencyStats {
    /// Probes that found their record in flight and waited for the
    /// fetching thread instead of re-fetching (single-flight hits).
    uint64_t single_flight_waits = 0;
  };

  /// `readers[s]` serves worker slot `s`; each must wrap its own
  /// BufferPool (readers are not thread-safe) and all must describe the
  /// same network. At least one reader (slot 0, the query-driving thread)
  /// is required.
  explicit StripedCachedFetch(std::vector<const net::NetworkReader*> readers);

  /// Binds the calling thread to reader slot `slot` for subsequent
  /// fetches. The scheduler binds slot `worker + 1` before each pooled
  /// probe; unbound threads (the query driver) use slot 0.
  static void BindWorkerSlot(int slot);
  static int BoundSlot();

  /// Simulated I/O stall slept (on the fetching thread, outside all
  /// stripe locks) per *physical* record fetch. Models the disk latency
  /// the parallel turns exist to overlap; 0 disables (default).
  void set_simulated_stall_us(double us) { stall_us_ = us; }

  int num_costs() const override { return readers_[0]->num_costs(); }
  uint32_t num_nodes() const override { return readers_[0]->num_nodes(); }
  uint32_t num_facilities() const override {
    return readers_[0]->num_facilities();
  }

  Result<std::span<const net::AdjEntry>> GetAdjacency(
      graph::NodeId node) override;
  Result<std::span<const net::FacilityOnEdge>> GetFacilities(
      graph::EdgeKey edge, const net::FacRef& ref) override;
  Result<SeedInfo> GetSeedInfo(const graph::Location& q) override;

  /// Materialized from the atomic counters; quiescent calls only (no
  /// probe in flight), as the base contract states.
  const Stats& stats() const override;
  void ResetStats() override;
  ConcurrencyStats concurrency_stats() const;

  /// Distinct records resident in the cache (each equals the matching
  /// physical-fetch counter iff every record was fetched at most once —
  /// the invariant the stress suite asserts).
  size_t cached_nodes() const;
  size_t cached_edges() const;

  int num_reader_slots() const { return static_cast<int>(readers_.size()); }

 private:
  template <typename Row>
  struct StripeTable {
    /// FlatU64Map value marking a key whose fetch is in flight.
    static constexpr uint32_t kInFlight = 0xFFFFFFFEu;

    struct Stripe {
      mutable Mutex mu;
      CondVar cv;
      /// key -> row index, or kInFlight
      FlatU64Map map MCN_GUARDED_BY(mu);
      /// stable addresses: published row pointers outlive the lock
      std::deque<std::vector<Row>> rows MCN_GUARDED_BY(mu);
    };

    explicit StripeTable(size_t num_stripes) : stripes(num_stripes) {}

    size_t TotalRows() const;

    std::deque<Stripe> stripes;  ///< deque: Stripe is not movable
  };

  /// Single-flight lookup-or-fetch of `key` in `table`; `fetch` fills the
  /// row via the bound reader and is executed by exactly one thread.
  template <typename Row, typename FetchFn>
  Result<std::span<const Row>> GetOrFetch(
      StripeTable<Row>& table, uint64_t key,
      std::atomic<uint64_t>& physical_counter, const FetchFn& fetch);

  const net::NetworkReader* BoundReader() const;
  void MaybeStall() const;

  std::vector<const net::NetworkReader*> readers_;
  StripeTable<net::AdjEntry> adj_;
  StripeTable<net::FacilityOnEdge> fac_;
  double stall_us_ = 0;

  std::atomic<uint64_t> adj_requests_{0};
  std::atomic<uint64_t> adj_fetches_{0};
  std::atomic<uint64_t> fac_requests_{0};
  std::atomic<uint64_t> fac_fetches_{0};
  std::atomic<uint64_t> single_flight_waits_{0};
  mutable Stats stats_snapshot_;
};

}  // namespace mcn::expand

#endif  // MCN_EXPAND_STRIPED_FETCH_H_
