#include "mcn/expand/striped_fetch.h"

#include <chrono>
#include <thread>
#include <utility>

#include "mcn/common/hash.h"
#include "mcn/common/macros.h"

namespace mcn::expand {

namespace {

// Power of two; sized so that even d = kMaxCostTypes expansions probing at
// once rarely collide on a stripe.
constexpr size_t kNumStripes = 64;

thread_local int t_bound_slot = 0;

}  // namespace

StripedCachedFetch::StripedCachedFetch(
    std::vector<const net::NetworkReader*> readers)
    : readers_(std::move(readers)), adj_(kNumStripes), fac_(kNumStripes) {
  MCN_CHECK(!readers_.empty());
  for (const net::NetworkReader* r : readers_) {
    MCN_CHECK(r != nullptr);
    MCN_CHECK(r->num_costs() == readers_[0]->num_costs());
    MCN_CHECK(r->num_nodes() == readers_[0]->num_nodes());
    MCN_CHECK(r->num_facilities() == readers_[0]->num_facilities());
  }
}

void StripedCachedFetch::BindWorkerSlot(int slot) { t_bound_slot = slot; }

int StripedCachedFetch::BoundSlot() { return t_bound_slot; }

const net::NetworkReader* StripedCachedFetch::BoundReader() const {
  int slot = t_bound_slot;
  MCN_CHECK(slot >= 0 && slot < static_cast<int>(readers_.size()));
  return readers_[slot];
}

void StripedCachedFetch::MaybeStall() const {
  if (stall_us_ <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(stall_us_));
}

template <typename Row>
size_t StripedCachedFetch::StripeTable<Row>::TotalRows() const {
  size_t total = 0;
  for (const Stripe& s : stripes) {
    MutexLock lock(&s.mu);
    total += s.rows.size();
  }
  return total;
}

template <typename Row, typename FetchFn>
Result<std::span<const Row>> StripedCachedFetch::GetOrFetch(
    StripeTable<Row>& table, uint64_t key,
    std::atomic<uint64_t>& physical_counter, const FetchFn& fetch) {
  using Table = StripeTable<Row>;
  typename Table::Stripe& stripe =
      table.stripes[static_cast<size_t>(MixU64(key)) & (kNumStripes - 1)];

  stripe.mu.Lock();
  bool waited = false;
  for (;;) {
    uint32_t v = stripe.map.Find(key);
    if (v == FlatU64Map::kNoValue) break;  // we fetch
    if (v != Table::kInFlight) {
      // Published rows have stable addresses (deque), so the span stays
      // valid after the stripe lock is dropped.
      const std::span<const Row> published(stripe.rows[v]);
      stripe.mu.Unlock();
      return published;
    }
    // Another probe is fetching this record: wait for it instead of
    // re-fetching (the single-flight guard). Counted once per waiting
    // probe, not per wakeup.
    if (!waited) {
      waited = true;
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    stripe.cv.Wait(&stripe.mu);
  }
  stripe.map.Insert(key, Table::kInFlight);
  stripe.mu.Unlock();

  physical_counter.fetch_add(1, std::memory_order_relaxed);
  std::vector<Row> row;
  Status status = fetch(&row);
  MaybeStall();

  stripe.mu.Lock();
  stripe.map.Erase(key);
  if (!status.ok()) {
    // Leave the key absent so a retry can re-fetch; wake the waiters (they
    // will loop, find it absent, and become fetchers themselves).
    stripe.cv.NotifyAll();
    stripe.mu.Unlock();
    return status;
  }
  uint32_t idx = static_cast<uint32_t>(stripe.rows.size());
  stripe.rows.push_back(std::move(row));
  stripe.map.Insert(key, idx);
  stripe.cv.NotifyAll();
  const std::span<const Row> published(stripe.rows[idx]);
  stripe.mu.Unlock();
  return published;
}

Result<std::span<const net::AdjEntry>> StripedCachedFetch::GetAdjacency(
    graph::NodeId node) {
  adj_requests_.fetch_add(1, std::memory_order_relaxed);
  if (node >= num_nodes()) {
    return Status::InvalidArgument("StripedCachedFetch: node out of range");
  }
  const net::NetworkReader* reader = BoundReader();
  return GetOrFetch(adj_, static_cast<uint64_t>(node), adj_fetches_,
                    [&](std::vector<net::AdjEntry>* out) {
                      return reader->GetAdjacency(node, out);
                    });
}

Result<std::span<const net::FacilityOnEdge>>
StripedCachedFetch::GetFacilities(graph::EdgeKey edge,
                                  const net::FacRef& ref) {
  fac_requests_.fetch_add(1, std::memory_order_relaxed);
  const net::NetworkReader* reader = BoundReader();
  return GetOrFetch(fac_, edge.Pack(), fac_fetches_,
                    [&](std::vector<net::FacilityOnEdge>* out) {
                      return reader->GetFacilities(edge, ref, out);
                    });
}

Result<FetchProvider::SeedInfo> StripedCachedFetch::GetSeedInfo(
    const graph::Location& q) {
  if (q.is_node()) return SeedInfo{};
  MCN_ASSIGN_OR_RETURN(auto entries, GetAdjacency(q.edge().u));
  return internal::SeedFromEntries(this, entries, q.edge());
}

const FetchProvider::Stats& StripedCachedFetch::stats() const {
  stats_snapshot_.adjacency_requests =
      adj_requests_.load(std::memory_order_relaxed);
  stats_snapshot_.adjacency_fetches =
      adj_fetches_.load(std::memory_order_relaxed);
  stats_snapshot_.facility_requests =
      fac_requests_.load(std::memory_order_relaxed);
  stats_snapshot_.facility_fetches =
      fac_fetches_.load(std::memory_order_relaxed);
  return stats_snapshot_;
}

void StripedCachedFetch::ResetStats() {
  adj_requests_.store(0, std::memory_order_relaxed);
  adj_fetches_.store(0, std::memory_order_relaxed);
  fac_requests_.store(0, std::memory_order_relaxed);
  fac_fetches_.store(0, std::memory_order_relaxed);
  single_flight_waits_.store(0, std::memory_order_relaxed);
}

StripedCachedFetch::ConcurrencyStats StripedCachedFetch::concurrency_stats()
    const {
  ConcurrencyStats cs;
  cs.single_flight_waits = single_flight_waits_.load(std::memory_order_relaxed);
  return cs;
}

size_t StripedCachedFetch::cached_nodes() const { return adj_.TotalRows(); }

size_t StripedCachedFetch::cached_edges() const { return fac_.TotalRows(); }

}  // namespace mcn::expand
