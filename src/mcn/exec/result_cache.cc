#include "mcn/exec/result_cache.h"

#include <utility>

namespace mcn::exec {

QueryResult ResultCache::SanitizedCopy(const QueryResult& result) {
  QueryResult copy;
  copy.status = result.status;
  copy.kind = result.kind;
  copy.skyline = result.skyline;
  copy.topk = result.topk;
  copy.result_hash = result.result_hash;
  copy.exhausted = result.exhausted;
  // copy.stats stays default-constructed: a served-from-cache answer did
  // no I/O and ran on no worker.
  return copy;
}

ResultCache::Lookup ResultCache::Acquire(const std::string& key,
                                         uint64_t epoch) {
  Lookup lookup;
  MutexLock lock(&mu_);
  if (epoch > current_epoch_) current_epoch_ = epoch;
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    lookup.outcome = Lookup::Outcome::kHit;
    lookup.cached = SanitizedCopy(it->second->result);
    return lookup;
  }
  auto flight_it = inflight_.find(key);
  if (flight_it != inflight_.end()) {
    flight_it->second->waiters.emplace_back();
    lookup.outcome = Lookup::Outcome::kCoalesced;
    lookup.future = flight_it->second->waiters.back().get_future();
    return lookup;
  }
  lookup.outcome = Lookup::Outcome::kMiss;
  lookup.flight = std::make_shared<ResultFlight>();
  inflight_.emplace(key, lookup.flight);
  return lookup;
}

size_t ResultCache::Complete(const std::shared_ptr<ResultFlight>& flight,
                             const std::string& key, uint64_t epoch,
                             const QueryResult& result) {
  std::vector<std::promise<QueryResult>> waiters;
  {
    MutexLock lock(&mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second == flight) inflight_.erase(it);
    // No new waiter can attach once the flight is unmapped, so the swap
    // detaches the complete set.
    waiters.swap(flight->waiters);
    if (result.status.ok() && epoch == current_epoch_ && max_entries_ > 0 &&
        map_.find(key) == map_.end()) {
      lru_.push_front(Entry{key, SanitizedCopy(result)});
      map_.emplace(key, lru_.begin());
      while (map_.size() > max_entries_) {
        ++evictions_;
        map_.erase(lru_.back().key);
        lru_.pop_back();
      }
    }
  }
  // Fulfill outside the lock: set_value may run waiter continuations.
  for (auto& waiter : waiters) waiter.set_value(SanitizedCopy(result));
  return waiters.size();
}

void ResultCache::InvalidateAll(uint64_t new_epoch) {
  MutexLock lock(&mu_);
  if (new_epoch > current_epoch_) current_epoch_ = new_epoch;
  ++invalidations_;
  map_.clear();
  lru_.clear();
  // inflight_ deliberately survives: waiters resolve via Complete.
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(&mu_);
  return Stats{evictions_, invalidations_, map_.size(), inflight_.size()};
}

}  // namespace mcn::exec
