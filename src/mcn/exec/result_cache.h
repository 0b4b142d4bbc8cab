// ResultCache: bounded cross-query result sharing with single-flight
// coalescing (DESIGN.md §13). Keys are canonical encodings of a query
// spec plus the service's network epoch; values are the finished
// QueryResult rows + hash. The cache serves three outcomes:
//
//   * kHit        — a stored result for the key; returned immediately.
//   * kCoalesced  — another request for the same key is executing right
//                   now; the caller gets a future resolved by that
//                   flight's Complete (the single-flight guard: N
//                   identical concurrent requests run the query once).
//   * kMiss       — the caller owns the flight token and must run the
//                   query, then call Complete exactly once — on success,
//                   failure, or discard — or coalesced waiters hang.
//
// Epochs: the current epoch is raised by InvalidateAll (the service's
// BumpNetworkEpoch), which drops every stored entry but never touches
// in-flight waiters — they resolve with their flight's result, which is
// simply not stored when its epoch is stale. Failed results are never
// stored either; waiters share the failure.
//
// Served copies (hits and waiter fulfillments) carry the rows, hash and
// status of the original execution but a fresh QueryStats — a cached
// answer did no I/O and ran on no worker, and bench rows stay honest.
//
// Thread-safe; one mutex. Storage is LRU-bounded at max_entries.
#ifndef MCN_EXEC_RESULT_CACHE_H_
#define MCN_EXEC_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcn/common/mutex.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/exec/query_service.h"

namespace mcn::exec {

/// One in-flight computation of a cache key — the single-flight token a
/// kMiss hands its owner. `waiters` is guarded by the owning cache's
/// mutex until Complete detaches it.
struct ResultFlight {
  std::vector<std::promise<QueryResult>> waiters;
};

class ResultCache {
 public:
  explicit ResultCache(size_t max_entries) : max_entries_(max_entries) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  struct Lookup {
    enum class Outcome { kHit, kCoalesced, kMiss };
    Outcome outcome = Outcome::kMiss;
    QueryResult cached;                    ///< kHit only
    std::future<QueryResult> future;       ///< kCoalesced only
    std::shared_ptr<ResultFlight> flight;  ///< kMiss only: the owner token
  };
  /// Looks `key` up (the key must already encode `epoch`; the epoch
  /// parameter additionally raises the cache's current epoch so stale
  /// completions racing a bump are not stored). See the file comment for
  /// the three outcomes and the kMiss owner's Complete obligation.
  Lookup Acquire(const std::string& key, uint64_t epoch) MCN_EXCLUDES(mu_);

  /// Publishes `flight`'s result: detaches the flight from the in-flight
  /// table (if it is still the one mapped at `key`), stores the result
  /// when it is OK and `epoch` is still current, and fulfills every
  /// coalesced waiter (outside the lock) with a sanitized copy — also on
  /// failure, so waiters share the flight's fate instead of hanging.
  /// Returns the number of waiters fulfilled. Idempotent per flight only:
  /// call exactly once.
  size_t Complete(const std::shared_ptr<ResultFlight>& flight,
                  const std::string& key, uint64_t epoch,
                  const QueryResult& result) MCN_EXCLUDES(mu_);

  /// Epoch bump: drops every stored entry and raises the current epoch to
  /// `new_epoch` (monotonic). In-flight entries are deliberately kept —
  /// their waiters must still resolve via Complete; the stale results are
  /// just not stored.
  void InvalidateAll(uint64_t new_epoch) MCN_EXCLUDES(mu_);

  /// What only the cache knows. Acquire outcomes are counted by the
  /// service (mcn.service.cache_{hit,miss,coalesced}), not here.
  struct Stats {
    uint64_t evictions = 0;      ///< LRU bound evictions (not invalidations)
    uint64_t invalidations = 0;  ///< InvalidateAll calls
    size_t entries = 0;          ///< stored entries at snapshot time
    size_t inflight = 0;         ///< single-flight computations at snapshot
  };
  Stats stats() const MCN_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    QueryResult result;
  };

  /// Rows + hash + status with a fresh QueryStats (see the file comment).
  static QueryResult SanitizedCopy(const QueryResult& result);

  const size_t max_entries_;
  mutable Mutex mu_;
  /// front = most recently used
  std::list<Entry> lru_ MCN_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> map_
      MCN_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<ResultFlight>> inflight_
      MCN_GUARDED_BY(mu_);
  uint64_t current_epoch_ MCN_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ MCN_GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ MCN_GUARDED_BY(mu_) = 0;
};

}  // namespace mcn::exec

#endif  // MCN_EXEC_RESULT_CACHE_H_
