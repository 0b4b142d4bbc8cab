// Incremental MCN top-k (paper §V): k is not known in advance; NextBest()
// returns the facility with the next-smallest aggregate cost on demand.
// There is no shrinking stage and nothing is ever eliminated; a pinned
// facility is safe to report once (i) it has the smallest score among
// pinned unreported facilities and (ii) no candidate's frontier-based lower
// bound can beat it (facilities first seen after its pinning are covered by
// the expansion-order argument — see paper §V and DESIGN.md §3).
//
// Check (ii) reads a lazy min-heap of cached candidate bounds instead of
// recomputing every candidate's bound per check. Exactness argument (why
// the lazy check answers exactly what the full scan over candidates does):
//
// A candidate c's bound at a check is f(v_c), with v_c[j] its cost c_j
// when known and Frontier(j) otherwise. Each component of v_c is
// non-decreasing from check to check:
//  * Frontier(j) is the smallest key in expansion j's heap. Every push is
//    the settling key plus a non-negative edge cost (or along-edge
//    fraction of one), so pops come out in non-decreasing key order and
//    the heap's minimum never falls (stale lazy-deletion entries included;
//    +inf once exhausted).
//  * A cost c_j learned from expansion j's pop is that pop's key, which is
//    >= the heap minimum at every earlier moment — in particular >= every
//    Frontier(j) an earlier check read — provided the pop is handled
//    before any check reads a frontier past it. Every schedule does so:
//    a turn, width-1 (one NextNN) or wide (every active expansion's
//    steps), has all of its events dispatched before NextBest loops back
//    to the check.
//  * A known cost never changes.
// f is increasingly monotone, so f(v_c) never decreases while c stays a
// candidate, and a bound cached at any earlier check is still a lower
// bound on c's current one (a new candidate enters keyed -inf, trivially
// so). Hence: if the smallest cached key among live candidates is >= the
// head's score, every current bound is too — the scan would say "safe";
// and a freshly recomputed bound below the score is one the scan would
// find — "not safe". The check pops stale entries (slots pinned since),
// answers "safe" on a top key >= score, and otherwise recomputes the top
// candidate's bound, re-keys it, and answers "not safe" the moment one is
// below the score; each live candidate is recomputed at most once per
// check, since its new key is >= score. A NaN bound never blocks a report
// (the scan's std::min ignored it), so it is re-keyed +inf — exact for an
// f whose NaN bounds stay NaN; WeightedSum never yields one (it skips zero
// weights). Debug builds cross-check every decision against the full scan
// (MinCandidateLowerBound).
//
// Failure: a stream whose pull fails (I/O error, cancellation, deadline)
// is dead — the expansion may have settled a node whose adjacency fetch
// failed — so the first failure is latched and every later NextBest or
// NextBatch returns FailedPrecondition naming it (DESIGN.md §9/§10).
#ifndef MCN_ALGO_INCREMENTAL_TOPK_H_
#define MCN_ALGO_INCREMENTAL_TOPK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "mcn/algo/candidate_store.h"
#include "mcn/algo/common.h"
#include "mcn/algo/turn_dispatch.h"
#include "mcn/common/result.h"
#include "mcn/expand/engines.h"

namespace mcn::algo {

/// Iterator-style incremental top-k over a fresh engine. Only reachable
/// facilities are ever returned; after they are exhausted NextBest yields
/// nullopt forever.
class IncrementalTopK {
 public:
  struct Stats {
    uint64_t nn_pops = 0;
    uint64_t facilities_seen = 0;
    uint64_t reported = 0;
    uint64_t safety_checks = 0;
  };

  /// `f` must be increasingly monotone. `exec` picks the probe schedule
  /// (DESIGN.md §7): at parallelism 0 one expansion advances to its next
  /// NN between report-safety checks (the paper's schedule); round-robin at
  /// parallelism >= 1 advances every active expansion per turn. The
  /// ablation frontier policies always take width-1 turns.
  IncrementalTopK(expand::NnEngine* engine, AggregateFn f,
                  ProbePolicy policy = ProbePolicy::kRoundRobin,
                  QueryOptions exec = {});

  /// The facility with the next-larger aggregate cost, or nullopt when all
  /// reachable facilities have been reported. After a failed pull, every
  /// call returns FailedPrecondition (see the file comment).
  Result<std::optional<TopKEntry>> NextBest();

  /// Per-row admission filter for NextBatch (e.g. constraint cost caps);
  /// rejected rows are consumed from the ranking but not returned.
  using KeepFn = std::function<bool(const TopKEntry&)>;

  /// Session surface (DESIGN.md §9): up to `n` further NextBest results in
  /// rank order that pass `keep` (null = keep all). Fewer than `n` rows —
  /// including zero — means the reachable component is exhausted; later
  /// calls keep returning empty batches rather than failing, so a
  /// streaming client can over-ask safely. A failed pull fails the whole
  /// batch — the rows it already passed are lost with the stream, which
  /// stays failed. This is the one batch-pull loop; the service's session
  /// and one-shot incremental paths both call it.
  Result<std::vector<TopKEntry>> NextBatch(int n,
                                           const KeepFn& keep = nullptr);

  /// True once NextBest has returned nullopt (every reachable facility
  /// reported). A fresh query is not exhausted.
  bool exhausted() const { return exhausted_; }

  const Stats& stats() const { return stats_; }

 private:
  struct HeapEntry {
    double score;
    graph::FacilityId facility;
    bool operator>(const HeapEntry& o) const {
      if (score != o.score) return score > o.score;
      return facility > o.facility;
    }
  };

  /// A candidate slot keyed by its bound as of some earlier check (-inf
  /// before the first). Ties may pop in any order: the check's answer
  /// does not depend on it.
  struct BoundEntry {
    double key;
    uint32_t slot;
    bool operator>(const BoundEntry& o) const { return key > o.key; }
  };

  /// NextBest without the failure latch.
  Result<std::optional<TopKEntry>> Pull();
  /// FailedPrecondition naming the latched failure, or OK.
  Status CheckNotFailed() const;
  Status HandlePop(int i, graph::FacilityId f, double cost);
  /// Frontier-based lower bound of candidate slot `s`: f over its known
  /// costs and the current frontiers of its unknown ones.
  double CandidateBound(uint32_t s) const;
  /// True iff no candidate's bound is below `score` — the report-safety
  /// check, answered from the lazy bound heap (see the file comment).
  bool HeadIsSafe(double score);
  /// Smallest lower bound over all current candidates (+inf if none; NaN
  /// bounds ignored): the full scan HeadIsSafe is cross-checked against
  /// in Debug builds.
  double MinCandidateLowerBound() const;
  TopKEntry MakeEntry(graph::FacilityId f, double score) const;

  expand::NnEngine* engine_;
  AggregateFn f_;
  int d_;
  TurnDispatcher turns_;
  CandidateStore store_;
  // Pinned but not yet reported, min-heap by score.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      pinned_;
  // Lazy bounds of live candidates; entries of since-pinned slots are
  // dropped when they surface.
  std::priority_queue<BoundEntry, std::vector<BoundEntry>, std::greater<>>
      bounds_;
  bool exhausted_ = false;
  Status failure_;  ///< first failed pull, latched (OK = none)
  Stats stats_;
};

}  // namespace mcn::algo

#endif  // MCN_ALGO_INCREMENTAL_TOPK_H_
