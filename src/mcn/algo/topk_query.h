// MCN top-k processing with known k (paper §V): growing stage until k
// facilities are pinned, then a shrinking stage that steps every expansion
// one heap element per turn, pins or prunes the remaining candidates, and
// uses the frontier keys t_i for lower-bound elimination.
//
// Candidates live in a dense CandidateStore: the per-round lower-bound
// sweep streams over the live candidate list (cost rows contiguous)
// instead of scanning a hash map.
#ifndef MCN_ALGO_TOPK_QUERY_H_
#define MCN_ALGO_TOPK_QUERY_H_

#include <queue>
#include <vector>

#include "mcn/algo/candidate_store.h"
#include "mcn/algo/common.h"
#include "mcn/algo/turn_dispatch.h"
#include "mcn/common/result.h"
#include "mcn/expand/engines.h"

namespace mcn::algo {

struct TopKOptions {
  int k = 4;
  /// Shrinking-stage candidate filter (as in the skyline algorithms).
  bool use_facility_filter = true;
  /// Stop expansions with no missing candidate costs.
  bool stop_finished_expansions = true;
  /// Frontier-based lower-bound elimination of candidates (paper §V).
  bool lower_bound_pruning = true;
  ProbePolicy probe_policy = ProbePolicy::kRoundRobin;
  /// Probe schedule (DESIGN.md §7): parallelism 0 takes width-1 turns (the
  /// paper's schedule); round-robin at parallelism >= 1 advances every
  /// active expansion per turn. The ablation frontier policies always take
  /// width-1 turns.
  QueryOptions exec;
};

/// One-shot top-k computation over a fresh engine. Only reachable
/// facilities are considered; fewer than k entries are returned when the
/// query's component holds fewer facilities.
class TopKQuery {
 public:
  struct Stats {
    uint64_t nn_pops = 0;
    uint64_t facilities_seen = 0;
    uint64_t candidates_peak = 0;
    uint64_t lb_eliminations = 0;
    uint64_t replacements = 0;
    bool reached_shrinking = false;
  };

  /// `f` must be increasingly monotone over complete cost vectors.
  TopKQuery(expand::NnEngine* engine, AggregateFn f, TopKOptions options);

  /// Runs to completion; entries sorted by ascending score.
  Result<std::vector<TopKEntry>> Run();

  const Stats& stats() const { return stats_; }

 private:
  struct HeapEntry {
    double score;
    graph::FacilityId facility;
    bool operator<(const HeapEntry& o) const {
      if (score != o.score) return score < o.score;
      return facility < o.facility;
    }
  };

  bool IsCandidate(const CandidateStore::Slot& st) const {
    return !st.in_result && !st.eliminated;
  }

  Status RunGrowing();
  Status RunShrinking();
  Status HandleGrowingPop(int i, graph::FacilityId f, double cost);
  Status HandleShrinkingPop(int i, graph::FacilityId f, double cost);
  /// Inserts a pinned facility into the tentative top-k (growing).
  void AcceptPinned(uint32_t s);
  /// Resolves a pinned candidate against the current k-th score (shrinking).
  void ResolvePinned(uint32_t s);
  void Eliminate(uint32_t s);
  double KthScore() const;
  void LowerBoundSweep();
  Status BuildFilter();
  void MaybeStopExpansions();
  std::vector<TopKEntry> ExtractResult();

  expand::NnEngine* engine_;
  AggregateFn f_;
  TopKOptions opts_;
  int d_;
  TurnDispatcher turns_;
  CandidateStore store_;
  std::vector<int> missing_per_cost_;
  // Tentative result: max-heap on score; holds at most k entries.
  std::priority_queue<HeapEntry> top_;
  expand::FacilityFilter filter_;
  Stats stats_;
};

}  // namespace mcn::algo

#endif  // MCN_ALGO_TOPK_QUERY_H_
