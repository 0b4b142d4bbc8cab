// Progressive MCN skyline processing (paper §IV). The query is driven over
// an NnEngine; plugging in LsaEngine yields the Local Search Algorithm,
// CeaEngine the Combined Expansion Algorithm (both traverse facilities in
// the same order, so results and report order are identical — only the I/O
// behavior differs), and MemEngine a zero-I/O in-memory run.
//
// The implementation includes all three §IV-A enhancements, each
// individually switchable for the ablation benchmarks:
//  1. the first NN of each cost type is reported as skyline immediately;
//  2. during shrinking, facility records are read only for candidate edges
//     (the candidate filter, built with one facility-tree probe per
//     candidate at the growing/shrinking transition);
//  3. an expansion stops once every candidate knows its cost type.
//
// Two soundness refinements over the paper (DESIGN.md §3):
//  * Tie handling: candidates are eliminated only on a *strict* known-cost
//    dominance witness, and exact frontier ties are drained before the
//    shrinking stage begins, so facilities with identical cost vectors are
//    all retained (the paper's footnote 4 assumes ties away).
//  * Enhancement-1 interaction: a pinned candidate is reported only after
//    no *non-pinned* skyline member (a directly-reported first NN that the
//    candidate filter excludes from further pops) can still dominate it;
//    potential dominators are resolved by a bounded frontier drain.
//
// Per-facility state lives in a dense CandidateStore (DESIGN.md §4):
// dominance sweeps iterate only the live candidate / non-pinned skyline
// lists instead of hashing into (or fully scanning) a map per event.
#ifndef MCN_ALGO_SKYLINE_QUERY_H_
#define MCN_ALGO_SKYLINE_QUERY_H_

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "mcn/algo/candidate_store.h"
#include "mcn/algo/common.h"
#include "mcn/algo/turn_dispatch.h"
#include "mcn/common/result.h"
#include "mcn/expand/engines.h"

namespace mcn::algo {

class PruneOracle;

struct SkylineOptions {
  /// §IV-A enhancement 1: report each cost type's first NN directly.
  bool report_first_nn = true;
  /// §IV-A enhancement 2: shrinking-stage candidate filter.
  bool use_facility_filter = true;
  /// §IV-A enhancement 3: stop expansions with no missing candidate costs.
  bool stop_finished_expansions = true;
  /// Expansion multiplexing policy (round-robin per the paper).
  ProbePolicy probe_policy = ProbePolicy::kRoundRobin;
  /// Probe schedule (DESIGN.md §7): parallelism 0 probes one expansion per
  /// turn (the paper's schedule); round-robin at parallelism >= 1 advances
  /// every active expansion per turn (concurrently when the scheduler has
  /// a pool). The ablation frontier policies always take width-1 turns.
  QueryOptions exec;
};

/// Progressive skyline computation: every facility returned by Next() is
/// definitely in the skyline (never retracted).
class SkylineQuery {
 public:
  struct Stats {
    uint64_t nn_pops = 0;           ///< facility pops across all expansions
    uint64_t dominance_checks = 0;
    uint64_t candidates_peak = 0;   ///< max |CS|
    uint64_t facilities_seen = 0;
    uint64_t skyline_size = 0;
    uint64_t drain_rounds = 0;      ///< tie/threat drain steps
    uint64_t deferred_pins = 0;     ///< candidate reports deferred
    uint64_t prune_checked = 0;     ///< node pops the prune oracle examined
    uint64_t prune_cut = 0;         ///< node expansions elided by the oracle
    bool reached_shrinking = false;
  };

  /// `engine` must outlive the query and be freshly created at the query
  /// location (engines are single-use).
  explicit SkylineQuery(expand::NnEngine* engine, SkylineOptions options = {});
  ~SkylineQuery();

  /// Next confirmed skyline facility, or nullopt when the skyline is
  /// complete. Costs reflect what is known at retrieval time.
  Result<std::optional<SkylineEntry>> Next();

  /// Runs the query to completion and returns all skyline facilities in
  /// report order, with their final (possibly still partial) cost vectors.
  Result<std::vector<SkylineEntry>> ComputeAll();

  const Stats& stats() const { return stats_; }
  bool done() const { return done_ && output_.empty(); }

 private:
  // kDrain is the (usually empty) transition used in two places: after the
  // first pin — stepping expansions while their frontier still ties the
  // pinned facility's cost, so exactly-tying unseen facilities are still
  // admitted — and after a deferred candidate pin, to resolve non-pinned
  // potential dominators. Costs no extra pops in generic position.
  enum class Stage { kGrowing, kDrain, kShrinking };

  bool IsCandidate(const CandidateStore::Slot& st) const {
    return !st.in_result && !st.eliminated && !st.pending;
  }

  /// One turn of the probe schedule (a drain turn during a drain).
  Status Advance();
  /// One drain turn; completes the transition back to shrinking when every
  /// frontier has moved past the drain boundary.
  Status DrainTurn();
  /// Epilogue of a completed drain.
  Status FinishDrain();
  Status HandlePop(int i, graph::FacilityId f, double cost);
  Status Pin(uint32_t s);
  /// Moves a candidate slot into the skyline and queues it for output.
  void PromoteToSkyline(uint32_t s);
  /// Removes a candidate slot from CS as dominated.
  void Eliminate(uint32_t s);
  /// Strict known-cost dominance sweep against a just-pinned slot.
  void EliminateDominatedBy(uint32_t pinned);
  /// True if some pinned skyline member strictly dominates `costs`.
  bool DominatedByPinnedSkyline(const graph::CostVector& costs);
  /// True if a non-pinned skyline member could still dominate `costs`
  /// (known costs all <=, a strict known witness, unknown costs exactly at
  /// the matching frontiers).
  bool ThreatenedByNonPinnedSkyline(const graph::CostVector& costs);
  /// Resolves deferred pins after a drain (report or eliminate).
  void ResolvePendingPins();
  Status BuildFilter();
  void MaybeStopExpansions();
  /// Defensive: resolves remaining candidates after total exhaustion.
  Status FinalizeRemaining();
  SkylineEntry MakeEntry(graph::FacilityId f) const;

  expand::NnEngine* engine_;
  SkylineOptions opts_;
  int d_;
  TurnDispatcher turns_;
  Stage stage_ = Stage::kGrowing;
  bool done_ = false;
  /// True once the first drain finished: from then on, newly popped
  /// facilities are no longer admitted to CS (paper's shrinking rule).
  bool growing_over_ = false;
  CandidateStore store_;
  std::vector<int> missing_per_cost_;
  // Non-pinned skyline members (directly-reported first NNs) still missing
  // each cost: expansions stay alive for them while candidates remain, so
  // their dominance power is never lost (DESIGN.md §3).
  std::vector<int> sky_missing_per_cost_;
  std::vector<bool> first_nn_taken_;
  std::vector<uint32_t> pinned_skyline_;  ///< store slots
  graph::CostVector drain_boundary_;
  std::vector<uint32_t> pending_pins_;    ///< store slots
  expand::FacilityFilter filter_;
  bool filter_installed_ = false;
  // Landmark prune oracle (DESIGN.md §12), created at BuildFilter when the
  // run is round-robin at parallelism 0 and a validated index was supplied.
  std::unique_ptr<PruneOracle> pruner_;
  std::deque<graph::FacilityId> output_;
  Stats stats_;
};

}  // namespace mcn::algo

#endif  // MCN_ALGO_SKYLINE_QUERY_H_
