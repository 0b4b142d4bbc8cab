// The one probe loop of the three query processors (DESIGN.md §7).
// SkylineQuery, TopKQuery and IncrementalTopK decide *what* to advance;
// TurnDispatcher runs it as ParallelProbeScheduler turns and hands every
// settled facility back through the processor's pop handler. The
// processors never call NnEngine::NextNN or Step themselves
// (tools/mcn_lint.py gates it). Two turn shapes:
//
//  * width-1 turns, for parallelism 0 and the ablation frontier policies:
//    the expansion PickExpansion names advances to its next NN (probing),
//    or single elements are settled one expansion at a time (the top-k
//    shrinking round, the skyline drain). This is the paper's per-probe
//    schedule, probe for probe.
//  * wide turns, for round-robin at parallelism >= 1: every active (or
//    eligible) expansion advances in the same turn — kTurnStride settled
//    elements each while probing, one each in the shrinking round and the
//    drain — so the probes' I/O can overlap.
//
// A turn's outcomes are dispatched in ascending expansion index, with each
// expansion's events in execution order: exhaustion deactivates the
// expansion, settled nodes only advance it, settled facilities go to the
// pop handler.
#ifndef MCN_ALGO_TURN_DISPATCH_H_
#define MCN_ALGO_TURN_DISPATCH_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/common/macros.h"
#include "mcn/common/status.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"

namespace mcn::algo {

/// Settled elements per expansion per wide probing turn: amortizes the
/// barrier over several near-equal-I/O probe steps (DESIGN.md §7). Part of
/// the schedule: the results' report order and the I/O counts of wide
/// turns depend on it.
inline constexpr int kTurnStride = 8;

class TurnDispatcher {
 public:
  /// Drives `engine` through `exec.scheduler`, which must be bound to it,
  /// or through an inline scheduler of its own when that is null. Every
  /// expansion starts active.
  TurnDispatcher(expand::NnEngine* engine, ProbePolicy policy,
                 const QueryOptions& exec);
  ~TurnDispatcher();

  TurnDispatcher(const TurnDispatcher&) = delete;
  TurnDispatcher& operator=(const TurnDispatcher&) = delete;

  bool active(int i) const { return active_[i]; }
  /// Stops expansion `i` (e.g. no candidate misses its cost any more).
  void Deactivate(int i) { active_[i] = false; }

  /// One probing turn: the picked expansion advances to its next NN
  /// (width-1), or every active expansion settles up to kTurnStride
  /// elements (wide). Facility pops reach `on_facility(i, id, cost) ->
  /// Status`. Sets `*advanced` to false, advancing nothing, once no
  /// expansion is active.
  template <typename FacilityFn>
  Status Probe(bool* advanced, FacilityFn&& on_facility);

  /// One top-k shrinking round (paper §V): every active expansion settles
  /// one element — in one wide turn, or in one width-1 turn per expansion
  /// in index order. Sets `*any_settled` to whether any expansion settled
  /// an element rather than reporting exhaustion.
  template <typename FacilityFn>
  Status StepRound(bool* any_settled, FacilityFn&& on_facility);

  /// One drain turn over the expansions `eligible(i)` accepts, active or
  /// stopped: each settles one element — all of them (wide) or the first
  /// (width-1). Sets `*stepped` to false, advancing nothing, when none is
  /// eligible.
  template <typename EligibleFn, typename FacilityFn>
  Status Drain(bool* stepped, EligibleFn&& eligible,
               FacilityFn&& on_facility);

 private:
  /// The expansion a width-1 probing turn advances (-1 when none is
  /// active): the next active one after the previous pick for
  /// round-robin, the smallest / largest live frontier for the ablation
  /// policies.
  int PickExpansion();
  /// Fills targets_ with the active expansions.
  void CollectActive();
  /// Dispatches the last StepTurn's events (see the file comment);
  /// `any_settled`, when non-null, is set by every non-exhausted event.
  template <typename FacilityFn>
  Status DispatchSteps(bool* any_settled, FacilityFn& on_facility);

  expand::NnEngine* engine_;
  ProbePolicy policy_;
  bool wide_;
  std::unique_ptr<expand::ParallelProbeScheduler> owned_scheduler_;
  expand::ParallelProbeScheduler* scheduler_;
  std::vector<bool> active_;
  std::vector<int> targets_;  ///< turn target scratch (no per-turn alloc)
  int turn_ = 0;              ///< round-robin position
};

template <typename FacilityFn>
Status TurnDispatcher::Probe(bool* advanced, FacilityFn&& on_facility) {
  if (wide_) {
    CollectActive();
    *advanced = !targets_.empty();
    if (!*advanced) return Status::OK();
    MCN_RETURN_IF_ERROR(scheduler_->StepTurn(targets_, kTurnStride));
    return DispatchSteps(nullptr, on_facility);
  }
  const int i = PickExpansion();
  *advanced = i >= 0;
  if (!*advanced) return Status::OK();
  MCN_RETURN_IF_ERROR(scheduler_->NextNNTurn(std::span<const int>(&i, 1)));
  const std::optional<expand::FacilityAtCost>& nn = scheduler_->nn(0);
  if (!nn.has_value()) {
    active_[i] = false;
    return Status::OK();
  }
  return on_facility(i, nn->facility, nn->cost);
}

template <typename FacilityFn>
Status TurnDispatcher::StepRound(bool* any_settled, FacilityFn&& on_facility) {
  *any_settled = false;
  if (wide_) {
    CollectActive();
    if (targets_.empty()) return Status::OK();
    MCN_RETURN_IF_ERROR(scheduler_->StepTurn(targets_, 1));
    return DispatchSteps(any_settled, on_facility);
  }
  for (int i = 0; i < static_cast<int>(active_.size()); ++i) {
    if (!active_[i]) continue;
    MCN_RETURN_IF_ERROR(
        scheduler_->StepTurn(std::span<const int>(&i, 1), /*stride=*/1));
    MCN_RETURN_IF_ERROR(DispatchSteps(any_settled, on_facility));
  }
  return Status::OK();
}

template <typename EligibleFn, typename FacilityFn>
Status TurnDispatcher::Drain(bool* stepped, EligibleFn&& eligible,
                             FacilityFn&& on_facility) {
  targets_.clear();
  for (int i = 0; i < static_cast<int>(active_.size()); ++i) {
    if (!eligible(i)) continue;
    targets_.push_back(i);
    if (!wide_) break;
  }
  *stepped = !targets_.empty();
  if (!*stepped) return Status::OK();
  // Stride 1: eligibility is re-checked per settled element.
  MCN_RETURN_IF_ERROR(scheduler_->StepTurn(targets_, 1));
  return DispatchSteps(nullptr, on_facility);
}

template <typename FacilityFn>
Status TurnDispatcher::DispatchSteps(bool* any_settled,
                                     FacilityFn& on_facility) {
  for (size_t k = 0; k < scheduler_->width(); ++k) {
    const int i = scheduler_->expansion(k);
    for (const expand::ExpansionEvent& ev : scheduler_->events(k)) {
      switch (ev.type) {
        case expand::ExpansionEvent::Type::kExhausted:
          active_[i] = false;
          break;
        case expand::ExpansionEvent::Type::kNode:
          if (any_settled != nullptr) *any_settled = true;
          break;
        case expand::ExpansionEvent::Type::kFacility:
          if (any_settled != nullptr) *any_settled = true;
          MCN_RETURN_IF_ERROR(on_facility(i, ev.id, ev.cost));
          break;
      }
    }
  }
  return Status::OK();
}

}  // namespace mcn::algo

#endif  // MCN_ALGO_TURN_DISPATCH_H_
