#include "mcn/algo/skyline_query.h"

#include <algorithm>
#include <utility>

#include "mcn/algo/prune_oracle.h"
#include "mcn/common/macros.h"
#include "mcn/obs/trace.h"

namespace mcn::algo {

SkylineQuery::SkylineQuery(expand::NnEngine* engine, SkylineOptions options)
    : engine_(engine),
      opts_(options),
      d_(engine->num_costs()),
      turns_(engine, options.probe_policy, options.exec),
      store_(engine->num_facilities(), d_, expand::kInfCost),
      missing_per_cost_(d_, 0),
      sky_missing_per_cost_(d_, 0),
      first_nn_taken_(d_, false) {}

SkylineQuery::~SkylineQuery() = default;

SkylineEntry SkylineQuery::MakeEntry(graph::FacilityId f) const {
  uint32_t s = store_.Find(f);
  MCN_DCHECK(s != CandidateStore::kNoSlot);
  return SkylineEntry{f, store_.costs(s), store_.slot(s).known_mask};
}

Result<std::optional<SkylineEntry>> SkylineQuery::Next() {
  while (output_.empty() && !done_) {
    MCN_RETURN_IF_ERROR(Advance());
  }
  if (output_.empty()) return std::optional<SkylineEntry>(std::nullopt);
  graph::FacilityId f = output_.front();
  output_.pop_front();
  return std::optional<SkylineEntry>(MakeEntry(f));
}

Result<std::vector<SkylineEntry>> SkylineQuery::ComputeAll() {
  std::vector<graph::FacilityId> order;
  for (;;) {
    while (output_.empty() && !done_) {
      MCN_RETURN_IF_ERROR(Advance());
    }
    if (output_.empty()) break;
    order.push_back(output_.front());
    output_.pop_front();
  }
  std::vector<SkylineEntry> entries;
  entries.reserve(order.size());
  for (graph::FacilityId f : order) entries.push_back(MakeEntry(f));
  return entries;
}

Status SkylineQuery::Advance() {
  if (stage_ == Stage::kDrain) return DrainTurn();
  // A pin inside a wide turn's dispatch switches stage_/drain_boundary_
  // for the *next* turn; the remaining buffered pops of this turn are real
  // settled facilities and go through the same handler.
  bool advanced = false;
  MCN_RETURN_IF_ERROR(
      turns_.Probe(&advanced, [&](int i, graph::FacilityId f, double cost) {
        return HandlePop(i, f, cost);
      }));
  if (advanced) return Status::OK();
  // Every expansion exhausted or stopped.
  if (store_.num_candidates() > 0) return FinalizeRemaining();
  done_ = true;
  return Status::OK();
}

Status SkylineQuery::DrainTurn() {
  ++stats_.drain_rounds;
  obs::RecordInstant(obs::CurrentTraceContext(),
                     obs::EventType::kDominanceRound, stats_.drain_rounds);
  // Stopped expansions may still hold the boundary key: step them too
  // (their stopped status resumes after the drain).
  bool stepped = false;
  MCN_RETURN_IF_ERROR(turns_.Drain(
      &stepped,
      [&](int i) {
        return !engine_->Exhausted(i) &&
               !(engine_->Frontier(i) > drain_boundary_[i]);
      },
      [&](int i, graph::FacilityId f, double cost) {
        return HandlePop(i, f, cost);
      }));
  // All frontiers are strictly past the boundary: nothing at the boundary
  // is still unseen.
  if (!stepped) return FinishDrain();
  return Status::OK();
}

Status SkylineQuery::FinishDrain() {
  // Resolve deferred pins, then resume shrinking.
  stage_ = Stage::kShrinking;
  ResolvePendingPins();
  if (!growing_over_) {
    growing_over_ = true;
    if (store_.num_candidates() > 0 && opts_.use_facility_filter) {
      MCN_RETURN_IF_ERROR(BuildFilter());
    }
  }
  MaybeStopExpansions();
  if (store_.num_candidates() == 0) done_ = true;
  return Status::OK();
}

Status SkylineQuery::HandlePop(int i, graph::FacilityId f, double cost) {
  ++stats_.nn_pops;
  bool created = false;
  uint32_t s = store_.Acquire(f, &created);
  CandidateStore::Slot& st = store_.slot(s);
  if (created) ++stats_.facilities_seen;
  if (st.eliminated) return Status::OK();
  // After the first drain, newly popped facilities are no longer part of
  // CS — the shrinking stage ignores them (paper §IV-A); any such facility
  // is strictly dominated by the first pinned one (DESIGN.md §3).
  bool growing_like = !growing_over_;
  if (!growing_like && created) {
    st.eliminated = true;
    return Status::OK();
  }

  store_.SetCost(s, i, cost);

  if (growing_like) {
    if (created) {
      store_.AddCandidate(s);
      for (int j = 0; j < d_; ++j) {
        if (j != i) ++missing_per_cost_[j];
      }
      stats_.candidates_peak =
          std::max(stats_.candidates_peak,
                   static_cast<uint64_t>(store_.num_candidates()));
    } else if (IsCandidate(st)) {
      --missing_per_cost_[i];
    }
    if (st.in_result && !st.pinned) {
      --sky_missing_per_cost_[i];
    }
    if (opts_.report_first_nn && !first_nn_taken_[i]) {
      // The i-th expansion's first NN cannot be dominated: report directly.
      first_nn_taken_[i] = true;
      if (!st.in_result) PromoteToSkyline(s);
    }
  } else if (IsCandidate(st)) {
    --missing_per_cost_[i];
  } else if (st.in_result && !st.pinned) {
    --sky_missing_per_cost_[i];
  }

  if (st.known_count == d_) {
    MCN_RETURN_IF_ERROR(Pin(s));
  }
  if (stage_ == Stage::kShrinking) MaybeStopExpansions();
  return Status::OK();
}

void SkylineQuery::PromoteToSkyline(uint32_t s) {
  CandidateStore::Slot& st = store_.slot(s);
  MCN_DCHECK(IsCandidate(st));
  st.in_result = true;
  store_.RemoveCandidate(s);
  for (int j = 0; j < d_; ++j) {
    if (!st.Knows(j)) {
      --missing_per_cost_[j];
      ++sky_missing_per_cost_[j];
    }
  }
  if (!st.pinned) store_.AddSkyUnpinned(s);
  filter_.Remove(st.id);
  output_.push_back(st.id);
  ++stats_.skyline_size;
}

void SkylineQuery::Eliminate(uint32_t s) {
  CandidateStore::Slot& st = store_.slot(s);
  MCN_DCHECK(IsCandidate(st));
  st.eliminated = true;
  store_.RemoveCandidate(s);
  for (int j = 0; j < d_; ++j) {
    if (!st.Knows(j)) --missing_per_cost_[j];
  }
  filter_.Remove(st.id);
}

void SkylineQuery::EliminateDominatedBy(uint32_t pinned) {
  const graph::CostVector& pc = store_.costs(pinned);
  const std::vector<uint32_t>& cs = store_.candidates();
  // Swap-erase iteration: when the current slot is eliminated, the tail
  // lands at `pos`, so the index must not advance.
  for (size_t pos = 0; pos < cs.size();) {
    uint32_t s = cs[pos];
    // Every Pin path removes the pinned slot from CS before sweeping.
    MCN_DCHECK(s != pinned);
    const CandidateStore::Slot& st = store_.slot(s);
    ++stats_.dominance_checks;
    // Known costs of the candidate are enough: its unknown costs are at
    // least the corresponding frontier, hence at least the pinned
    // facility's costs. Elimination requires a strict witness among the
    // known costs (DESIGN.md §3).
    const graph::CostVector& sc = store_.costs(s);
    bool leq_all = true;
    bool strict = false;
    for (int j = 0; j < d_; ++j) {
      if (!st.Knows(j)) continue;
      if (pc[j] > sc[j]) {
        leq_all = false;
        break;
      }
      if (pc[j] < sc[j]) strict = true;
    }
    if (leq_all && strict) {
      Eliminate(s);
    } else {
      ++pos;
    }
  }
}

bool SkylineQuery::DominatedByPinnedSkyline(const graph::CostVector& costs) {
  for (uint32_t m : pinned_skyline_) {
    ++stats_.dominance_checks;
    if (store_.costs(m).Dominates(costs)) return true;
  }
  return false;
}

bool SkylineQuery::ThreatenedByNonPinnedSkyline(
    const graph::CostVector& costs) {
  for (uint32_t m : store_.sky_unpinned()) {
    const CandidateStore::Slot& mst = store_.slot(m);
    ++stats_.dominance_checks;
    // m could dominate `costs` only if every known cost is <= (with a
    // strict witness) and every unknown cost sits exactly at a frontier
    // equal to ours (the frontier already reached our cost because we are
    // pinned, so anything larger disqualifies m).
    const graph::CostVector& mc = store_.costs(m);
    bool possible = true;
    bool strict = false;
    for (int j = 0; j < d_; ++j) {
      if (mst.Knows(j)) {
        if (mc[j] > costs[j]) {
          possible = false;
          break;
        }
        if (mc[j] < costs[j]) strict = true;
      } else if (engine_->Frontier(j) != costs[j]) {
        possible = false;
        break;
      }
    }
    if (possible && strict) return true;
  }
  return false;
}

void SkylineQuery::ResolvePendingPins() {
  for (uint32_t s : pending_pins_) {
    CandidateStore::Slot& st = store_.slot(s);
    MCN_DCHECK(st.pending && st.pinned);
    st.pending = false;
    if (DominatedByPinnedSkyline(store_.costs(s))) {
      st.eliminated = true;
    } else {
      st.in_result = true;
      output_.push_back(st.id);
      ++stats_.skyline_size;
      pinned_skyline_.push_back(s);
      EliminateDominatedBy(s);
    }
  }
  pending_pins_.clear();
}

Status SkylineQuery::Pin(uint32_t s) {
  CandidateStore::Slot& st = store_.slot(s);
  MCN_DCHECK(!st.pinned);
  st.pinned = true;

  if (stage_ == Stage::kGrowing) {
    // First pinned facility: growing ends (paper §IV-A). Before the real
    // shrinking stage starts, drain exact frontier ties (DESIGN.md §3).
    stage_ = Stage::kDrain;
    stats_.reached_shrinking = true;
    drain_boundary_ = store_.costs(s);
    if (!st.in_result) {
      PromoteToSkyline(s);
    } else {
      store_.RemoveSkyUnpinned(s);
    }
    pinned_skyline_.push_back(s);
    EliminateDominatedBy(s);
    return Status::OK();
  }

  if (st.in_result) {
    // A facility reported via the first-NN enhancement got pinned later:
    // it now participates in candidate elimination (paper §IV-A).
    store_.RemoveSkyUnpinned(s);
    filter_.Remove(st.id);
    pinned_skyline_.push_back(s);
    EliminateDominatedBy(s);
  } else if (DominatedByPinnedSkyline(store_.costs(s))) {
    Eliminate(s);
  } else if (ThreatenedByNonPinnedSkyline(store_.costs(s))) {
    // Defer the report until a drain resolves the potential dominators.
    ++stats_.deferred_pins;
    st.pending = true;
    store_.RemoveCandidate(s);  // fully known: no missing_per_cost_ updates
    filter_.Remove(st.id);
    pending_pins_.push_back(s);
    if (stage_ != Stage::kDrain) {
      stage_ = Stage::kDrain;
      drain_boundary_ = store_.costs(s);
    } else {
      for (int j = 0; j < d_; ++j) {
        drain_boundary_[j] = std::max(drain_boundary_[j], store_.costs(s)[j]);
      }
    }
  } else {
    PromoteToSkyline(s);
    pinned_skyline_.push_back(s);
    EliminateDominatedBy(s);
  }
  if (stage_ == Stage::kShrinking && store_.num_candidates() == 0 &&
      pending_pins_.empty()) {
    done_ = true;
  }
  return Status::OK();
}

Status SkylineQuery::BuildFilter() {
  // Landmark pruning (DESIGN.md §12) is confined to round-robin width-1
  // turns (parallelism 0): the ablation frontier policies compare live
  // frontier keys when picking, and wide turns stride through settled
  // elements — both observe which nodes expanded, so eliding expansions
  // there would change the event order. Round-robin NextNN turns only
  // observe facility pops.
  const bool want_pruner = opts_.exec.landmark_index != nullptr &&
                           opts_.exec.parallelism == 0 &&
                           opts_.probe_policy == ProbePolicy::kRoundRobin;
  std::vector<PruneOracle::ProtectedFacility> snapshot;
  // Candidates and non-pinned skyline members both stay visible to the
  // shrinking-stage expansions.
  for (const std::vector<uint32_t>* list :
       {&store_.candidates(), &store_.sky_unpinned()}) {
    for (uint32_t s : *list) {
      graph::FacilityId id = store_.slot(s).id;
      MCN_ASSIGN_OR_RETURN(graph::EdgeKey edge,
                           engine_->LocateFacilityEdge(id));
      filter_.Add(edge, id);
      if (want_pruner) snapshot.push_back({id, edge.u, edge.v});
    }
  }
  engine_->SetFilter(&filter_);
  filter_installed_ = true;
  if (want_pruner && !snapshot.empty()) {
    MCN_ASSIGN_OR_RETURN(
        pruner_,
        PruneOracle::Create(engine_, opts_.exec.landmark_index, &filter_,
                            std::move(snapshot), &stats_.prune_checked,
                            &stats_.prune_cut));
    engine_->SetPruner(pruner_.get());
  }
  return Status::OK();
}

void SkylineQuery::MaybeStopExpansions() {
  if (!opts_.stop_finished_expansions) return;
  MCN_DCHECK(stage_ == Stage::kShrinking);
  for (int i = 0; i < d_; ++i) {
    if (turns_.active(i) && missing_per_cost_[i] == 0 &&
        sky_missing_per_cost_[i] == 0) {
      turns_.Deactivate(i);
    }
  }
}

Status SkylineQuery::FinalizeRemaining() {
  // Only reachable in pathological setups (e.g. every expansion exhausted
  // before any pin, which requires an empty reachable facility set, or
  // defensive recovery): resolve remaining candidates with what is known,
  // treating unknown costs as +infinity.
  std::vector<uint32_t> remaining(store_.candidates());
  std::sort(remaining.begin(), remaining.end(),
            [this](uint32_t a, uint32_t b) {
              return store_.slot(a).id < store_.slot(b).id;
            });
  for (uint32_t s : remaining) {
    CandidateStore::Slot& st = store_.slot(s);
    if (!IsCandidate(st)) continue;  // eliminated by an earlier iteration
    bool dominated = false;
    for (uint32_t o = 0; o < store_.size(); ++o) {
      if (o == s || store_.slot(o).eliminated) continue;
      ++stats_.dominance_checks;
      if (store_.costs(o).Dominates(store_.costs(s))) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      Eliminate(s);
    } else {
      PromoteToSkyline(s);
    }
  }
  done_ = true;
  return Status::OK();
}

}  // namespace mcn::algo
