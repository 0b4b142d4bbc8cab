#include "mcn/algo/topk_query.h"

#include <algorithm>

#include "mcn/common/macros.h"

namespace mcn::algo {

TopKQuery::TopKQuery(expand::NnEngine* engine, AggregateFn f,
                     TopKOptions options)
    : engine_(engine),
      f_(std::move(f)),
      opts_(options),
      d_(engine->num_costs()),
      turns_(engine, options.probe_policy, options.exec),
      store_(engine->num_facilities(), d_, expand::kInfCost),
      missing_per_cost_(d_, 0) {
  MCN_CHECK(opts_.k >= 1);
}

double TopKQuery::KthScore() const {
  MCN_DCHECK(!top_.empty());
  return top_.top().score;
}

Result<std::vector<TopKEntry>> TopKQuery::Run() {
  MCN_RETURN_IF_ERROR(RunGrowing());
  if (stats_.reached_shrinking) {
    MCN_RETURN_IF_ERROR(RunShrinking());
  }
  return ExtractResult();
}

Status TopKQuery::RunGrowing() {
  while (static_cast<int>(top_.size()) < opts_.k) {
    bool advanced = false;
    MCN_RETURN_IF_ERROR(turns_.Probe(
        &advanced, [&](int i, graph::FacilityId f, double cost) {
          return HandleGrowingPop(i, f, cost);
        }));
    if (!advanced) {
      // Total exhaustion: every encountered facility has been pinned, the
      // tentative top-k already holds the best of them.
      MCN_DCHECK(store_.num_candidates() == 0);
      return Status::OK();
    }
  }
  stats_.reached_shrinking = true;
  return Status::OK();
}

Status TopKQuery::HandleGrowingPop(int i, graph::FacilityId f, double cost) {
  if (static_cast<int>(top_.size()) >= opts_.k) {
    // Only reachable on wide turns: a full-width turn keeps delivering
    // pops after the k-th pin. Give them exactly the shrinking-stage
    // treatment — first-seen facilities are ignored for good, known
    // candidates resolve strictly against the k-th score — so wide and
    // width-1 turns agree even on score ties at the boundary.
    return HandleShrinkingPop(i, f, cost);
  }
  ++stats_.nn_pops;
  bool created = false;
  uint32_t s = store_.Acquire(f, &created);
  if (created) ++stats_.facilities_seen;
  store_.SetCost(s, i, cost);
  if (created) {
    store_.AddCandidate(s);
    for (int j = 0; j < d_; ++j) {
      if (j != i) ++missing_per_cost_[j];
    }
    stats_.candidates_peak =
        std::max(stats_.candidates_peak,
                 static_cast<uint64_t>(store_.num_candidates()));
  } else {
    --missing_per_cost_[i];
  }
  if (store_.slot(s).known_count == d_) AcceptPinned(s);
  return Status::OK();
}

void TopKQuery::AcceptPinned(uint32_t s) {
  CandidateStore::Slot& st = store_.slot(s);
  MCN_DCHECK(!st.pinned && IsCandidate(st));
  st.pinned = true;
  st.in_result = true;
  // All costs known, so no missing_per_cost_ updates.
  store_.RemoveCandidate(s);
  top_.push(HeapEntry{f_(store_.costs(s)), st.id});
}

Status TopKQuery::RunShrinking() {
  if (opts_.use_facility_filter) {
    MCN_RETURN_IF_ERROR(BuildFilter());
  }
  MaybeStopExpansions();
  while (store_.num_candidates() > 0) {
    // One heap element per expansion per round (paper §V: "each expansion
    // is suspended after popping one node from its heap").
    bool any_settled = false;
    MCN_RETURN_IF_ERROR(turns_.StepRound(
        &any_settled, [&](int i, graph::FacilityId f, double cost) {
          return HandleShrinkingPop(i, f, cost);
        }));
    if (opts_.lower_bound_pruning) LowerBoundSweep();
    MaybeStopExpansions();
    if (!any_settled && store_.num_candidates() > 0) {
      // Every expansion exhausted or stopped: remaining candidates can
      // never be pinned; their lower bounds are +infinity (unreachable
      // costs), so they cannot beat any pinned facility.
      while (store_.num_candidates() > 0) {
        Eliminate(store_.candidates().back());
      }
    }
  }
  return Status::OK();
}

Status TopKQuery::HandleShrinkingPop(int i, graph::FacilityId f,
                                     double cost) {
  ++stats_.nn_pops;
  uint32_t s = store_.Find(f);
  if (s == CandidateStore::kNoSlot) {
    // First popped during shrinking: not in CS, ignore for good.
    bool created = false;
    s = store_.Acquire(f, &created);
    MCN_DCHECK(created);
    store_.slot(s).eliminated = true;
    return Status::OK();
  }
  CandidateStore::Slot& st = store_.slot(s);
  if (st.eliminated || st.in_result) return Status::OK();
  store_.SetCost(s, i, cost);
  --missing_per_cost_[i];
  if (st.known_count == d_) ResolvePinned(s);
  return Status::OK();
}

void TopKQuery::ResolvePinned(uint32_t s) {
  CandidateStore::Slot& st = store_.slot(s);
  MCN_DCHECK(IsCandidate(st));
  st.pinned = true;
  double score = f_(store_.costs(s));
  if (score < KthScore()) {
    // Replaces the current k-th best (paper §V shrinking stage).
    graph::FacilityId evicted = top_.top().facility;
    top_.pop();
    uint32_t es = store_.Find(evicted);
    MCN_DCHECK(es != CandidateStore::kNoSlot);
    store_.slot(es).in_result = false;
    store_.slot(es).eliminated = true;
    top_.push(HeapEntry{score, st.id});
    st.in_result = true;
    store_.RemoveCandidate(s);
    filter_.Remove(st.id);
    ++stats_.replacements;
  } else {
    Eliminate(s);
  }
}

void TopKQuery::Eliminate(uint32_t s) {
  CandidateStore::Slot& st = store_.slot(s);
  MCN_DCHECK(IsCandidate(st));
  st.eliminated = true;
  store_.RemoveCandidate(s);
  for (int j = 0; j < d_; ++j) {
    if (!st.Knows(j)) --missing_per_cost_[j];
  }
  filter_.Remove(st.id);
}

void TopKQuery::LowerBoundSweep() {
  if (top_.empty()) return;
  double kth = KthScore();
  const std::vector<uint32_t>& cs = store_.candidates();
  // Swap-erase iteration: do not advance after eliminating the current
  // position (the tail slot lands there).
  for (size_t pos = 0; pos < cs.size();) {
    uint32_t s = cs[pos];
    const CandidateStore::Slot& st = store_.slot(s);
    graph::CostVector lb = store_.costs(s);
    for (int j = 0; j < d_; ++j) {
      if (!st.Knows(j)) lb[j] = engine_->Frontier(j);
    }
    if (f_(lb) >= kth) {
      Eliminate(s);
      ++stats_.lb_eliminations;
    } else {
      ++pos;
    }
  }
}

Status TopKQuery::BuildFilter() {
  for (uint32_t s : store_.candidates()) {
    MCN_ASSIGN_OR_RETURN(graph::EdgeKey edge,
                         engine_->LocateFacilityEdge(store_.slot(s).id));
    filter_.Add(edge, store_.slot(s).id);
  }
  engine_->SetFilter(&filter_);
  return Status::OK();
}

void TopKQuery::MaybeStopExpansions() {
  if (!opts_.stop_finished_expansions) return;
  for (int i = 0; i < d_; ++i) {
    if (turns_.active(i) && missing_per_cost_[i] == 0) turns_.Deactivate(i);
  }
}

std::vector<TopKEntry> TopKQuery::ExtractResult() {
  std::vector<TopKEntry> result;
  result.reserve(top_.size());
  while (!top_.empty()) {
    HeapEntry e = top_.top();
    top_.pop();
    uint32_t s = store_.Find(e.facility);
    result.push_back(TopKEntry{e.facility, store_.costs(s), e.score});
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace mcn::algo
