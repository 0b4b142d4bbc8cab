#include "mcn/algo/incremental_topk.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "mcn/common/macros.h"

namespace mcn::algo {

IncrementalTopK::IncrementalTopK(expand::NnEngine* engine, AggregateFn f,
                                 ProbePolicy policy, QueryOptions exec)
    : engine_(engine),
      f_(std::move(f)),
      d_(engine->num_costs()),
      turns_(engine, policy, exec),
      store_(engine->num_facilities(), d_, expand::kInfCost) {}

TopKEntry IncrementalTopK::MakeEntry(graph::FacilityId f,
                                     double score) const {
  uint32_t s = store_.Find(f);
  MCN_DCHECK(s != CandidateStore::kNoSlot);
  return TopKEntry{f, store_.costs(s), score};
}

double IncrementalTopK::CandidateBound(uint32_t s) const {
  const CandidateStore::Slot& st = store_.slot(s);
  graph::CostVector lb = store_.costs(s);
  for (int j = 0; j < d_; ++j) {
    if (!st.Knows(j)) lb[j] = engine_->Frontier(j);
  }
  return f_(lb);
}

bool IncrementalTopK::HeadIsSafe(double score) {
  // Every comparison with a NaN score is false: the scan never reports
  // such a head before total exhaustion, and neither does this.
  if (std::isnan(score)) return false;
  while (!bounds_.empty()) {
    const BoundEntry top = bounds_.top();
    if (store_.slot(top.slot).pinned) {
      bounds_.pop();  // pinned since it was keyed
      continue;
    }
    if (top.key >= score) return true;  // every cached key is a lower bound
    bounds_.pop();
    const double bound = CandidateBound(top.slot);
    bounds_.push(
        BoundEntry{std::isnan(bound) ? expand::kInfCost : bound, top.slot});
    if (bound < score) return false;
  }
  return true;
}

double IncrementalTopK::MinCandidateLowerBound() const {
  double min_lb = expand::kInfCost;
  for (uint32_t s : store_.candidates()) {
    min_lb = std::min(min_lb, CandidateBound(s));
  }
  return min_lb;
}

Status IncrementalTopK::CheckNotFailed() const {
  if (failure_.ok()) return Status::OK();
  return Status::FailedPrecondition(
      "incremental top-k stream failed earlier (" + failure_.ToString() +
      "); open a new query");
}

Result<std::optional<TopKEntry>> IncrementalTopK::NextBest() {
  MCN_RETURN_IF_ERROR(CheckNotFailed());
  auto next = Pull();
  if (!next.ok()) failure_ = next.status();
  return next;
}

Result<std::optional<TopKEntry>> IncrementalTopK::Pull() {
  for (;;) {
    if (!pinned_.empty()) {
      HeapEntry head = pinned_.top();
      ++stats_.safety_checks;
      const bool safe = HeadIsSafe(head.score);
      MCN_DCHECK(safe == (MinCandidateLowerBound() >= head.score));
      if (safe) {
        pinned_.pop();
        ++stats_.reported;
        return std::optional<TopKEntry>(
            MakeEntry(head.facility, head.score));
      }
    }
    bool advanced = false;
    MCN_RETURN_IF_ERROR(turns_.Probe(
        &advanced, [&](int i, graph::FacilityId f, double cost) {
          return HandlePop(i, f, cost);
        }));
    if (advanced) continue;
    // Total exhaustion: all frontiers are +inf, every remaining pinned
    // facility is safe in heap order; candidates with missing costs
    // cannot exist (see TopKQuery::RunGrowing reasoning).
    if (pinned_.empty()) {
      exhausted_ = true;
      return std::optional<TopKEntry>(std::nullopt);
    }
    HeapEntry head = pinned_.top();
    pinned_.pop();
    ++stats_.reported;
    return std::optional<TopKEntry>(MakeEntry(head.facility, head.score));
  }
}

Result<std::vector<TopKEntry>> IncrementalTopK::NextBatch(
    int n, const KeepFn& keep) {
  MCN_RETURN_IF_ERROR(CheckNotFailed());
  std::vector<TopKEntry> batch;
  if (n <= 0) return batch;
  // `n` can be remote-controlled (a wire kNext/kExecute frame): cap the
  // up-front reservation so a huge ask costs rows actually produced, not
  // an n-sized allocation.
  batch.reserve(std::min<size_t>(static_cast<size_t>(n), 1024));
  while (static_cast<int>(batch.size()) < n && !exhausted_) {
    MCN_ASSIGN_OR_RETURN(auto next, NextBest());
    if (!next.has_value()) break;
    if (keep != nullptr && !keep(*next)) continue;
    batch.push_back(*std::move(next));
  }
  return batch;
}

Status IncrementalTopK::HandlePop(int i, graph::FacilityId f, double cost) {
  ++stats_.nn_pops;
  bool created = false;
  uint32_t s = store_.Acquire(f, &created);
  if (created) {
    ++stats_.facilities_seen;
    store_.AddCandidate(s);
    bounds_.push(BoundEntry{-expand::kInfCost, s});
  }
  store_.SetCost(s, i, cost);
  CandidateStore::Slot& st = store_.slot(s);
  if (st.known_count == d_) {
    st.pinned = true;
    store_.RemoveCandidate(s);
    pinned_.push(HeapEntry{f_(store_.costs(s)), f});
  }
  return Status::OK();
}

}  // namespace mcn::algo
