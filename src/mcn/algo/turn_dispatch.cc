#include "mcn/algo/turn_dispatch.h"

#include "mcn/common/macros.h"

namespace mcn::algo {

TurnDispatcher::TurnDispatcher(expand::NnEngine* engine, ProbePolicy policy,
                               const QueryOptions& exec)
    : engine_(engine),
      policy_(policy),
      wide_(policy == ProbePolicy::kRoundRobin && exec.parallelism >= 1),
      scheduler_(exec.scheduler),
      active_(static_cast<size_t>(engine->num_costs()), true) {
  if (scheduler_ == nullptr) {
    owned_scheduler_ = std::make_unique<expand::ParallelProbeScheduler>(
        engine, /*pool=*/nullptr, /*striped=*/nullptr);
    scheduler_ = owned_scheduler_.get();
  }
  MCN_CHECK(scheduler_->engine() == engine);
  targets_.reserve(active_.size());
}

TurnDispatcher::~TurnDispatcher() = default;

int TurnDispatcher::PickExpansion() {
  const int d = static_cast<int>(active_.size());
  if (policy_ == ProbePolicy::kRoundRobin) {
    for (int step = 0; step < d; ++step) {
      const int i = (turn_ + step) % d;
      if (active_[i]) {
        turn_ = (i + 1) % d;
        return i;
      }
    }
    return -1;
  }
  int best = -1;
  double best_key = 0.0;
  for (int i = 0; i < d; ++i) {
    if (!active_[i]) continue;
    const double key = engine_->Frontier(i);
    const bool better =
        best < 0 || (policy_ == ProbePolicy::kSmallestFrontier
                         ? key < best_key
                         : key > best_key);
    if (better) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

void TurnDispatcher::CollectActive() {
  targets_.clear();
  for (int i = 0; i < static_cast<int>(active_.size()); ++i) {
    if (active_[i]) targets_.push_back(i);
  }
}

}  // namespace mcn::algo
