// ParallelProbeScheduler: the one way a query's d expansions advance
// (DESIGN.md §7). The query processors never call NnEngine::NextNN or Step
// themselves: every probe runs as part of a *turn*. A turn advances a
// target set of expansions — one probe each, executed concurrently on a
// ThreadPool<ProbeTask> when the turn is wider than one and a pool is
// bound — and the caller reads the outcomes only once every probe of the
// turn has finished (the barrier). The caller then processes the outcomes
// in a deterministic order and decides the next turn's target set.
//
// Two turn shapes cover every schedule: width-1 turns (one expansion
// advanced to its next NN, or by single settled elements) replay the
// paper's per-probe schedule exactly; wide round-robin turns advance every
// active expansion at once so their I/O can overlap.
//
// Determinism contract (what makes parallelism 1, 2 and 4 byte-identical):
//  * the target set of a turn is a pure function of algorithm state, which
//    is mutated only between turns (on the caller thread, under the
//    barrier's happens-before edges);
//  * a probe touches only its own SingleExpansion plus the shared
//    thread-safe fetch provider, whose returned record contents are
//    independent of thread interleaving (StripedCachedFetch);
//  * shared read-only inputs of a probe — the FacilityFilter above all —
//    must not be mutated while a turn is in flight (callers mutate them
//    only between turns);
//  * outcomes are read in ascending expansion index.
// Thread count therefore changes only *physical* overlap: results, logical
// fetch-request counts and (thanks to the single-flight guard) physical
// fetch counts are identical for every parallelism level.
//
// With a null pool the scheduler executes the same schedule inline on the
// caller thread. A turn allocates nothing in steady state: the probe slots
// are sized once for the engine's d expansions and keep their buffers, and
// outcomes are read in place from them until the next turn.
#ifndef MCN_EXPAND_PROBE_SCHEDULER_H_
#define MCN_EXPAND_PROBE_SCHEDULER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mcn/common/macros.h"
#include "mcn/common/mutex.h"
#include "mcn/common/status.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/exec/thread_pool.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/striped_fetch.h"
#include "mcn/obs/trace.h"

namespace mcn::expand {

class ParallelProbeScheduler;

/// What rides the probe pool's MPMC queue: one probe of one turn.
struct ProbeTask {
  ParallelProbeScheduler* scheduler = nullptr;
  uint32_t slot = 0;  ///< index into the turn's probe array
};

/// Pool type shared by every scheduler bound to it. Construct with
/// &ParallelProbeScheduler::Run and &ParallelProbeScheduler::Discard.
using ProbePool = exec::ThreadPool<ProbeTask>;

class ParallelProbeScheduler {
 public:
  struct Stats {
    uint64_t turns = 0;
    uint64_t probes = 0;
    uint64_t pooled_probes = 0;  ///< probes executed on the pool
    uint64_t max_width = 0;      ///< widest turn
  };

  /// `engine` must be backed by a thread-safe provider when `pool` is not
  /// null (pass its StripedCachedFetch as `striped` so pooled probes bind
  /// their reader slot; readers must cover pool->num_workers() + 1 slots).
  /// A null `pool` executes every turn inline on the caller thread.
  ParallelProbeScheduler(NnEngine* engine, ProbePool* pool,
                         StripedCachedFetch* striped);

  /// ThreadPool runner / discard handler for ProbeTask.
  static void Run(ProbeTask&& task, int worker);
  static void Discard(ProbeTask&& task);

  /// One NextNN per target expansion (targets strictly ascending). On
  /// success, slot k of the outcomes belongs to targets[k]: read it with
  /// expansion(k) and nn(k) (nullopt = exhausted) before the next turn.
  Status NextNNTurn(std::span<const int> targets);

  /// Up to `stride` Steps (settled elements) per target expansion; a probe
  /// stops early at exhaustion. On success, events(k) holds targets[k]'s
  /// events in execution order until the next turn.
  Status StepTurn(std::span<const int> targets, int stride);

  /// Outcomes of the last successful turn, one slot per target.
  size_t width() const { return width_; }
  int expansion(size_t slot) const { return probes_[slot].expansion; }
  const std::optional<FacilityAtCost>& nn(size_t slot) const {
    return probes_[slot].nn;
  }
  const std::vector<ExpansionEvent>& events(size_t slot) const {
    return probes_[slot].events;
  }

  NnEngine* engine() const { return engine_; }
  /// Probes that can run physically concurrently (1 for the inline mode).
  int parallelism() const {
    return pool_ != nullptr ? pool_->num_workers() : 1;
  }
  const Stats& stats() const { return stats_; }

 private:
  enum class Op { kNextNN, kStep };

  struct Probe {
    int expansion = -1;
    bool failed = false;  ///< `status` holds this turn's error
    std::optional<FacilityAtCost> nn;
    std::vector<ExpansionEvent> events;
    Status status;  ///< meaningful only when `failed`
  };

  /// Executes probe `slot` of the current turn; `reader_slot` selects the
  /// StripedCachedFetch reader (0 = caller thread, worker + 1 otherwise).
  void Execute(uint32_t slot, int reader_slot);
  void ExecuteFromPool(uint32_t slot, int worker);
  void AbortFromPool(uint32_t slot);
  Status RunTurn(Op op, std::span<const int> targets, int stride);
  /// Dispatches the turn's first `n` probes to the pool and waits at the
  /// barrier.
  void RunPooled(size_t n);

  // What every turn touches comes first, to share cache lines.
  NnEngine* engine_;
  ProbePool* pool_;
  StripedCachedFetch* striped_;
  Op op_ = Op::kNextNN;
  int stride_ = 1;
  size_t width_ = 0;
  /// One slot per expansion, allocated once; a turn uses the first width_.
  std::vector<Probe> probes_;
  Stats stats_;
  /// The owning query's trace context, captured from the caller thread at
  /// each pooled turn and re-installed on probe-pool threads so per-probe
  /// fetch events attribute to the right query (obs/trace.h). Written
  /// before the turn's probes are dispatched (happens-before via the
  /// pool's queue).
  obs::TraceContext trace_ctx_;
  Mutex mu_;
  CondVar cv_;
  /// Barrier counter: probes of the current turn not yet finished.
  size_t outstanding_ MCN_GUARDED_BY(mu_) = 0;
};

// The turn path is defined inline: a width-1 turn wraps one engine call,
// and the call boundaries would be a measurable share of its cost
// (DESIGN.md §7). Pool dispatch stays out of line.

inline void ParallelProbeScheduler::Execute(uint32_t slot, int reader_slot) {
  Probe& probe = probes_[slot];
  if (striped_ != nullptr) StripedCachedFetch::BindWorkerSlot(reader_slot);
  if (op_ == Op::kNextNN) {
    auto nn = engine_->NextNN(probe.expansion);
    if (nn.ok()) {
      probe.nn = *nn;
    } else {
      probe.failed = true;
      probe.status = nn.status();
    }
  } else {
    for (int s = 0; s < stride_; ++s) {
      auto ev = engine_->Step(probe.expansion);
      if (!ev.ok()) {
        probe.failed = true;
        probe.status = ev.status();
        break;
      }
      probe.events.push_back(*ev);
      if (ev->type == ExpansionEvent::Type::kExhausted) break;
    }
  }
}

inline Status ParallelProbeScheduler::RunTurn(Op op,
                                              std::span<const int> targets,
                                              int stride) {
  const size_t n = targets.size();
  MCN_CHECK(n >= 1 && n <= probes_.size());
  MCN_CHECK(stride >= 1);
  // Turn-barrier cancellation point (DESIGN.md §10): an expired query fails
  // the turn before any probe is dispatched, so no pool worker starts work
  // on its behalf.
  if (const CancelToken* cancel = engine_->cancel_token(); cancel != nullptr) {
    MCN_RETURN_IF_ERROR(cancel->Check());
  }
  for (size_t k = 0; k < n; ++k) {
    MCN_DCHECK(targets[k] >= 0 && targets[k] < engine_->num_costs());
    MCN_DCHECK(k == 0 || targets[k] > targets[k - 1]);  // determinism
  }
  // Span the whole turn (dispatch + barrier): arg0 = width, arg1 = pooled.
  const bool pooled = pool_ != nullptr && n > 1;
  obs::TraceSpan turn_span(obs::EventType::kExpansionTurn,
                           static_cast<uint64_t>(n));
  turn_span.set_arg1(pooled ? 1 : 0);
  ++stats_.turns;
  stats_.probes += n;
  stats_.max_width = std::max(stats_.max_width, static_cast<uint64_t>(n));

  op_ = op;
  stride_ = stride;
  // Reset the turn's probe slots in place: their event buffers keep their
  // capacity, so a turn allocates nothing in steady state.
  width_ = n;
  for (size_t k = 0; k < n; ++k) {
    Probe& probe = probes_[k];
    probe.expansion = targets[k];
    probe.failed = false;
    probe.nn.reset();
    probe.events.clear();
  }

  if (pooled) {
    RunPooled(n);
  } else {
    // Inline: same schedule, caller thread, reader slot 0.
    for (uint32_t slot = 0; slot < n; ++slot) Execute(slot, 0);
  }

  for (size_t k = 0; k < n; ++k) {
    if (probes_[k].failed) return probes_[k].status;
  }
  return Status::OK();
}

inline Status ParallelProbeScheduler::NextNNTurn(
    std::span<const int> targets) {
  return RunTurn(Op::kNextNN, targets, /*stride=*/1);
}

inline Status ParallelProbeScheduler::StepTurn(std::span<const int> targets,
                                               int stride) {
  return RunTurn(Op::kStep, targets, stride);
}

}  // namespace mcn::expand

#endif  // MCN_EXPAND_PROBE_SCHEDULER_H_
