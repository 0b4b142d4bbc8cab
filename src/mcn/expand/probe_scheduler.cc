#include "mcn/expand/probe_scheduler.h"

#include "mcn/common/macros.h"

namespace mcn::expand {

ParallelProbeScheduler::ParallelProbeScheduler(NnEngine* engine,
                                               ProbePool* pool,
                                               StripedCachedFetch* striped)
    : engine_(engine), pool_(pool), striped_(striped) {
  MCN_CHECK(engine_ != nullptr);
  probes_.resize(static_cast<size_t>(engine_->num_costs()));
  if (pool_ != nullptr) {
    // Pooled probes run on worker threads; the provider must be the
    // thread-safe one, with a reader slot per worker plus the caller's.
    MCN_CHECK(striped_ != nullptr);
    MCN_CHECK(striped_->num_reader_slots() >= pool_->num_workers() + 1);
  }
}

void ParallelProbeScheduler::Run(ProbeTask&& task, int worker) {
  task.scheduler->ExecuteFromPool(task.slot, worker);
}

void ParallelProbeScheduler::Discard(ProbeTask&& task) {
  task.scheduler->AbortFromPool(task.slot);
}

void ParallelProbeScheduler::ExecuteFromPool(uint32_t slot, int worker) {
  // Re-install the owning query's trace context on this pool thread so
  // fetch events recorded under this probe attribute to the right query.
  const obs::TraceContextScope trace_scope(trace_ctx_);
  Execute(slot, worker + 1);
  {
    MutexLock lock(&mu_);
    MCN_DCHECK(outstanding_ > 0);
    --outstanding_;
    if (outstanding_ == 0) cv_.NotifyAll();
  }
}

void ParallelProbeScheduler::AbortFromPool(uint32_t slot) {
  // Only reachable when the pool shuts down non-draining mid-turn
  // (defensive; rigs drain queries before tearing the pool down). Unblock
  // the barrier with an error instead of hanging it.
  probes_[slot].failed = true;
  probes_[slot].status = Status::FailedPrecondition(
      "probe discarded by pool shutdown");
  MutexLock lock(&mu_);
  MCN_DCHECK(outstanding_ > 0);
  --outstanding_;
  if (outstanding_ == 0) cv_.NotifyAll();
}

void ParallelProbeScheduler::RunPooled(size_t n) {
  // Capture the caller's trace context for the pool threads.
  trace_ctx_ = obs::CurrentTraceContext();
  stats_.pooled_probes += n;
  {
    MutexLock lock(&mu_);
    outstanding_ = n;
  }
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (!pool_->Submit(ProbeTask{this, slot})) {
      // Pool shut down under us: settle this probe's barrier ticket with
      // an error; the turn fails after the in-flight probes finish.
      probes_[slot].failed = true;
      probes_[slot].status =
          Status::FailedPrecondition("probe pool is shut down");
      MutexLock lock(&mu_);
      --outstanding_;
      if (outstanding_ == 0) cv_.NotifyAll();
    }
  }
  MutexLock lock(&mu_);
  while (outstanding_ != 0) cv_.Wait(&mu_);
}

}  // namespace mcn::expand
