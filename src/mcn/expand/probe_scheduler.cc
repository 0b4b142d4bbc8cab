#include "mcn/expand/probe_scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "mcn/common/macros.h"
#include "mcn/storage/page.h"

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

Status ParallelProbeScheduler::FinishTurnIo() {
  uint64_t turn_max = 0;
  for (size_t k = 0; k < width_; ++k) {
    stats_.probe_misses += probes_[k].miss_delta;
    turn_max = std::max(turn_max, probes_[k].miss_delta);
  }
  stats_.overlapped_misses += turn_max;
  if (io_.batch_disk != nullptr && io_.drain_missed != nullptr) {
    batch_ids_.clear();
    io_.drain_missed(&batch_ids_);
    if (!batch_ids_.empty()) {
      obs::TraceSpan batch_span(obs::EventType::kIoBatch,
                                static_cast<uint64_t>(batch_ids_.size()));
      batch_span.set_arg1(turn_max);
      batch_buf_.resize(batch_ids_.size() * storage::kPageSize);
      batch_ptrs_.resize(batch_ids_.size());
      for (size_t i = 0; i < batch_ids_.size(); ++i) {
        batch_ptrs_[i] = batch_buf_.data() + i * storage::kPageSize;
      }
      MCN_RETURN_IF_ERROR(
          io_.batch_disk->ReadPagesBatch(batch_ids_, batch_ptrs_));
      ++stats_.io_batches;
      stats_.io_batch_pages += batch_ids_.size();
    }
  }
  if (turn_max > 0 && io_.sleep_latency_ms > 0) {
    obs::TraceSpan stall_span(obs::EventType::kStall, turn_max);
    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        static_cast<double>(turn_max) * io_.sleep_latency_ms));
    stats_.slept_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return Status::OK();
}

}  // namespace mcn::expand
