// Fixed-size thread-pool executor over the lock-free MpmcQueue.
//
// The pool is templated on the task type so move-only payloads (e.g. an
// api::QuerySpec bundled with its std::promise) ride the queue without
// type-erasure allocations; one Runner functor, supplied at construction,
// executes every task and receives the worker index (the QueryService
// pins pool thread i to CPU i with it; its query state lives in execution
// slots that any thread may claim, DESIGN.md §6).
//
// Blocking is layered over the lock-free ring with two counting semaphores
// (items/spaces) — the queue operations themselves stay lock-free, the
// semaphores only park threads when the ring is empty/full.
//
// Lifecycle:
//   Submit()            enqueue; blocks while the ring is full; false once
//                       shutdown has begun.
//   Drain()             wait until every submitted task has finished.
//   Shutdown(drain)     stop accepting; drain=true runs the backlog first,
//                       drain=false hands the backlog to the discard
//                       handler (or simply destroys it) without running it.
//   ~ThreadPool()       Shutdown(/*drain=*/true).
#ifndef MCN_EXEC_THREAD_POOL_H_
#define MCN_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "mcn/common/macros.h"
#include "mcn/common/mutex.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/exec/mpmc_queue.h"

namespace mcn::exec {

/// Minimal counting semaphore (mutex + condvar). The futex-free
/// implementation keeps ThreadSanitizer fully aware of the happens-before
/// edges; the cost is irrelevant next to a query execution.
class Semaphore {
 public:
  explicit Semaphore(ptrdiff_t initial) : count_(initial) {}

  void Acquire() MCN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (count_ <= 0) cv_.Wait(&mu_);
    --count_;
  }

  /// Non-blocking Acquire: takes a ticket iff one is available right now.
  bool TryAcquire() MCN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (count_ <= 0) return false;
    --count_;
    return true;
  }

  void Release(ptrdiff_t n = 1) MCN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      count_ += n;
    }
    if (n == 1) {
      cv_.NotifyOne();
    } else {
      cv_.NotifyAll();
    }
  }

 private:
  Mutex mu_;
  CondVar cv_;
  ptrdiff_t count_ MCN_GUARDED_BY(mu_);
};

/// Fixed pool of `num_workers` threads executing tasks of type `Task`.
/// Task must be movable and default-constructible.
template <typename Task>
class ThreadPool {
 public:
  /// Runner executes one task on worker `worker` (0 <= worker < N). It is
  /// shared by all workers and must be safe to call concurrently.
  using Runner = std::function<void(Task&&, int worker)>;
  /// Called (from the thread driving Shutdown) for every task discarded by
  /// a non-draining shutdown, e.g. to settle a bundled promise with an
  /// error value. May be null: discarded tasks are then just destroyed.
  using DiscardHandler = std::function<void(Task&&)>;

  ThreadPool(int num_workers, size_t queue_capacity, Runner runner,
             DiscardHandler on_discard = nullptr)
      : queue_(queue_capacity),
        items_(0),
        spaces_(static_cast<ptrdiff_t>(queue_.capacity())),
        runner_(std::move(runner)),
        on_discard_(std::move(on_discard)) {
    MCN_CHECK(num_workers > 0);
    MCN_CHECK(runner_ != nullptr);
    threads_.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) {
      threads_.emplace_back([this, w] { WorkerMain(w); });
    }
  }

  ~ThreadPool() { Shutdown(/*drain=*/true); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }
  size_t queue_capacity() const { return queue_.capacity(); }

  /// Total tasks executed by the workers (excludes discarded ones).
  uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task; blocks while the queue is full (back-pressure).
  /// Returns false — and does not consume the task slot — once shutdown
  /// has begun.
  bool Submit(Task&& task) {
    // The in-flight count lets Shutdown wait out submissions that raced
    // past the accepting_ check, so no task can land in the ring after
    // the workers are gone and the discard sweep has run.
    inflight_submits_.fetch_add(1, std::memory_order_acq_rel);
    if (!accepting_.load(std::memory_order_acquire)) {
      inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    spaces_.Acquire();
    if (!accepting_.load(std::memory_order_acquire)) {
      spaces_.Release();
      inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    {
      MutexLock lock(&pending_mu_);
      ++pending_;
    }
    // A ticket from `spaces_` guarantees room; TryPush only fails
    // transiently while a consumer is still clearing the cell.
    while (!queue_.TryPush(std::move(task))) std::this_thread::yield();
    items_.Release();
    inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  /// Non-blocking Submit for admission control (DESIGN.md §10): never
  /// parks on a full ring. Outcomes: kAccepted (task enqueued), kFull (ring
  /// is full right now — the caller load-sheds), kShutdown (pool no longer
  /// accepts). The task is consumed only on kAccepted.
  enum class TryResult { kAccepted, kFull, kShutdown };
  TryResult TrySubmit(Task&& task) {
    inflight_submits_.fetch_add(1, std::memory_order_acq_rel);
    if (!accepting_.load(std::memory_order_acquire)) {
      inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
      return TryResult::kShutdown;
    }
    if (!spaces_.TryAcquire()) {
      inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
      return TryResult::kFull;
    }
    if (!accepting_.load(std::memory_order_acquire)) {
      spaces_.Release();
      inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
      return TryResult::kShutdown;
    }
    {
      MutexLock lock(&pending_mu_);
      ++pending_;
    }
    while (!queue_.TryPush(std::move(task))) std::this_thread::yield();
    items_.Release();
    inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
    return TryResult::kAccepted;
  }

  /// Blocks until every task submitted so far has finished executing.
  /// (Only meaningful while no concurrent submitter is racing the wait.)
  void Drain() MCN_EXCLUDES(pending_mu_) {
    MutexLock lock(&pending_mu_);
    while (pending_ != 0) pending_cv_.Wait(&pending_mu_);
  }

  /// Stops the pool. Idempotent; see the file comment for drain semantics.
  void Shutdown(bool drain = true) {
    bool was_accepting = accepting_.exchange(false);
    if (!was_accepting && threads_.empty()) return;  // already shut down
    // Wait for racing Submit calls to either land their task (it is then
    // counted in pending_ and drained/discarded below) or observe
    // accepting_ == false and bail. The workers are still running here,
    // so a submitter parked on a full ring always gets unblocked.
    while (inflight_submits_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    if (drain) Drain();
    stop_.store(true, std::memory_order_release);
    items_.Release(static_cast<ptrdiff_t>(threads_.size()));
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    // Discard whatever was not drained.
    Task task;
    size_t discarded = 0;
    while (queue_.TryPop(task)) {
      if (on_discard_) on_discard_(std::move(task));
      task = Task();
      ++discarded;
    }
    if (discarded > 0) {
      MutexLock lock(&pending_mu_);
      MCN_DCHECK(pending_ >= discarded);
      pending_ -= discarded;
      pending_cv_.NotifyAll();
    }
    // Unblock any submitter still parked on a full ring; accepting_ is
    // false, so it will observe the shutdown and return the ticket.
    spaces_.Release(static_cast<ptrdiff_t>(queue_.capacity()));
  }

 private:
  void WorkerMain(int worker) {
    for (;;) {
      items_.Acquire();
      if (stop_.load(std::memory_order_acquire)) return;
      Task task;
      while (!queue_.TryPop(task)) {
        if (stop_.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
      runner_(std::move(task), worker);
      spaces_.Release();
      executed_.fetch_add(1, std::memory_order_relaxed);
      {
        MutexLock lock(&pending_mu_);
        MCN_DCHECK(pending_ > 0);
        --pending_;
        if (pending_ == 0) pending_cv_.NotifyAll();
      }
    }
  }

  MpmcQueue<Task> queue_;
  Semaphore items_;   ///< tickets for published tasks
  Semaphore spaces_;  ///< tickets for free ring cells
  Runner runner_;
  DiscardHandler on_discard_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stop_{false};
  std::atomic<int> inflight_submits_{0};
  std::atomic<uint64_t> executed_{0};
  Mutex pending_mu_;
  CondVar pending_cv_;
  /// Submitted but not yet finished (or discarded).
  size_t pending_ MCN_GUARDED_BY(pending_mu_) = 0;
  std::vector<std::thread> threads_;
};

}  // namespace mcn::exec

#endif  // MCN_EXEC_THREAD_POOL_H_
