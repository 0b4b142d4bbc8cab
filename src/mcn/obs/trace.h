// Query trace spans (DESIGN.md §11): a per-query TraceContext threaded
// QueryService → ExpansionExecutor → ParallelProbeScheduler →
// NetworkReader, recording typed events into preallocated per-thread ring
// buffers, exportable as Chrome trace_event JSON (chrome://tracing /
// https://ui.perfetto.dev).
//
// Model: the global Tracer is off by default. When off, every entry point
// is one relaxed atomic load + branch (and with MCN_OBS=0 the whole layer
// compiles to empty inline stubs — see obs/obs.h). When on, each thread
// appends fixed-size TraceEvents to its own ring under an uncontended
// per-ring mutex (the mutex exists so a live export can read a ring that
// is still being written — rings are never contended across threads).
// Rings are bounded and wrap: a saturated trace keeps the most recent
// events per thread, which is what a flight-recorder-style capture wants.
//
// Context propagation is by value: QueryService stamps a fresh query id at
// admission, carries it in the Task, and installs it thread-locally
// (TraceContextScope) on the executing worker; ParallelProbeScheduler
// captures the caller's context at each turn and re-installs it on
// probe-pool threads, so per-probe fetch events land under the owning
// query regardless of which thread fetched.
//
// Determinism: tracing records wall-clock observations only — it never
// feeds back into expansion order, fetch counts or result hashes.
#ifndef MCN_OBS_TRACE_H_
#define MCN_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "mcn/obs/obs.h"

#if MCN_OBS
#include <atomic>
#include <memory>
#include <vector>

#include "mcn/common/mutex.h"
#include "mcn/common/thread_annotations.h"
#endif

namespace mcn::obs {

/// Typed trace events (the taxonomy of DESIGN.md §11).
enum class EventType : uint8_t {
  kQuery = 0,       ///< whole request: admission -> completion (arg0 = kind)
  kAdmission,       ///< instant at Submit (arg0 = home shard)
  kQueueWait,       ///< admission -> start of execution (arg0 = worker)
  kExec,            ///< engine construction + computation (arg0 = kind)
  kExpansionTurn,   ///< one turn barrier (arg0 = width, arg1 = pooled)
  kProbeFetch,      ///< one record fetch (arg0 = node, arg1 = flag bits)
  kDominanceRound,  ///< one skyline drain round (arg0 = round)
  kSessionBatch,    ///< one SessionNext batch (arg0 = n)
  kWireEncode,      ///< response frame encode + send (arg0 = bytes)
  kWireDecode,      ///< request frame decode (arg0 = bytes)
  kStall,           ///< modeled I/O stall sleep (arg0 = misses)
  kProbePrune,      ///< prune-index cuts in one query (arg0 = cut,
                    ///< arg1 = checked)
};
const char* EventTypeName(EventType type);

/// kProbeFetch arg1 flag bits.
inline constexpr uint64_t kFetchMiss = 1;    ///< missed the buffer pool
inline constexpr uint64_t kFetchRemote = 2;  ///< routed off the home shard

/// By-value query identity. id 0 = not traced (tracer off at admission).
struct TraceContext {
  uint32_t query_id = 0;
  bool active() const { return query_id != 0; }
};

#if MCN_OBS

/// One recorded event; ts/dur are microseconds since the tracer epoch.
struct TraceEvent {
  uint64_t ts_us = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t dur_us = 0;
  uint32_t query_id = 0;
  EventType type = EventType::kQuery;
  bool instant = false;
};

/// Global trace collector. Enable/Disable/Export are control-plane calls;
/// Append is the data plane (see the file comment).
class Tracer {
 public:
  /// The process-wide tracer (never destroyed). Inline so a disabled
  /// span's check stays a load and a branch at every call site.
  static Tracer& Global() {
    static Tracer* const tracer = new Tracer();
    return *tracer;
  }

  /// Turns collection on. Per-thread rings hold `events_per_ring` events
  /// (existing rings are resized; their content is cleared).
  void Enable(size_t events_per_ring = 1 << 16);
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Fresh nonzero query id.
  uint32_t NewQueryId() {
    return 1 + next_query_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends to the calling thread's ring (no-op while disabled).
  void Append(const TraceEvent& event);

  /// Microseconds since the tracer epoch (a process-start steady clock).
  uint64_t NowMicros() const { return ToMicros(Clock::now()); }
  uint64_t ToMicros(std::chrono::steady_clock::time_point t) const {
    if (t < epoch_) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
  }

  /// All rings merged into a Chrome trace_event JSON document
  /// ({"traceEvents": [...]}), events in timestamp order, one tid per
  /// recording thread. Safe against concurrent appends.
  std::string ExportChromeJson();

  /// Drops every buffered event (rings stay allocated).
  void Clear();

  /// Events appended since Enable (wrapped events still count).
  uint64_t total_appended() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Ring {
    Mutex mu;
    /// fixed capacity, wraps at head
    std::vector<TraceEvent> events MCN_GUARDED_BY(mu);
    size_t head MCN_GUARDED_BY(mu) = 0;
    uint64_t appended MCN_GUARDED_BY(mu) = 0;
  };

  Tracer() : epoch_(Clock::now()) {}
  Ring* ThreadRing();

  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_query_{0};
  mutable Mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_ MCN_GUARDED_BY(rings_mu_);
  size_t capacity_ MCN_GUARDED_BY(rings_mu_) = 1 << 16;
};

namespace internal {
inline thread_local TraceContext g_trace_context;
}  // namespace internal

inline TraceContext CurrentTraceContext() {
  return internal::g_trace_context;
}

/// Installs `context` as the thread's current query for its scope.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context)
      : previous_(internal::g_trace_context) {
    internal::g_trace_context = context;
  }
  ~TraceContextScope() { internal::g_trace_context = previous_; }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext previous_;
};

/// A fresh context when tracing is on, the inactive context otherwise.
inline TraceContext StartQueryTrace() {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return {};
  return TraceContext{tracer.NewQueryId()};
}

/// RAII complete-span ("ph":"X") under the thread's current context.
/// Construction is one relaxed load + branch when tracing is off or the
/// thread has no active query.
class TraceSpan {
 public:
  explicit TraceSpan(EventType type, uint64_t arg0 = 0, bool enabled = true) {
    if (!enabled) return;
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) return;
    const TraceContext context = CurrentTraceContext();
    if (!context.active()) return;
    active_ = true;
    type_ = type;
    arg0_ = arg0;
    query_id_ = context.query_id;
    start_us_ = tracer.NowMicros();
  }
  ~TraceSpan() {
    if (active_) Finish();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }
  void set_arg0(uint64_t v) { arg0_ = v; }
  void set_arg1(uint64_t v) { arg1_ = v; }

  /// Records the event now (idempotent; the destructor calls it).
  void Finish();

 private:
  bool active_ = false;
  EventType type_ = EventType::kQuery;
  uint32_t query_id_ = 0;
  uint64_t arg0_ = 0;
  uint64_t arg1_ = 0;
  uint64_t start_us_ = 0;
};

/// Zero-duration event ("ph":"i") under `context` (useful on threads that
/// have not installed the context, e.g. Submit's caller).
void RecordInstant(TraceContext context, EventType type, uint64_t arg0 = 0,
                   uint64_t arg1 = 0);

/// Complete span whose start predates the call (e.g. queue wait measured
/// from the admission timestamp), under `context`.
void RecordSpanSince(TraceContext context, EventType type,
                     std::chrono::steady_clock::time_point start,
                     uint64_t arg0 = 0, uint64_t arg1 = 0);

#else  // !MCN_OBS — tracing compiled out; call sites build unchanged.

struct TraceEvent {};

class Tracer {
 public:
  static Tracer& Global() {
    static Tracer tracer;
    return tracer;
  }
  void Enable(size_t = 0) {}
  void Disable() {}
  bool enabled() const { return false; }
  uint32_t NewQueryId() { return 0; }
  void Append(const TraceEvent&) {}
  uint64_t NowMicros() const { return 0; }
  uint64_t ToMicros(std::chrono::steady_clock::time_point) const { return 0; }
  std::string ExportChromeJson() { return "{\"traceEvents\": []}\n"; }
  void Clear() {}
  uint64_t total_appended() const { return 0; }
};

inline TraceContext CurrentTraceContext() { return {}; }

class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext) {}
};

inline TraceContext StartQueryTrace() { return {}; }

class TraceSpan {
 public:
  explicit TraceSpan(EventType, uint64_t = 0, bool = true) {}
  bool active() const { return false; }
  void set_arg0(uint64_t) {}
  void set_arg1(uint64_t) {}
  void Finish() {}
};

inline void RecordInstant(TraceContext, EventType, uint64_t = 0,
                          uint64_t = 0) {}
inline void RecordSpanSince(TraceContext, EventType,
                            std::chrono::steady_clock::time_point,
                            uint64_t = 0, uint64_t = 0) {}

#endif  // MCN_OBS

}  // namespace mcn::obs

#endif  // MCN_OBS_TRACE_H_
