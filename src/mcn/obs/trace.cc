#include "mcn/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace mcn::obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kQuery:
      return "query";
    case EventType::kAdmission:
      return "admission";
    case EventType::kQueueWait:
      return "queue_wait";
    case EventType::kExec:
      return "exec";
    case EventType::kExpansionTurn:
      return "expansion_turn";
    case EventType::kProbeFetch:
      return "probe_fetch";
    case EventType::kDominanceRound:
      return "dominance_round";
    case EventType::kSessionBatch:
      return "session_batch";
    case EventType::kWireEncode:
      return "wire_encode";
    case EventType::kWireDecode:
      return "wire_decode";
    case EventType::kStall:
      return "stall";
    case EventType::kProbePrune:
      return "probe_prune";
  }
  return "unknown";
}

#if MCN_OBS

void Tracer::Enable(size_t events_per_ring) {
  if (events_per_ring == 0) events_per_ring = 1;
  MutexLock lock(&rings_mu_);
  capacity_ = events_per_ring;
  for (auto& ring : rings_) {
    MutexLock ring_lock(&ring->mu);
    ring->events.assign(capacity_, TraceEvent{});
    ring->head = 0;
    ring->appended = 0;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

Tracer::Ring* Tracer::ThreadRing() {
  // One ring per recording thread, owned by the tracer (it must outlive
  // the thread for export). There is exactly one Tracer (Global), so a
  // plain thread_local cache is safe; rings are resized in place by
  // Enable, never freed, so the cached pointer stays valid.
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    MutexLock lock(&rings_mu_);
    rings_.push_back(std::make_unique<Ring>());
    ring = rings_.back().get();
    ring->events.assign(capacity_, TraceEvent{});
  }
  return ring;
}

void Tracer::Append(const TraceEvent& event) {
  if (!enabled()) return;
  Ring* ring = ThreadRing();
  MutexLock lock(&ring->mu);
  if (ring->events.empty()) return;
  ring->events[ring->head] = event;
  ring->head = (ring->head + 1) % ring->events.size();
  ++ring->appended;
}

void Tracer::Clear() {
  MutexLock lock(&rings_mu_);
  for (auto& ring : rings_) {
    MutexLock ring_lock(&ring->mu);
    ring->head = 0;
    ring->appended = 0;
  }
}

uint64_t Tracer::total_appended() const {
  MutexLock lock(&rings_mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    MutexLock ring_lock(&ring->mu);
    total += ring->appended;
  }
  return total;
}

namespace {

/// Event-specific argument names keep the Perfetto UI readable; every
/// event also carries the owning query id.
void AppendArgs(std::string* out, const TraceEvent& e) {
  char buf[160];
  const char* a0 = "arg0";
  const char* a1 = nullptr;
  switch (e.type) {
    case EventType::kQuery:
    case EventType::kExec:
      a0 = "kind";
      break;
    case EventType::kAdmission:
      a0 = "shard";
      break;
    case EventType::kQueueWait:
      a0 = "worker";
      break;
    case EventType::kExpansionTurn:
      a0 = "width";
      a1 = "pooled";
      break;
    case EventType::kDominanceRound:
      a0 = "round";
      break;
    case EventType::kSessionBatch:
      a0 = "n";
      break;
    case EventType::kWireEncode:
    case EventType::kWireDecode:
      a0 = "bytes";
      break;
    case EventType::kStall:
      a0 = "misses";
      break;
    case EventType::kProbePrune:
      a0 = "cut";
      a1 = "checked";
      break;
    case EventType::kProbeFetch:
      // Decoded flag bits: the hit/miss + local/remote attribution the
      // acceptance trace must show per probe fetch.
      std::snprintf(buf, sizeof(buf),
                    "{\"query\": %u, \"node\": %" PRIu64
                    ", \"miss\": %d, \"remote\": %d}",
                    e.query_id, e.arg0, (e.arg1 & kFetchMiss) ? 1 : 0,
                    (e.arg1 & kFetchRemote) ? 1 : 0);
      out->append(buf);
      return;
  }
  if (a1 != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  "{\"query\": %u, \"%s\": %" PRIu64 ", \"%s\": %" PRIu64 "}",
                  e.query_id, a0, e.arg0, a1, e.arg1);
  } else {
    std::snprintf(buf, sizeof(buf), "{\"query\": %u, \"%s\": %" PRIu64 "}",
                  e.query_id, a0, e.arg0);
  }
  out->append(buf);
}

}  // namespace

std::string Tracer::ExportChromeJson() {
  struct Tagged {
    TraceEvent event;
    int tid;
  };
  std::vector<Tagged> all;
  {
    MutexLock lock(&rings_mu_);
    for (size_t r = 0; r < rings_.size(); ++r) {
      Ring& ring = *rings_[r];
      MutexLock ring_lock(&ring.mu);
      const size_t cap = ring.events.size();
      if (cap == 0 || ring.appended == 0) continue;
      const size_t n = ring.appended < cap
                           ? static_cast<size_t>(ring.appended)
                           : cap;
      // Oldest-first: a wrapped ring's oldest event sits at head.
      const size_t start = ring.appended < cap ? 0 : ring.head;
      for (size_t i = 0; i < n; ++i) {
        all.push_back(
            {ring.events[(start + i) % cap], static_cast<int>(r + 1)});
      }
    }
  }
  // Timestamp order; an enclosing span sorts before the children it
  // shares a start with (longer duration first), which is what keeps
  // "X" events properly nested per track in the viewer.
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.event.ts_us != b.event.ts_us) {
                       return a.event.ts_us < b.event.ts_us;
                     }
                     return a.event.dur_us > b.event.dur_us;
                   });
  std::string out;
  out.reserve(128 + all.size() * 160);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[192];
  for (size_t i = 0; i < all.size(); ++i) {
    const TraceEvent& e = all[i].event;
    if (e.instant) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"mcn\", \"ph\": \"i\", "
                    "\"s\": \"t\", \"ts\": %" PRIu64
                    ", \"pid\": 1, \"tid\": %d, \"args\": ",
                    EventTypeName(e.type), e.ts_us, all[i].tid);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"mcn\", \"ph\": \"X\", "
                    "\"ts\": %" PRIu64 ", \"dur\": %u"
                    ", \"pid\": 1, \"tid\": %d, \"args\": ",
                    EventTypeName(e.type), e.ts_us, e.dur_us, all[i].tid);
    }
    out += buf;
    AppendArgs(&out, e);
    out += i + 1 < all.size() ? "},\n" : "}\n";
  }
  out += "]}\n";
  return out;
}

void TraceSpan::Finish() {
  if (!active_) return;
  active_ = false;
  Tracer& tracer = Tracer::Global();
  TraceEvent event;
  event.ts_us = start_us_;
  const uint64_t now = tracer.NowMicros();
  event.dur_us = static_cast<uint32_t>(now > start_us_ ? now - start_us_ : 0);
  event.query_id = query_id_;
  event.type = type_;
  event.arg0 = arg0_;
  event.arg1 = arg1_;
  tracer.Append(event);
}

void RecordInstant(TraceContext context, EventType type, uint64_t arg0,
                   uint64_t arg1) {
  if (!context.active()) return;
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  TraceEvent event;
  event.ts_us = tracer.NowMicros();
  event.query_id = context.query_id;
  event.type = type;
  event.arg0 = arg0;
  event.arg1 = arg1;
  event.instant = true;
  tracer.Append(event);
}

void RecordSpanSince(TraceContext context, EventType type,
                     std::chrono::steady_clock::time_point start,
                     uint64_t arg0, uint64_t arg1) {
  if (!context.active()) return;
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  TraceEvent event;
  event.ts_us = tracer.ToMicros(start);
  const uint64_t now = tracer.NowMicros();
  event.dur_us =
      static_cast<uint32_t>(now > event.ts_us ? now - event.ts_us : 0);
  event.query_id = context.query_id;
  event.type = type;
  event.arg0 = arg0;
  event.arg1 = arg1;
  tracer.Append(event);
}

#endif  // MCN_OBS

}  // namespace mcn::obs
