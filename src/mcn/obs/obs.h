// Observability compile gate (DESIGN.md §11).
//
// MCN_OBS=1 (the default) compiles the full tracing layer (obs/trace.h):
// per-query TraceContext propagation, per-thread event rings, Chrome
// trace_event export. MCN_OBS=0 (cmake -DMCN_OBS=OFF) replaces every
// tracing entry point with empty inline stubs — call sites compile
// unchanged and the optimizer erases them — for builds that want zero
// tracing residue on the hot path.
//
// The metrics registry (obs/metrics.h) and flight recorder
// (obs/flight_recorder.h) are NOT gated: they are the production stats
// surface (QueryService::MetricsSnapshot is a registry snapshot) and stay
// compiled in every build. Their hot path is lock-free relaxed atomics;
// the bench-gated overhead budget (≤2% QPS with metrics on, tracing off)
// is enforced by the CI bench smoke.
#ifndef MCN_OBS_OBS_H_
#define MCN_OBS_OBS_H_

#ifndef MCN_OBS
#define MCN_OBS 1
#endif

#endif  // MCN_OBS_OBS_H_
