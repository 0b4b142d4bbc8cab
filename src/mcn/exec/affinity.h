// Best-effort CPU pinning for the service's workers (DESIGN.md §8).
// On Linux this wraps sched_setaffinity for the calling thread; elsewhere
// (and whenever the syscall is refused, e.g. restricted CI containers) it
// is a no-op that reports failure without consequence — pinning is a
// performance hint, never a correctness requirement.
#ifndef MCN_EXEC_AFFINITY_H_
#define MCN_EXEC_AFFINITY_H_

namespace mcn::exec {

/// Pins the calling thread to `cpu` (modulo the hardware concurrency).
/// Returns true when the affinity mask was actually applied.
bool PinCurrentThreadToCpu(int cpu);

/// Whether PinCurrentThreadToCpu can ever succeed on this platform.
bool AffinitySupported();

}  // namespace mcn::exec

#endif  // MCN_EXEC_AFFINITY_H_
