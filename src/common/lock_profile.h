#ifndef DYNAMAST_COMMON_LOCK_PROFILE_H_
#define DYNAMAST_COMMON_LOCK_PROFILE_H_

#include <cstdint>

namespace dynamast::metrics {
class Registry;
}  // namespace dynamast::metrics

namespace dynamast::lockprof {

/// Lock-contention profiling for the DYNAMAST_LOCK_PROFILE build (see
/// DESIGN.md, "Lock-contention profiler"). The Profile hook policy of
/// common/debug_mutex.h records through these functions, which export,
/// per lock *class* (the registry names "site.state", "log.topic", ...),
/// through the metrics registry:
///
///   lock_acquires_total{lock_class}            every acquisition
///   lock_contended_acquires_total{lock_class}  acquisitions that blocked
///   lock_wait_us{lock_class}                   wait time of contended
///                                              acquisitions only
///   lock_hold_us{lock_class}                   exclusive hold segments
///
/// The per-class stats are resolved against metrics::Registry::Global()
/// once per class name, at mutex construction; RegisterClass is safe for
/// static-lifetime mutexes (Global() is a function-local static).

/// Resolved metric handles for one lock class (opaque; defined in
/// lock_profile.cc where the metrics registry is a complete type).
struct ClassStats;

/// Returns the stable stats handle for `name`, resolving its four series
/// on first use. Handles live until the target registry changes.
ClassStats* RegisterClass(const char* name);

/// Redirects RegisterClass to `registry` (nullptr restores Global()) and
/// drops every cached class handle. Test isolation only: mutexes
/// constructed against the previous registry keep their old handles, so
/// scope profiled mutexes inside the test that redirects.
void SetRegistryForTest(metrics::Registry* registry);

/// Counts one acquisition; a contended one also records its wait.
void RecordAcquire(ClassStats* stats, bool contended, uint64_t wait_ns);

/// Records one exclusive hold segment.
void RecordHold(ClassStats* stats, uint64_t hold_ns);

}  // namespace dynamast::lockprof

#endif  // DYNAMAST_COMMON_LOCK_PROFILE_H_
