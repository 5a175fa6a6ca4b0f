#ifndef DYNAMAST_COMMON_SIM_CLOCK_H_
#define DYNAMAST_COMMON_SIM_CLOCK_H_

#include <chrono>

#include "common/metrics.h"

namespace dynamast::sim {

/// The one path by which simulated cost becomes wall-clock time (see
/// DESIGN.md, "Charge and settle"). Service time and network delay are
/// paid with sleeps; every sleep oversleeps its request by the kernel's
/// timer slack plus wake-up latency (~50-70 us on Linux), so one sleep per
/// charged operation would add that error once per operation.
///
/// Each thread therefore keeps two private quantities:
///  * its pending debt: simulated work charged with Charge() but not yet
///    slept off;
///  * its carry: by how much its previous sleep overran the request,
///    capped at kMaxCarry.
///
/// SimClock::Settle(extra) sleeps once for debt + extra, less the carry,
/// and records a fresh carry from that sleep alone. Time the thread spends
/// blocked elsewhere (locks, condition variables, joins) never enters the
/// carry, so it is never subtracted from a later charge.

/// Largest overshoot one sleep passes on to the next. Covers the default
/// 50 us timer slack plus wake-up latency; a longer overrun (a preempted
/// vCPU) is not paid back.
inline constexpr std::chrono::microseconds kMaxCarry{100};

/// Adds `d` to the calling thread's pending debt. Never sleeps.
void Charge(std::chrono::nanoseconds d);

class SimClock {
 public:
  /// Observes `sim_sleep_overshoot_us` in `registry` (null = the global
  /// registry): one sample per real sleep, actual minus requested.
  explicit SimClock(metrics::Registry* registry = nullptr);

  /// Sleeps once for the calling thread's pending debt plus `extra`, less
  /// its carry, and clears the debt. Returns at once when nothing is owed
  /// beyond the carry.
  void Settle(std::chrono::nanoseconds extra = {}) const;

 private:
  metrics::Histogram* overshoot_us_;
};

}  // namespace dynamast::sim

#endif  // DYNAMAST_COMMON_SIM_CLOCK_H_
