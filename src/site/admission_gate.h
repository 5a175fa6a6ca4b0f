#ifndef DYNAMAST_SITE_ADMISSION_GATE_H_
#define DYNAMAST_SITE_ADMISSION_GATE_H_

#include <cstdint>
#include <mutex>

#include "common/debug_mutex.h"
#include "common/metrics.h"

namespace dynamast::site {

/// Bounded admission control for a data site: at most `slots` transactions
/// execute concurrently; excess arrivals queue. Together with the simulated
/// per-operation service time this models a site's CPU capacity, producing
/// the saturation behaviour (queueing delay growth) that makes the
/// single-master site a bottleneck in the paper's experiments.
class AdmissionGate {
 public:
  explicit AdmissionGate(size_t slots) : free_slots_(slots) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Blocks until a slot is free, then occupies it.
  void Enter() DYNAMAST_EXCLUDES(mu_);

  /// Frees a slot.
  void Exit() DYNAMAST_EXCLUDES(mu_);

  /// Number of arrivals currently waiting for a slot (diagnostics).
  uint64_t QueueDepth() const DYNAMAST_EXCLUDES(mu_);

  /// Wires exported metrics: the slot-wait latency histogram and a gauge
  /// mirroring the queue depth. Either may be null. Call before traffic.
  void SetMetrics(metrics::Histogram* wait_us, metrics::Gauge* queue_depth)
      DYNAMAST_EXCLUDES(mu_);

  /// RAII slot occupancy.
  class Scoped {
   public:
    explicit Scoped(AdmissionGate& gate) : gate_(gate) { gate_.Enter(); }
    ~Scoped() { gate_.Exit(); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    AdmissionGate& gate_;
  };

 private:
  mutable DebugMutex mu_{"site.admission_gate"};
  DebugCondVar cv_;
  size_t free_slots_ DYNAMAST_GUARDED_BY(mu_);
  uint64_t waiting_ DYNAMAST_GUARDED_BY(mu_) = 0;
  // Scheduler identity of this gate's slot-grant decision stream.
  uint32_t sched_uid_ = DYNAMAST_SCHED_REGISTER("gate.grant");
  metrics::Histogram* wait_us_ DYNAMAST_GUARDED_BY(mu_) = nullptr;
  metrics::Gauge* queue_depth_ DYNAMAST_GUARDED_BY(mu_) = nullptr;
};

}  // namespace dynamast::site

#endif  // DYNAMAST_SITE_ADMISSION_GATE_H_
