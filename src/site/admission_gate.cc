#include "site/admission_gate.h"

#include "common/latency_recorder.h"
#include "common/scheduler.h"

namespace dynamast::site {

void AdmissionGate::SetMetrics(metrics::Histogram* wait_us,
                               metrics::Gauge* queue_depth) {
  MutexLock guard(mu_);
  wait_us_ = wait_us;
  queue_depth_ = queue_depth;
}

void AdmissionGate::Enter() {
  Stopwatch watch;
  metrics::Histogram* wait_us = nullptr;
  {
    MutexLock lock(mu_);
    ++waiting_;
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<double>(waiting_));
    }
    cv_.wait(mu_, [&] { return free_slots_ > 0; });
    --waiting_;
    --free_slots_;
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<double>(waiting_));
    }
    wait_us = wait_us_;
  }
  // The wait histogram takes the recorder's leaf lock; observing after mu_
  // is released keeps slot handoff off that lock (threads queue here under
  // saturation, exactly when the histogram is busiest).
  if (wait_us != nullptr) wait_us->Observe(watch.ElapsedMicros());
  // Slot granted: the explore scheduler decides which admitted
  // transaction actually reaches BeginTransaction first, and its trace
  // records the grant order (the winner itself is already pinned by the
  // traced cv-wait re-acquisition of mu_).
  DYNAMAST_SCHED_OP(kGateGrant, sched_uid_);
}

void AdmissionGate::Exit() {
  MutexLock guard(mu_);
  ++free_slots_;
  cv_.notify_one();
}

uint64_t AdmissionGate::QueueDepth() const {
  MutexLock guard(mu_);
  return waiting_;
}

}  // namespace dynamast::site
