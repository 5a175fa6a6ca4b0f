#include "selector/convergence_tracker.h"

namespace dynamast::selector {

namespace {
// Episode closes per slow-path route are buffered on the stack so the
// histogram observe never happens under the tracker lock and the route
// path never allocates. Write sets are far smaller than this; a route
// that somehow closes more episodes leaves the rest open for Flush.
constexpr size_t kMaxInlineCloses = 32;
}  // namespace

ConvergenceTracker::ConvergenceTracker(size_t num_partitions,
                                       metrics::Registry* metrics)
    : states_(num_partitions) {
  metrics::Registry* reg = metrics::Registry::OrGlobal(metrics);
  relocalized_total_ = reg->GetCounter("selector_relocalized_partitions_total");
  time_to_relocalize_us_ = reg->GetHistogram("selector_time_to_relocalize_us");
}

bool ConvergenceTracker::MaybeCloseLocked(PartitionState* state,
                                          uint64_t now_us, bool force,
                                          uint64_t* duration_us) {
  if (state->window_start_us == 0 || state->last_transition_us == 0) {
    return false;
  }
  if (!force && now_us < state->last_transition_us + kStabilityWindowUs) {
    return false;
  }
  *duration_us = state->last_transition_us - state->window_start_us;
  state->window_start_us = 0;
  state->last_transition_us = 0;
  ++relocalized_;
  return true;
}

void ConvergenceTracker::Export(const uint64_t* durations, size_t n) {
  if (n == 0) return;
  relocalized_total_->Increment(n);
  for (size_t i = 0; i < n; ++i) time_to_relocalize_us_->Observe(durations[i]);
}

void ConvergenceTracker::OnSlowPathRoute(
    const std::vector<PartitionId>& partitions,
    const std::vector<SiteId>& masters, SiteId dest, uint64_t route_start_us,
    uint64_t now_us) {
  uint64_t closed[kMaxInlineCloses];
  size_t num_closed = 0;
  {
    RawMutexLock guard(mu_);
    for (size_t i = 0; i < partitions.size(); ++i) {
      if (partitions[i] >= states_.size()) continue;
      PartitionState* state = &states_[partitions[i]];
      // Any touch is a stability probe: if the latest transition stood the
      // window until this burst began, that transition stabilized.
      if (num_closed < kMaxInlineCloses) {
        uint64_t duration = 0;
        if (MaybeCloseLocked(state, route_start_us, /*force=*/false,
                             &duration)) {
          closed[num_closed++] = duration;
        }
      }
      if (masters[i] != dest) {
        // Remote burst: opens an episode if none, and this route's
        // remastering is the episode's latest transition.
        if (state->window_start_us == 0) {
          state->window_start_us = route_start_us;
        }
        state->last_transition_us = now_us;
      }
    }
  }
  Export(closed, num_closed);
}

void ConvergenceTracker::Flush(uint64_t now_us, bool force) {
  std::vector<uint64_t> closed;
  {
    RawMutexLock guard(mu_);
    for (PartitionState& state : states_) {
      uint64_t duration = 0;
      if (MaybeCloseLocked(&state, now_us, force, &duration)) {
        closed.push_back(duration);
      }
    }
  }
  Export(closed.data(), closed.size());
}

uint64_t ConvergenceTracker::relocalized() const {
  RawMutexLock guard(mu_);
  return relocalized_;
}

}  // namespace dynamast::selector
