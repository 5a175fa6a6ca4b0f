#ifndef DYNAMAST_SELECTOR_CONVERGENCE_TRACKER_H_
#define DYNAMAST_SELECTOR_CONVERGENCE_TRACKER_H_

#include <cstdint>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/metrics.h"

namespace dynamast::selector {

/// Measures how fast remastering re-converges placement after an access
/// shift (the ROADMAP's time-to-relocalize metric; see DESIGN.md,
/// "Timelines & convergence tracking"). Per partition it tracks one
/// *relocalization episode*:
///
///   * a slow-path write route that finds the partition mastered away from
///     its destination opens the episode (first remote-access burst);
///   * every remastering of the partition stamps the episode's latest
///     transition;
///   * the episode closes when a later touch (or Flush) observes that the
///     latest transition has stood unchallenged for the stability window —
///     that transition is the one that stabilized, and the episode's
///     duration (first remote burst -> stabilizing transition) is recorded
///     into selector_time_to_relocalize_us, with
///     selector_relocalized_partitions_total counting closed episodes.
///
/// A partition that moves once and sticks therefore reports its remaster
/// latency; one that ping-pongs between sites accumulates the churn until
/// mastership finally settles. Fast-path routes never touch the tracker:
/// a partition already mastered where it is written is converged, and the
/// hot path stays free of tracker cost.
///
/// Thread safety: internal RawMutex (below the scheduler layer, like the
/// explain ring); episode closes observe the histogram outside the lock.
class ConvergenceTracker {
 public:
  /// A transition must stand unchallenged this long to count as stable.
  static constexpr uint64_t kStabilityWindowUs = 500'000;

  /// Exports into `metrics` (null means metrics::Registry::Global()).
  ConvergenceTracker(size_t num_partitions, metrics::Registry* metrics);

  ConvergenceTracker(const ConvergenceTracker&) = delete;
  ConvergenceTracker& operator=(const ConvergenceTracker&) = delete;

  /// Records one slow-path routing decision that remastered to `dest`:
  /// `masters` holds the pre-decision master of each partition (parallel
  /// to `partitions`), `route_start_us` the slow path's entry time, and
  /// `now_us` the post-remaster completion time. Partitions with
  /// masters[i] == dest are stability probes only; the rest transitioned.
  void OnSlowPathRoute(const std::vector<PartitionId>& partitions,
                       const std::vector<SiteId>& masters, SiteId dest,
                       uint64_t route_start_us, uint64_t now_us)
      DYNAMAST_EXCLUDES(mu_);

  /// Closes episodes whose latest transition has been stable for the
  /// window as of `now_us`. With `force`, every episode that has seen a
  /// transition closes regardless of age — end-of-run reporting, where
  /// "the workload stopped" is as stable as it gets.
  void Flush(uint64_t now_us, bool force = false) DYNAMAST_EXCLUDES(mu_);

  /// Episodes closed so far.
  uint64_t relocalized() const DYNAMAST_EXCLUDES(mu_);

 private:
  struct PartitionState {
    uint64_t window_start_us = 0;     // 0 = no open episode
    uint64_t last_transition_us = 0;  // 0 = no transition yet
  };

  // Closes states_[p] if its transition is old enough (or forced);
  // returns the episode duration via *duration_us.
  bool MaybeCloseLocked(PartitionState* state, uint64_t now_us, bool force,
                        uint64_t* duration_us) DYNAMAST_REQUIRES(mu_);

  void Export(const uint64_t* durations, size_t n);

  mutable RawMutex mu_;
  std::vector<PartitionState> states_ DYNAMAST_GUARDED_BY(mu_);
  uint64_t relocalized_ DYNAMAST_GUARDED_BY(mu_) = 0;

  // Resolved once at construction.
  metrics::Counter* relocalized_total_ = nullptr;
  metrics::Histogram* time_to_relocalize_us_ = nullptr;
};

}  // namespace dynamast::selector

#endif  // DYNAMAST_SELECTOR_CONVERGENCE_TRACKER_H_
