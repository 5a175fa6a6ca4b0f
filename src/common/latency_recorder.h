#ifndef DYNAMAST_COMMON_LATENCY_RECORDER_H_
#define DYNAMAST_COMMON_LATENCY_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/debug_mutex.h"

namespace dynamast {

/// Thread-safe log-bucketed latency histogram with percentile queries.
/// Values are recorded in microseconds. Buckets grow geometrically
/// (~4% resolution), which is plenty for reporting avg/p50/p90/p99 tables.
class LatencyRecorder {
 public:
  LatencyRecorder();

  /// Records one latency observation, in microseconds.
  void Record(uint64_t micros) DYNAMAST_EXCLUDES(mu_);

  void RecordDuration(std::chrono::nanoseconds d) {
    Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count()));
  }

  /// Merges another recorder's observations into this one.
  void Merge(const LatencyRecorder& other) DYNAMAST_EXCLUDES(mu_);

  uint64_t count() const DYNAMAST_EXCLUDES(mu_);
  double MeanMicros() const DYNAMAST_EXCLUDES(mu_);
  /// q in [0, 1]; returns the bucket-interpolated latency in microseconds.
  double PercentileMicros(double q) const DYNAMAST_EXCLUDES(mu_);
  uint64_t MaxMicros() const DYNAMAST_EXCLUDES(mu_);

  void Reset() DYNAMAST_EXCLUDES(mu_);

  /// Renders "avg=1.23ms p50=... p90=... p99=... p99.9=... max=...".
  std::string Summary() const;

  /// JSON object with count/mean_us/p50_us/p90_us/p99_us/p999_us/max_us,
  /// the histogram encoding of the metrics exporter
  /// (metrics::Registry::SnapshotJson).
  std::string SnapshotJson() const;

 private:
  static constexpr size_t kNumBuckets = 512;
  static size_t BucketFor(uint64_t micros);
  static double BucketLowerBound(size_t bucket);

  // RawMutex (no sched hooks): histograms record inside scheduler-visible
  // critical sections, so the leaf lock must not re-enter the scheduler.
  mutable RawMutex mu_;
  std::vector<uint64_t> buckets_ DYNAMAST_GUARDED_BY(mu_);
  uint64_t count_ DYNAMAST_GUARDED_BY(mu_) = 0;
  double sum_ DYNAMAST_GUARDED_BY(mu_) = 0;
  uint64_t max_ DYNAMAST_GUARDED_BY(mu_) = 0;
};

/// Monotonic stopwatch for latency measurements.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  std::chrono::nanoseconds Elapsed() const {
    return std::chrono::steady_clock::now() - start_;
  }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Elapsed())
            .count());
  }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Elapsed()).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dynamast

#endif  // DYNAMAST_COMMON_LATENCY_RECORDER_H_
