#ifndef DYNAMAST_COMMON_METRICS_H_
#define DYNAMAST_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/debug_mutex.h"
#include "common/latency_recorder.h"

namespace dynamast::metrics {

/// Microseconds since the process-wide metrics epoch (the first call in
/// the process). Monotonic (steady_clock), shared by metrics, tracing and
/// the log-record append timestamps so refresh delay = apply_ts - append_ts
/// is directly meaningful.
uint64_t NowMicros();

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by the metrics/trace/bench
/// JSON writers.
std::string JsonEscape(std::string_view s);

/// Label set for one time series, e.g. {{"site","0"},{"reason","TimedOut"}}.
/// Handles are resolved once (at component construction) so label handling
/// never touches the hot path.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter with thread-sharded storage: increments on the hot
/// path are a single relaxed fetch_add on a (mostly) thread-private cache
/// line; reads sum the shards.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kNumShards = 16;
  struct alignas(64) Shard {
    // Every operation is relaxed: nothing synchronizes on a tally.
    std::atomic<uint64_t> value{0};
  };
  // Each thread hashes to a fixed shard (assigned round-robin on first
  // use), so concurrent writers rarely share a cache line.
  static size_t ShardIndex();
  std::array<Shard, kNumShards> shards_{};
};

/// Last-value gauge (double). Set/Add are lock-free.
class Gauge {
 public:
  void Set(double v) { bits_.store(ToBits(v), std::memory_order_relaxed); }
  void Add(double delta) {
    uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(observed,
                                        ToBits(FromBits(observed) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  double Value() const { return FromBits(bits_.load(std::memory_order_relaxed)); }
  void Reset() { Set(0); }

 private:
  static uint64_t ToBits(double v);
  static double FromBits(uint64_t bits);
  // Last-value bits; the CAS loop is value-only, so every operation is
  // relaxed.
  std::atomic<uint64_t> bits_{0};
};

/// Latency/size distribution backed by LatencyRecorder's geometric buckets
/// (values are conventionally microseconds, but any non-negative integer
/// distribution works — e.g. version-chain lengths).
class Histogram {
 public:
  void Observe(uint64_t value) { recorder_.Record(value); }
  void ObserveDuration(std::chrono::nanoseconds d) {
    recorder_.RecordDuration(d);
  }
  const LatencyRecorder& recorder() const { return recorder_; }
  void Reset() { recorder_.Reset(); }

 private:
  LatencyRecorder recorder_;
};

/// Process-wide registry of labeled metric families. Lookup
/// (GetCounter/GetGauge/GetHistogram) takes the registry mutex and is meant
/// for component construction time; the returned handles are stable for
/// the registry's lifetime and their updates are lock-free (counters,
/// gauges) or a leaf mutex (histograms).
///
/// Benchmarks call ResetValues() between runs: values zero out but every
/// handle stays valid, so long-lived components keep their pointers.
class Registry {
 public:
  enum class Type { kCounter, kGauge, kHistogram };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The default process-wide registry. Components take a `Registry*`
  /// option; passing nullptr means "use Global()".
  static Registry& Global();
  static Registry* OrGlobal(Registry* r) { return r != nullptr ? r : &Global(); }

  /// Returns the series handle, creating the family/series as needed.
  /// A name registered with a different metric type, or a family past its
  /// cardinality cap, yields a detached scrap metric (never exported) so
  /// callers need no error handling.
  Counter* GetCounter(const std::string& name, const Labels& labels = {})
      DYNAMAST_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const Labels& labels = {})
      DYNAMAST_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {})
      DYNAMAST_EXCLUDES(mu_);

  /// Zeroes every value while keeping all families/series (and therefore
  /// all outstanding handles) alive.
  void ResetValues() DYNAMAST_EXCLUDES(mu_);

  /// Number of series across all families / in one family (0 if absent).
  size_t NumSeries() const DYNAMAST_EXCLUDES(mu_);
  size_t NumSeries(const std::string& name) const DYNAMAST_EXCLUDES(mu_);

  /// Value lookups for tests and reconciliation tools; zero/absent series
  /// read as 0.
  uint64_t CounterValue(const std::string& name, const Labels& labels = {}) const;
  double GaugeValue(const std::string& name, const Labels& labels = {}) const;

  /// Read access to one histogram series' live recorder (null if absent),
  /// for report printing without re-aggregating through SnapshotJson.
  const LatencyRecorder* HistogramRecorder(const std::string& name,
                                           const Labels& labels = {}) const;

  /// One flattened sample for the timeline sampler: `key` is
  /// "name{k=v,...}" with labels in sorted order (bare "name" when
  /// label-less); `value` is the counter/gauge value, or the observation
  /// count for histogram series.
  struct SampledValue {
    std::string key;
    Type type = Type::kCounter;
    double value = 0;
  };

  /// Samples every series in deterministic (family, label-key) order.
  /// Timeline-sampler cadence, not the hot path.
  std::vector<SampledValue> SampleValues() const DYNAMAST_EXCLUDES(mu_);

  /// {"metrics":[{"name":...,"type":"counter","series":[{"labels":{...},
  /// "value":N},...]},...]}. Histogram series carry count/mean/p50/p90/
  /// p99/p999/max summaries.
  std::string SnapshotJson() const DYNAMAST_EXCLUDES(mu_);

  /// Max series per family before new label sets fall into the scrap
  /// metric (cardinality-explosion guard).
  static constexpr size_t kMaxSeriesPerFamily = 256;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Type type = Type::kCounter;
    // Keyed by the canonical (sorted, escaped) label encoding; std::map
    // keeps export order deterministic.
    std::map<std::string, Series> series;
  };

  Series* GetSeries(const std::string& name, const Labels& labels, Type type)
      DYNAMAST_EXCLUDES(mu_);
  const Series* FindSeries(const std::string& name, const Labels& labels,
                           Type type) const DYNAMAST_EXCLUDES(mu_);

  // RawMutex (no sched hooks): the registry is infrastructure below the
  // scheduler layer; registering it would perturb record/replay identity.
  mutable RawMutex mu_;
  std::map<std::string, Family> families_ DYNAMAST_GUARDED_BY(mu_);
  // Scrap series for type mismatches / cardinality overflow.
  Counter scrap_counter_;
  Gauge scrap_gauge_;
  Histogram scrap_histogram_;
};

}  // namespace dynamast::metrics

#endif  // DYNAMAST_COMMON_METRICS_H_
