#ifndef DYNAMAST_COMMON_TRACE_H_
#define DYNAMAST_COMMON_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/debug_mutex.h"

namespace dynamast::metrics {
class Histogram;
}  // namespace dynamast::metrics

namespace dynamast::trace {

/// One completed span (Chrome trace-event "X" phase) or instant event
/// ("i"). Timestamps are metrics::NowMicros() (shared process epoch), so
/// spans from different sites of one simulated cluster — and from the
/// selector — line up on one timeline.
///
/// Conventions in this codebase:
///   pid  = site id (the selector uses num_sites; see SetProcessName)
///   tid  = client id for transaction work, origin site for appliers
///   args carries the correlation key "txn" = "c<client>.t<client_txn>"
///        plus span-specific values (scores, counts, status).
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  uint32_t pid = 0;
  uint64_t tid = 0;
  std::vector<std::pair<std::string, std::string>> args;

  /// Serializes this one event as a Chrome trace-event JSON object,
  /// shifting pid by `pid_offset` (benches merge several runs into one
  /// file by giving each run a disjoint pid range).
  std::string ToJson(uint32_t pid_offset = 0) const;
};

/// Bounded in-memory span sink. Recording is mutex-guarded but cheap
/// (one lock, one ring slot); tracing is off by default
/// (Cluster::Options::trace) so the steady-state cost is a null check.
class Tracer {
 public:
  explicit Tracer(size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(TraceEvent event) DYNAMAST_EXCLUDES(mu_);

  /// Ring contents in record order (oldest first).
  std::vector<TraceEvent> Snapshot() const DYNAMAST_EXCLUDES(mu_);

  /// Events evicted because the ring was full.
  uint64_t dropped() const DYNAMAST_EXCLUDES(mu_);
  size_t size() const DYNAMAST_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  /// Names a pid lane ("site0", "selector") in the exported trace.
  void SetProcessName(uint32_t pid, std::string name) DYNAMAST_EXCLUDES(mu_);
  std::map<uint32_t, std::string> process_names() const
      DYNAMAST_EXCLUDES(mu_);

  /// Full Chrome trace-event JSON ({"traceEvents":[...]}) of this tracer's
  /// contents, including process_name metadata events. Loadable in
  /// Perfetto / chrome://tracing.
  std::string ToChromeJson() const;

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  const size_t capacity_;
  // RawMutex (no sched hooks): spans are recorded inside scheduler-visible
  // critical sections, so the sink lock must not re-enter the scheduler.
  mutable RawMutex mu_;
  std::vector<TraceEvent> ring_ DYNAMAST_GUARDED_BY(mu_);
  size_t next_ DYNAMAST_GUARDED_BY(mu_) = 0;       // write cursor when full
  bool wrapped_ DYNAMAST_GUARDED_BY(mu_) = false;  // wrapped at least once
  uint64_t dropped_ DYNAMAST_GUARDED_BY(mu_) = 0;
  std::map<uint32_t, std::string> process_names_ DYNAMAST_GUARDED_BY(mu_);
};

/// Builds a process_name metadata event (ph "M").
TraceEvent ProcessNameEvent(uint32_t pid, const std::string& name);

/// RAII span and phase timer: starts at construction, ends at End() /
/// destruction. At the end it records into `tracer` (if non-null) and
/// observes its duration in microseconds into `histogram` (if non-null),
/// so one object both traces an interval and feeds its latency family.
/// With both null every operation is a no-op, so call sites need no
/// tracing-enabled branches; a histogram alone times without tracing.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string cat, uint32_t pid,
       uint64_t tid, metrics::Histogram* histogram = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches the cross-site transaction correlation key. Arguments are
  /// formatted only when the span records into a tracer.
  void SetTxn(uint64_t client, uint64_t client_txn);
  void AddArg(std::string key, std::string value);
  void AddNum(std::string key, double value);

  /// Ends the span now (idempotent; destructor calls it).
  void End();

 private:
  // True while the span still records into a tracer.
  bool tracing() const { return tracer_ != nullptr && !ended_; }

  Tracer* tracer_;
  metrics::Histogram* histogram_;
  TraceEvent event_;
  bool ended_;
};

}  // namespace dynamast::trace

#endif  // DYNAMAST_COMMON_TRACE_H_
