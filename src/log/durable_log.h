#ifndef DYNAMAST_LOG_DURABLE_LOG_H_
#define DYNAMAST_LOG_DURABLE_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/debug_mutex.h"
#include "common/metrics.h"
#include "common/status.h"

namespace dynamast::log {

/// DurableLog is an ordered, append-only topic — this repo's stand-in for
/// one Kafka partition (the paper creates one Kafka log per site; see
/// DESIGN.md). It provides exactly the two properties DynaMast relies on:
///
///  1. per-topic total order: records are delivered to every subscriber in
///     exactly the order they were appended (the replication manager's
///     per-origin FIFO requirement, Appendix A condition 3);
///  2. replayability: records are retained so a recovering site can rewind
///     a cursor to any offset and re-apply the redo log (Section V-C).
///
/// Entries are stored as serialized byte strings; consumers deserialize via
/// LogRecord::Deserialize, so a corrupted entry is detected at read time.
class DurableLog {
 public:
  DurableLog() = default;

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Appends a record and returns its offset (0-based, dense).
  uint64_t Append(std::string serialized) DYNAMAST_EXCLUDES(mu_);

  /// Number of records appended so far.
  uint64_t Size() const DYNAMAST_EXCLUDES(mu_);

  /// Reads the record at `offset`, blocking until it exists or `deadline`
  /// passes (TimedOut), or the log is closed (Unavailable) with no record
  /// at that offset.
  Status Read(uint64_t offset, std::string* out,
              std::chrono::steady_clock::time_point deadline) const
      DYNAMAST_EXCLUDES(mu_);

  /// Non-blocking read; NotFound if the offset has not been written.
  Status TryRead(uint64_t offset, std::string* out) const
      DYNAMAST_EXCLUDES(mu_);

  /// Wakes all blocked readers and makes subsequent blocking reads past the
  /// end return Unavailable. Used for orderly shutdown.
  void Close() DYNAMAST_EXCLUDES(mu_);

  bool closed() const DYNAMAST_EXCLUDES(mu_);

  /// Optional append-latency histogram (lock wait + append). Set once at
  /// cluster construction, before concurrent appends.
  void SetAppendLatency(metrics::Histogram* histogram) {
    append_latency_.store(histogram, std::memory_order_release);
  }

  /// Crash injection for recovery tests: after `countdown` reaches zero
  /// (shared across the topics of one LogManager), Append silently drops
  /// the record — modeling writes that never reached the durable log
  /// before the site crashed. Readers see nothing; the returned offset is
  /// a plausible lie, exactly like an acknowledged-but-lost write.
  void SetCrashCountdown(std::shared_ptr<std::atomic<int64_t>> countdown)
      DYNAMAST_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    crash_countdown_ = std::move(countdown);
  }

 private:
  mutable DebugMutex mu_{"log.topic"};
  mutable DebugCondVar cv_;
  std::vector<std::string> entries_ DYNAMAST_GUARDED_BY(mu_);
  bool closed_ DYNAMAST_GUARDED_BY(mu_) = false;
  // Installed once at cluster construction and never freed, so a
  // release store / acquire load is the whole publication protocol.
  std::atomic<metrics::Histogram*> append_latency_{nullptr};
  // acq_rel decrement: the append that hits zero must see prior appends.
  std::shared_ptr<std::atomic<int64_t>> crash_countdown_
      DYNAMAST_GUARDED_BY(mu_);
  // Scheduler identity of this topic's append decision stream.
  uint32_t sched_uid_ = DYNAMAST_SCHED_REGISTER("log.append");
};

/// A consumer cursor over a DurableLog: tracks the next offset to read.
/// Each (applier, origin) pair owns one cursor, mirroring Kafka consumer
/// offsets.
class LogCursor {
 public:
  explicit LogCursor(const DurableLog* log) : log_(log) {}

  /// Blocking next-record read; advances on success.
  Status Next(std::string* out,
              std::chrono::steady_clock::time_point deadline);

  /// Non-blocking; NotFound when caught up.
  Status TryNext(std::string* out);

  uint64_t offset() const { return offset_; }
  void SeekTo(uint64_t offset) { offset_ = offset; }

 private:
  const DurableLog* log_;
  uint64_t offset_ = 0;
};

/// LogManager owns one topic per site, the layout the paper uses ("distinct
/// Kafka logs for updates from each site", Appendix A).
class LogManager {
 public:
  explicit LogManager(size_t num_sites);

  DurableLog* TopicFor(uint32_t site) { return topics_[site].get(); }
  const DurableLog* TopicFor(uint32_t site) const {
    return topics_[site].get();
  }
  size_t num_sites() const { return topics_.size(); }

  void CloseAll();

  /// Total records across all topics (a stable crash-point coordinate for
  /// recovery sweeps: "crash after the k-th durable append").
  uint64_t TotalAppends() const;

  /// Arms crash injection: the next `appends` appends (across all topics)
  /// succeed, every later one is silently dropped. Passing a huge value
  /// effectively disarms.
  void ArmCrashAfterAppends(int64_t appends);

 private:
  std::vector<std::unique_ptr<DurableLog>> topics_;
};

}  // namespace dynamast::log

#endif  // DYNAMAST_LOG_DURABLE_LOG_H_
