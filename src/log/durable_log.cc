#include "log/durable_log.h"

#include "common/latency_recorder.h"

namespace dynamast::log {

uint64_t DurableLog::Append(std::string serialized) {
  metrics::Histogram* latency =
      append_latency_.load(std::memory_order_acquire);
  Stopwatch watch;
  uint64_t offset;
  {
    MutexLock lock(mu_);
    if (crash_countdown_ != nullptr &&
        crash_countdown_->fetch_sub(1, std::memory_order_acq_rel) <= 0) {
      // Crash injection armed and exhausted: the write is lost. Report
      // the offset it would have had; nothing is delivered or notified.
      return entries_.size();
    }
    // Appends are ordering decisions (which commit reaches the topic
    // first): the explore scheduler grants and traces each one.
    DYNAMAST_SCHED_OP(kLogAppend, sched_uid_);
    entries_.push_back(std::move(serialized));
    offset = entries_.size() - 1;
    cv_.notify_all();
  }
  if (latency != nullptr) latency->Observe(watch.ElapsedMicros());
  return offset;
}

uint64_t DurableLog::Size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

Status DurableLog::Read(uint64_t offset, std::string* out,
                        std::chrono::steady_clock::time_point deadline) const {
  MutexLock lock(mu_);
  bool timed_out = false;
  while (offset >= entries_.size()) {
    // Checked before the deadline: a wait that timed out while Close()
    // ran still reports the closed log.
    if (closed_) return Status::Unavailable("log closed");
    if (timed_out) return Status::TimedOut("log read deadline");
    timed_out = cv_.wait_until(mu_, deadline) == std::cv_status::timeout;
  }
  *out = entries_[offset];
  return Status::OK();
}

Status DurableLog::TryRead(uint64_t offset, std::string* out) const {
  MutexLock lock(mu_);
  if (offset >= entries_.size()) return Status::NotFound("offset beyond end");
  *out = entries_[offset];
  return Status::OK();
}

void DurableLog::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool DurableLog::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

Status LogCursor::Next(std::string* out,
                       std::chrono::steady_clock::time_point deadline) {
  Status s = log_->Read(offset_, out, deadline);
  if (s.ok()) ++offset_;
  return s;
}

Status LogCursor::TryNext(std::string* out) {
  Status s = log_->TryRead(offset_, out);
  if (s.ok()) ++offset_;
  return s;
}

LogManager::LogManager(size_t num_sites) {
  topics_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    topics_.push_back(std::make_unique<DurableLog>());
  }
}

void LogManager::CloseAll() {
  for (auto& topic : topics_) topic->Close();
}

uint64_t LogManager::TotalAppends() const {
  uint64_t total = 0;
  for (const auto& topic : topics_) total += topic->Size();
  return total;
}

void LogManager::ArmCrashAfterAppends(int64_t appends) {
  auto countdown = std::make_shared<std::atomic<int64_t>>(appends);
  for (auto& topic : topics_) topic->SetCrashCountdown(countdown);
}

}  // namespace dynamast::log
