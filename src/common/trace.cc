#include "common/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/metrics.h"

namespace dynamast::trace {

std::string TraceEvent::ToJson(uint32_t pid_offset) const {
  std::string out = "{\"name\":\"";
  out += metrics::JsonEscape(name);
  out += "\",\"cat\":\"";
  out += metrics::JsonEscape(cat.empty() ? "default" : cat);
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",\"ts\":";
  out += std::to_string(ts_us);
  if (ph == 'X') {
    out += ",\"dur\":";
    out += std::to_string(dur_us);
  }
  out += ",\"pid\":";
  out += std::to_string(pid + pid_offset);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"args\":{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += metrics::JsonEscape(key);
    out += "\":\"";
    out += metrics::JsonEscape(value);
    out += '"';
  }
  out += "}}";
  return out;
}

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 1024));
}

void Tracer::Record(TraceEvent event) {
  RawMutexLock guard(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  // Ring full: overwrite the oldest event.
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
  ++dropped_;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  RawMutexLock guard(mu_);
  if (!wrapped_) return ring_;
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % capacity_]);
  }
  return out;
}

uint64_t Tracer::dropped() const {
  RawMutexLock guard(mu_);
  return dropped_;
}

size_t Tracer::size() const {
  RawMutexLock guard(mu_);
  return ring_.size();
}

void Tracer::SetProcessName(uint32_t pid, std::string name) {
  RawMutexLock guard(mu_);
  process_names_[pid] = std::move(name);
}

std::map<uint32_t, std::string> Tracer::process_names() const {
  RawMutexLock guard(mu_);
  return process_names_;
}

TraceEvent ProcessNameEvent(uint32_t pid, const std::string& name) {
  TraceEvent meta;
  meta.name = "process_name";
  meta.cat = "__metadata";
  meta.ph = 'M';
  meta.pid = pid;
  meta.args.emplace_back("name", name);
  return meta;
}

std::string Tracer::ToChromeJson() const {
  const std::map<uint32_t, std::string> names = process_names();
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : names) {
    if (!first) out += ',';
    first = false;
    out += ProcessNameEvent(pid, name).ToJson();
  }
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += event.ToJson();
  }
  out += "]}";
  return out;
}

Span::Span(Tracer* tracer, std::string name, std::string cat, uint32_t pid,
           uint64_t tid, metrics::Histogram* histogram)
    : tracer_(tracer),
      histogram_(histogram),
      ended_(tracer == nullptr && histogram == nullptr) {
  if (ended_) return;
  event_.ts_us = metrics::NowMicros();
  if (tracer_ == nullptr) return;
  event_.name = std::move(name);
  event_.cat = std::move(cat);
  event_.pid = pid;
  event_.tid = tid;
}

Span::~Span() { End(); }

void Span::SetTxn(uint64_t client, uint64_t client_txn) {
  if (!tracing()) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "c%llu.t%llu",
                static_cast<unsigned long long>(client),
                static_cast<unsigned long long>(client_txn));
  AddArg("txn", buf);
}

void Span::AddArg(std::string key, std::string value) {
  if (!tracing()) return;
  event_.args.emplace_back(std::move(key), std::move(value));
}

void Span::AddNum(std::string key, double value) {
  if (!tracing()) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  AddArg(std::move(key), buf);
}

void Span::End() {
  if (ended_) return;
  ended_ = true;
  event_.dur_us = metrics::NowMicros() - event_.ts_us;
  if (histogram_ != nullptr) histogram_->Observe(event_.dur_us);
  if (tracer_ != nullptr) tracer_->Record(std::move(event_));
}

}  // namespace dynamast::trace
