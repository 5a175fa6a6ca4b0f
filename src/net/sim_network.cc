#include "net/sim_network.h"

#include <cstdio>

#include "common/scheduler.h"

namespace dynamast::net {

const char* TrafficClassName(TrafficClass c) {
  switch (c) {
    case TrafficClass::kClientRequest:
      return "client_request";
    case TrafficClass::kPropagation:
      return "propagation";
    case TrafficClass::kRemastering:
      return "remastering";
    case TrafficClass::kCoordination:
      return "coordination";
    case TrafficClass::kDataShipping:
      return "data_shipping";
    case TrafficClass::kNumClasses:
      break;
  }
  return "unknown";
}

void SimulatedNetwork::RegisterMetrics(metrics::Registry* registry) {
  registry = metrics::Registry::OrGlobal(registry);
  for (size_t i = 0; i < class_metrics_.size(); ++i) {
    const metrics::Labels labels = {
        {"class", TrafficClassName(static_cast<TrafficClass>(i))}};
    class_metrics_[i].messages =
        registry->GetCounter("net_messages_total", labels);
    class_metrics_[i].bytes = registry->GetCounter("net_bytes_total", labels);
  }
  inflight_gauge_ = registry->GetGauge("net_inflight_messages");
  link_lag_gauge_ = registry->GetGauge("net_link_lag_us");
  clock_ = sim::SimClock(registry);
}

void SimulatedNetwork::Count(TrafficClass c, size_t bytes) {
  auto& counter = counters_[static_cast<size_t>(c)];
  counter.messages.fetch_add(1, std::memory_order_relaxed);
  counter.bytes.fetch_add(bytes, std::memory_order_relaxed);
  const ClassMetrics& exported = class_metrics_[static_cast<size_t>(c)];
  if (exported.messages != nullptr) {
    exported.messages->Increment();
    exported.bytes->Increment(bytes);
  }
  // Delivery is a synchronization point even when delay charging is off:
  // schedule fuzzing jitters message arrival order here, and record/replay
  // serialize every delivery decision through the per-network queue.
  DYNAMAST_SCHED_OP(kNetDeliver, sched_uid_);
}

std::chrono::nanoseconds SimulatedNetwork::Transmission(size_t bytes) const {
  return options_.per_kilobyte * static_cast<int64_t>(bytes / 1024 + 1);
}

std::chrono::nanoseconds SimulatedNetwork::ReserveLink(
    std::chrono::nanoseconds transmission) {
  // Transmission occupies the shared wire back-to-back, while propagation
  // latency overlaps across messages.
  MutexLock lock(link_mu_);
  const auto now = std::chrono::steady_clock::now();
  const auto start = link_busy_until_ > now ? link_busy_until_ : now;
  link_busy_until_ = start + transmission;
  if (link_lag_gauge_ != nullptr) {
    // Delivery lag: how long a message appended now waits for the wire.
    link_lag_gauge_->Set(
        std::chrono::duration<double, std::micro>(start - now).count());
  }
  return link_busy_until_ - now;
}

void SimulatedNetwork::Deliver(std::chrono::nanoseconds delay) {
  if (!options_.charge_delays) {
    // No network delay, but the sender's own pending work still lands
    // before its message leaves.
    clock_.Settle();
    return;
  }
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->Set(static_cast<double>(
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
  }
  clock_.Settle(delay);
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->Set(static_cast<double>(
        inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  }
}

void SimulatedNetwork::Send(TrafficClass c, size_t bytes) {
  Count(c, bytes);
  const auto transmission = Transmission(bytes);
  Deliver(options_.one_way_latency +
          (options_.charge_delays && options_.serialize_link
               ? ReserveLink(transmission)
               : transmission));
}

void SimulatedNetwork::RoundTrip(TrafficClass c, size_t request_bytes,
                                 size_t response_bytes) {
  if (options_.charge_delays && options_.serialize_link) {
    // Each leg queues for the shared wire on its own.
    Send(c, request_bytes);
    Send(c, response_bytes);
    return;
  }
  // Both legs count as messages and deliveries, but the caller sleeps
  // once for the whole round trip.
  Count(c, request_bytes);
  Count(c, response_bytes);
  Deliver(2 * options_.one_way_latency + Transmission(request_bytes) +
          Transmission(response_bytes));
}

uint64_t SimulatedNetwork::MessageCount(TrafficClass c) const {
  return counters_[static_cast<size_t>(c)].messages.load(
      std::memory_order_relaxed);
}

uint64_t SimulatedNetwork::ByteCount(TrafficClass c) const {
  return counters_[static_cast<size_t>(c)].bytes.load(
      std::memory_order_relaxed);
}

uint64_t SimulatedNetwork::TotalMessages() const {
  uint64_t total = 0;
  for (const auto& counter : counters_) {
    total += counter.messages.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t SimulatedNetwork::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& counter : counters_) {
    total += counter.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void SimulatedNetwork::ResetCounters() {
  for (auto& counter : counters_) {
    counter.messages.store(0, std::memory_order_relaxed);
    counter.bytes.store(0, std::memory_order_relaxed);
  }
}

std::string SimulatedNetwork::ReportCounters() const {
  std::string out;
  char buf[160];
  for (size_t i = 0; i < counters_.size(); ++i) {
    const auto c = static_cast<TrafficClass>(i);
    std::snprintf(buf, sizeof(buf), "%-16s %12llu msgs %12.3f MB\n",
                  TrafficClassName(c),
                  static_cast<unsigned long long>(MessageCount(c)),
                  static_cast<double>(ByteCount(c)) / (1024.0 * 1024.0));
    out += buf;
  }
  return out;
}

}  // namespace dynamast::net
