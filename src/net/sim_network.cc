#include "net/sim_network.h"

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

SimulatedNetwork::SimulatedNetwork(const Options& options,
                                   metrics::Registry* metrics)
    : options_(options), clock_(metrics) {
  metrics = metrics::Registry::OrGlobal(metrics);
  for (size_t i = 0; i < class_metrics_.size(); ++i) {
    const metrics::Labels labels = {
        {"class", TrafficClassName(static_cast<TrafficClass>(i))}};
    class_metrics_[i].messages =
        metrics->GetCounter("net_messages_total", labels);
    class_metrics_[i].bytes = metrics->GetCounter("net_bytes_total", labels);
  }
  inflight_ = metrics->GetGauge("net_inflight_messages");
}

void SimulatedNetwork::Count(TrafficClass c, size_t bytes) {
  const ClassMetrics& counters = class_metrics_[static_cast<size_t>(c)];
  counters.messages->Increment();
  counters.bytes->Increment(bytes);
  // Delivery is a synchronization point even when delay charging is off:
  // schedule fuzzing jitters message arrival order here, and record/replay
  // serialize every delivery decision through the per-network queue.
  DYNAMAST_SCHED_OP(kNetDeliver, sched_uid_);
}

std::chrono::nanoseconds SimulatedNetwork::Transmission(size_t bytes) const {
  return options_.per_kilobyte * static_cast<int64_t>(bytes / 1024 + 1);
}

void SimulatedNetwork::Deliver(std::chrono::nanoseconds delay) {
  if (!options_.charge_delays) {
    // No network delay, but the sender's own pending work still lands
    // before its message leaves.
    clock_.Settle();
    return;
  }
  inflight_->Add(1);
  clock_.Settle(delay);
  inflight_->Add(-1);
}

void SimulatedNetwork::Send(TrafficClass c, size_t bytes) {
  Count(c, bytes);
  Deliver(options_.one_way_latency + Transmission(bytes));
}

void SimulatedNetwork::RoundTrip(TrafficClass c, size_t request_bytes,
                                 size_t response_bytes) {
  // Both legs count as messages and deliveries, but the caller sleeps
  // once for the whole round trip.
  Count(c, request_bytes);
  Count(c, response_bytes);
  Deliver(2 * options_.one_way_latency + Transmission(request_bytes) +
          Transmission(response_bytes));
}

}  // namespace dynamast::net
