#include "net/sim_network.h"

#include <algorithm>

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
  // the explore scheduler orders message arrivals here and traces every
  // delivery decision.
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

void SimulatedNetwork::ConcurrentRoundTrips(TrafficClass c,
                                            std::span<const Call> calls) {
  // Every leg counts as a message and a delivery; the caller waits once,
  // for the last response to arrive.
  std::chrono::nanoseconds slowest{0};
  for (const Call& call : calls) {
    Count(c, call.request_bytes);
    Count(c, call.response_bytes);
    slowest = std::max(slowest, 2 * options_.one_way_latency +
                                    Transmission(call.request_bytes) +
                                    Transmission(call.response_bytes) +
                                    call.service);
  }
  Deliver(slowest);
}

}  // namespace dynamast::net
