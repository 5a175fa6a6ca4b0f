#ifndef DYNAMAST_NET_SIM_NETWORK_H_
#define DYNAMAST_NET_SIM_NETWORK_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <span>

#include "common/metrics.h"
#include "common/scheduler.h"
#include "common/sim_clock.h"

namespace dynamast::net {

/// Categories of network traffic, matching the breakdown reported in the
/// paper's Appendix D (stored-procedure arguments, refresh propagation,
/// remastering metadata) plus the coordination traffic the baselines incur.
enum class TrafficClass : int {
  kClientRequest = 0,   // client -> selector / site RPCs and responses
  kPropagation,         // replication manager refresh traffic
  kRemastering,         // release / grant metadata messages
  kCoordination,        // 2PC prepare/commit rounds (baselines)
  kDataShipping,        // LEAP data localization transfers
  kNumClasses,
};

const char* TrafficClassName(TrafficClass c);

/// SimulatedNetwork stands in for the Thrift RPC fabric and the 10 GbE
/// network of the paper's testbed (see DESIGN.md, substitutions table).
///
/// Every message charges the calling thread a one-way latency plus a
/// per-byte transmission cost (both configurable, both may be zero for
/// pure-logic tests), and increments the per-class net_messages_total /
/// net_bytes_total series that the breakdown experiment (E10) reports.
///
/// Costs are paid with a sleeping wait (sim::SimClock), not a busy wait, so
/// hundreds of in-flight "RPCs" coexist on a single core; throughput then
/// follows Little's law exactly as in a real latency-bound deployment. A
/// send first settles the sender's pending simulated work, so that work
/// lands before the message leaves.
class SimulatedNetwork {
 public:
  struct Options {
    /// One-way message latency. The paper's testbed round trips are in the
    /// low hundreds of microseconds; 250us one-way is the default here.
    std::chrono::microseconds one_way_latency{250};
    /// Transmission cost per kilobyte (models the 10 Gbit/s link).
    std::chrono::nanoseconds per_kilobyte{800};
    /// If false, no delay is charged (unit tests); counters still update.
    bool charge_delays = true;
  };

  /// Exports the per-class counters, delivery gauges and sleep-overshoot
  /// histogram into `metrics` (null means metrics::Registry::Global()).
  explicit SimulatedNetwork(const Options& options,
                            metrics::Registry* metrics = nullptr);

  SimulatedNetwork(const SimulatedNetwork&) = delete;
  SimulatedNetwork& operator=(const SimulatedNetwork&) = delete;

  /// Charges the cost of sending one message of `bytes` payload and blocks
  /// the caller for the simulated delivery time plus its pending debt.
  void Send(TrafficClass c, size_t bytes);

  /// One request/response exchange with a remote site: the two payloads
  /// and the callee's service time between them.
  struct Call {
    size_t request_bytes = 0;
    size_t response_bytes = 0;
    std::chrono::nanoseconds service{0};
  };

  /// Round trips issued at once to different callees. Each counts its two
  /// messages; the caller sleeps once, for the slowest round trip (both
  /// legs plus its callee's service time). With `charge_delays` off only
  /// the caller's pending debt is settled.
  void ConcurrentRoundTrips(TrafficClass c, std::span<const Call> calls);

  /// A full round trip: request of `request_bytes` plus response of
  /// `response_bytes`. Counts two messages but sleeps once for both legs.
  void RoundTrip(TrafficClass c, size_t request_bytes, size_t response_bytes) {
    const Call call{request_bytes, response_bytes};
    ConcurrentRoundTrips(c, {&call, 1});
  }

  const Options& options() const { return options_; }

 private:
  // Counts one message and marks its delivery as a scheduler operation.
  void Count(TrafficClass c, size_t bytes);
  std::chrono::nanoseconds Transmission(size_t bytes) const;
  // Settles the caller's pending work plus `delay` (delay only when
  // charge_delays is set) as one message in flight.
  void Deliver(std::chrono::nanoseconds delay);

  Options options_;
  sim::SimClock clock_;
  struct ClassMetrics {
    metrics::Counter* messages = nullptr;
    metrics::Counter* bytes = nullptr;
  };
  std::array<ClassMetrics, static_cast<size_t>(TrafficClass::kNumClasses)>
      class_metrics_{};
  // Messages currently in flight (sleeping out their delivery time).
  metrics::Gauge* inflight_ = nullptr;
  // Scheduler identity of this network's delivery decision stream.
  uint32_t sched_uid_ = DYNAMAST_SCHED_REGISTER("net.deliver");
};

}  // namespace dynamast::net

#endif  // DYNAMAST_NET_SIM_NETWORK_H_
