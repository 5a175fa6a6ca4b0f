#ifndef DYNAMAST_NET_SIM_NETWORK_H_
#define DYNAMAST_NET_SIM_NETWORK_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/debug_mutex.h"
#include "common/metrics.h"

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
/// pure-logic tests), and increments per-class message/byte counters that
/// the breakdown experiment (E10) reports.
///
/// Costs are paid with a sleeping wait, not a busy wait, so hundreds of
/// in-flight "RPCs" coexist on a single core; throughput then follows
/// Little's law exactly as in a real latency-bound deployment.
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
    /// If true, transmission time is serialized on a single shared link
    /// (senders queue for the wire, as on one NIC) instead of every sender
    /// paying its transmission cost independently (infinite parallel
    /// bandwidth). Propagation latency still overlaps across messages.
    bool serialize_link = false;
  };

  SimulatedNetwork() : SimulatedNetwork(Options{}) {}
  explicit SimulatedNetwork(const Options& options) : options_(options) {}

  SimulatedNetwork(const SimulatedNetwork&) = delete;
  SimulatedNetwork& operator=(const SimulatedNetwork&) = delete;

  /// Charges the cost of sending one message of `bytes` payload and blocks
  /// the caller for the simulated delivery time.
  void Send(TrafficClass c, size_t bytes) DYNAMAST_EXCLUDES(link_mu_);

  /// A full round trip: request of `request_bytes` plus response of
  /// `response_bytes`.
  void RoundTrip(TrafficClass c, size_t request_bytes, size_t response_bytes);

  uint64_t MessageCount(TrafficClass c) const;
  uint64_t ByteCount(TrafficClass c) const;
  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;
  void ResetCounters();

  const Options& options() const { return options_; }

  /// One line per traffic class: "propagation: 12345 msgs, 1.2 MB".
  std::string ReportCounters() const;

  /// Registers this network's per-class counters and delivery gauges with
  /// `registry` (Cluster does this at construction). Call before traffic
  /// flows; handles are resolved once and used lock-free afterwards.
  void RegisterMetrics(metrics::Registry* registry);

 private:
  Options options_;
  struct ClassMetrics {
    metrics::Counter* messages = nullptr;
    metrics::Counter* bytes = nullptr;
  };
  std::array<ClassMetrics, static_cast<size_t>(TrafficClass::kNumClasses)>
      class_metrics_{};
  // Messages currently in flight (sleeping out their delivery time) and,
  // in serialize_link mode, how far behind the shared wire is running.
  metrics::Gauge* inflight_gauge_ = nullptr;
  metrics::Gauge* link_lag_gauge_ = nullptr;
  std::atomic<int64_t> inflight_{0};
  struct Counter {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> bytes{0};
  };
  std::array<Counter, static_cast<size_t>(TrafficClass::kNumClasses)>
      counters_;
  // Serialized-link state: when the wire frees up. Leaf lock, held only to
  // reserve a transmission slot (the sleep happens outside the lock).
  DebugMutex link_mu_{"net.link"};
  std::chrono::steady_clock::time_point link_busy_until_
      DYNAMAST_GUARDED_BY(link_mu_){};
  // Scheduler identity of this network's delivery decision stream.
  uint32_t sched_uid_ = DYNAMAST_SCHED_REGISTER("net.deliver");
};

}  // namespace dynamast::net

#endif  // DYNAMAST_NET_SIM_NETWORK_H_
