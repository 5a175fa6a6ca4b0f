#ifndef DYNAMAST_WORKLOADS_DRIVER_H_
#define DYNAMAST_WORKLOADS_DRIVER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "core/system_interface.h"
#include "workloads/workload.h"

namespace dynamast::workloads {

/// Closed-loop benchmark driver: `num_clients` client threads each own a
/// session and a workload generator and issue transactions back-to-back
/// (the OLTPBench-style harness of Section VI-A2, scaled down). Latencies
/// and throughput are recorded only inside the measurement window (after
/// warmup); an optional per-interval timeline supports the adaptivity
/// experiment, and scheduled actions let an experiment mutate the workload
/// mid-run (e.g. shuffle YCSB correlations).
class Driver {
 public:
  struct Options {
    uint32_t num_clients = 32;
    std::chrono::milliseconds warmup{1000};
    std::chrono::milliseconds measure{3000};
    /// If > 0, committed-transaction counts are bucketed by completion
    /// time over the whole run (warmup included) at this resolution.
    std::chrono::milliseconds timeline_resolution{0};
    /// Actions fired at fixed offsets from the start of the run.
    std::vector<std::pair<std::chrono::milliseconds, std::function<void()>>>
        scheduled_actions;
    uint64_t seed = 1;
    /// Fixed-count mode: when > 0, each client runs exactly this many
    /// transactions and exits — no wall-clock controller, no warmup
    /// window, everything measured. The run's length then depends only on
    /// the work done, not machine speed, which is what record/replay and
    /// systematic exploration need for byte-identical histories.
    uint64_t ops_per_client = 0;
    /// Registry for driver-level metrics (driver_committed_total{type},
    /// driver_aborted_total{reason}), bumped once at merge time. Null
    /// disables export.
    metrics::Registry* metrics = nullptr;
  };

  struct Report {
    uint64_t committed = 0;
    uint64_t errors = 0;
    double seconds = 0;
    double Throughput() const {
      return seconds > 0 ? static_cast<double>(committed) / seconds : 0;
    }
    uint64_t remastered_txns = 0;
    uint64_t distributed_txns = 0;
    uint64_t retries = 0;
    /// Failed executions by StatusCodeName (e.g. "SnapshotTooOld").
    /// Values sum exactly to `errors` — the driver's abort accounting is
    /// split by reason, never lumped.
    std::map<std::string, uint64_t> aborted_by_reason;
    std::map<std::string, uint64_t> committed_by_type;
    std::map<std::string, std::unique_ptr<LatencyRecorder>> latency_by_type;
    /// Committed transactions per timeline bucket (whole run).
    std::vector<uint64_t> timeline;

    const LatencyRecorder* LatencyFor(const std::string& type) const {
      auto it = latency_by_type.find(type);
      return it == latency_by_type.end() ? nullptr : it->second.get();
    }
    /// One-line headline: "tput=... txn/s committed=... errors=...".
    std::string Summary() const;
  };

  explicit Driver(const Options& options) : options_(options) {}

  /// Runs the workload against the system (already loaded and sealed).
  /// Blocks the caller for the full run duration (client threads sleep out
  /// their pacing and the controller sleeps until the end of the run).
  Report Run(core::SystemInterface& system, Workload& workload);

 private:
  Options options_;
};

}  // namespace dynamast::workloads

#endif  // DYNAMAST_WORKLOADS_DRIVER_H_
