#ifndef DYNAMAST_PERFBENCH_HARNESS_H_
#define DYNAMAST_PERFBENCH_HARNESS_H_

// The benchmark's workloads, its timing decorator and the per-system
// end-to-end run. Everything here drives the system through its public
// entry points: MakeSystem, Workload::Load, Seal and Driver::Run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/partitioner.h"
#include "core/system_interface.h"
#include "workloads/driver.h"
#include "workloads/system_factory.h"
#include "workloads/workload.h"

namespace perfbench {

using namespace dynamast;  // NOLINT: benchmark-local convenience

/// Closed-loop clients per run (one process, zero think time).
constexpr uint32_t kClients = 4;

/// YCSB table size (rows 0..kYcsbKeys-1 of table 0).
constexpr uint64_t kYcsbKeys = 100'000;

enum class Traffic { kYcsbSkew, kSmallBank };

/// One benchmark workload: a traffic mix plus a deployment cost model.
struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  /// Every simulated cost is zero and network charging is off, so the run
  /// measures implementation cost only.
  bool zero_cost;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// 4 sites x 1 worker slot; the paper's default costs, or all zero.
workloads::DeploymentOptions MakeDeployment(const WorkloadSpec& spec,
                                            uint64_t seed);

/// Refuses a zero-cost workload whose built system would charge any
/// simulated time (a zero latency alone still sleeps per message). It reads
/// the options the system's network and sites were built with, so it also
/// catches a factory that drops `charge_network` or a cost.
Status CheckZeroCost(const WorkloadSpec& spec, workloads::SystemKind kind,
                     core::SystemInterface& system);

std::unique_ptr<workloads::Workload> MakeWorkload(const WorkloadSpec& spec,
                                                  uint64_t seed);

/// Forwards to a workload but numbers its clients from `offset`, so two
/// driver runs against one deployment issue different transaction streams.
class ClientOffsetWorkload : public workloads::Workload {
 public:
  ClientOffsetWorkload(workloads::Workload* inner, uint64_t offset)
      : inner_(inner), offset_(offset) {}
  std::string name() const override { return inner_->name(); }
  const Partitioner& partitioner() const override {
    return inner_->partitioner();
  }
  Status Load(core::SystemInterface& system) override {
    return inner_->Load(system);
  }
  std::unique_ptr<workloads::WorkloadClient> MakeClient(
      uint64_t index) override {
    return inner_->MakeClient(index + offset_);
  }

 protected:
  workloads::Workload* inner_;
  uint64_t offset_;
};

/// Forwards every call to the wrapped system. Decorators override the
/// calls they observe.
class ForwardingSystem : public core::SystemInterface {
 public:
  explicit ForwardingSystem(core::SystemInterface* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  Status CreateTable(TableId id) override { return inner_->CreateTable(id); }
  Status LoadRow(const RecordKey& key, std::string value) override {
    return inner_->LoadRow(key, std::move(value));
  }
  Status LoadReplicatedRow(const RecordKey& key, std::string value) override {
    return inner_->LoadReplicatedRow(key, std::move(value));
  }
  void Seal() override { inner_->Seal(); }
  Status Execute(core::ClientState& client, const core::TxnProfile& profile,
                 const core::TxnLogic& logic,
                 core::TxnResult* result) override {
    return inner_->Execute(client, profile, logic, result);
  }
  void Shutdown() override { inner_->Shutdown(); }
  history::Recorder* history() override { return inner_->history(); }
  trace::Tracer* tracer() override { return inner_->tracer(); }

 protected:
  core::SystemInterface* inner_;
};

/// The end-to-end runs' only instrumentation: one clock pair around
/// Execute, latencies kept per client (the driver's client ids are 1..N), plus
/// the committed write tally the output check needs: the sum of declared
/// write-set sizes and a bitmap of written rows below `tracked_rows`.
class TimedSystem final : public ForwardingSystem {
 public:
  TimedSystem(core::SystemInterface* inner, uint64_t tracked_rows);

  Status Execute(core::ClientState& client, const core::TxnProfile& profile,
                 const core::TxnLogic& logic,
                 core::TxnResult* result) override;

  /// Latencies (ns) are kept for committed Executes that finish within
  /// `window` from now. Call only while no driver is running.
  void StartSampling(std::chrono::nanoseconds window);
  void StopSampling() { sampling_ = false; }
  /// All latencies since the last call, every client merged.
  std::vector<uint64_t> TakeSamples();

  /// Executes that have returned (any status) and committed. Safe to read
  /// while a driver runs.
  uint64_t Finished() const;
  uint64_t Committed() const;
  /// Sum of declared write-set sizes over committed update transactions.
  uint64_t CommittedKeyWrites() const;
  /// Rows (below `tracked_rows`) any committed update wrote.
  std::vector<uint64_t> WrittenRows() const;
  /// Failures other than SnapshotTooOld (never expected), and one example.
  uint64_t UnexpectedFailures() const;
  std::string FirstUnexpectedFailure() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> finished{0};
    std::atomic<uint64_t> committed{0};
    std::vector<uint64_t> samples;
    std::vector<uint8_t> written;  // per row
    uint64_t key_writes = 0;
    uint64_t unexpected = 0;
    std::string first_unexpected;
  };

  std::vector<Slot> slots_;
  bool sampling_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

/// Exact order statistics over raw latencies (nearest rank), plus the
/// count of samples beyond p99.
struct Percentiles {
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t beyond_p99 = 0;
};
Percentiles ExactPercentiles(std::vector<uint64_t> latencies_ns);

/// A loaded, sealed system plus the registry it exports into.
struct Deployed {
  std::unique_ptr<metrics::Registry> registry;
  std::unique_ptr<core::SystemInterface> system;
  /// Median wall time of MakeSystem + Load + Seal over the repetitions.
  double setup_s = 0;
  /// Resident-set growth across the kept repetition's Load.
  uint64_t load_rss_bytes = 0;
};

/// Sets the system up `reps` times (keeping the last) and reports the
/// median set-up time. Exits 2 if a zero-cost workload's system would
/// charge simulated time (CheckZeroCost).
Deployed SetUp(const WorkloadSpec& spec, workloads::SystemKind kind,
               const workloads::DeploymentOptions& deployment,
               workloads::Workload& workload, int reps);

/// Runs the driver for `seconds` with zero warmup and `kClients` clients.
workloads::Driver::Report RunDriver(
    core::SystemInterface& system, workloads::Workload& workload,
    double seconds, uint64_t seed,
    std::vector<std::pair<std::chrono::milliseconds, std::function<void()>>>
        actions = {});

/// Output checks run after a system's timed windows; `detail` says what
/// failed. YCSB: once replicas converge, the 8-byte value counters of every
/// written row sum to the committed key writes. SmallBank: a short
/// history-recording pass on a fresh deployment audits clean under
/// tools/si_checker.
bool CheckOutputs(const WorkloadSpec& spec, workloads::SystemKind kind,
                  const workloads::DeploymentOptions& deployment,
                  workloads::Workload& workload, core::SystemInterface& system,
                  const TimedSystem& timed, std::string* detail);

/// Sum over the driver report of failures that are not SnapshotTooOld.
uint64_t UnexpectedAborts(const workloads::Driver::Report& report);

}  // namespace perfbench

#endif  // DYNAMAST_PERFBENCH_HARNESS_H_
