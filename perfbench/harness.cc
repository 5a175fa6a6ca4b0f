#include "harness.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "baselines/leap_system.h"
#include "baselines/partitioned_system.h"
#include "common/latency_recorder.h"
#include "core/dynamast_system.h"
#include "process_stats.h"
#include "selector/strategy.h"
#include "tools/si_checker.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

namespace perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"ycsb-skew-model", Traffic::kYcsbSkew, false},
      {"ycsb-skew-zero", Traffic::kYcsbSkew, true},
      {"smallbank-model", Traffic::kSmallBank, false},
      {"smallbank-zero", Traffic::kSmallBank, true},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

workloads::DeploymentOptions MakeDeployment(const WorkloadSpec& spec,
                                            uint64_t seed) {
  workloads::DeploymentOptions d;
  d.num_sites = 4;
  d.worker_slots = 1;
  d.seed = seed;
  d.weights = spec.traffic == Traffic::kYcsbSkew
                  ? selector::StrategyWeights::Ycsb()
                  : selector::StrategyWeights::SmallBank();
  if (spec.zero_cost) {
    d.read_op_cost = d.write_op_cost = d.apply_op_cost = d.one_way_latency =
        std::chrono::microseconds(0);
    d.charge_network = false;
  } else {
    d.read_op_cost = std::chrono::microseconds(10);
    d.write_op_cost = std::chrono::microseconds(500);
    d.apply_op_cost = std::chrono::microseconds(100);
    d.one_way_latency = std::chrono::microseconds(250);
    d.charge_network = true;
  }
  return d;
}

namespace {

core::Cluster& ClusterOf(workloads::SystemKind kind,
                         core::SystemInterface& system) {
  switch (kind) {
    case workloads::SystemKind::kDynaMast:
    case workloads::SystemKind::kSingleMaster:
      return static_cast<core::DynaMastSystem&>(system).cluster();
    case workloads::SystemKind::kMultiMaster:
    case workloads::SystemKind::kPartitionStore:
      return static_cast<baselines::PartitionedSystem&>(system).cluster();
    case workloads::SystemKind::kLeap:
      break;
  }
  return static_cast<baselines::LeapSystem&>(system).cluster();
}

}  // namespace

Status CheckZeroCost(const WorkloadSpec& spec, workloads::SystemKind kind,
                     core::SystemInterface& system) {
  if (!spec.zero_cost) return Status::OK();
  core::Cluster& cluster = ClusterOf(kind, system);
  const net::SimulatedNetwork::Options& net = cluster.network().options();
  bool charges = net.charge_delays || net.one_way_latency.count() != 0;
  for (SiteId id = 0; id < cluster.num_sites(); ++id) {
    const site::SiteOptions& site = cluster.site(id)->options();
    charges = charges || site.read_op_cost.count() != 0 ||
              site.write_op_cost.count() != 0 ||
              site.apply_op_cost.count() != 0;
  }
  if (!charges) return Status::OK();
  return Status::InvalidArgument(
      std::string(spec.name) + " is a zero-cost workload but " +
      workloads::SystemKindName(kind) + " would charge simulated time");
}

std::unique_ptr<workloads::Workload> MakeWorkload(const WorkloadSpec& spec,
                                                  uint64_t seed) {
  if (spec.traffic == Traffic::kYcsbSkew) {
    workloads::YcsbWorkload::Options o;
    o.num_keys = kYcsbKeys;
    o.keys_per_partition = 100;
    o.value_size = 120;
    o.rmw_pct = 90;
    o.zipfian = true;
    o.zipf_theta = 0.75;
    o.scramble_zipf = false;
    o.affinity_txns = 10;
    o.seed = seed;
    return std::make_unique<workloads::YcsbWorkload>(o);
  }
  workloads::SmallBankWorkload::Options o;
  o.num_accounts = 100'000;
  o.single_update_pct = 45;
  o.two_row_update_pct = 40;
  o.locality_pct = 80;
  o.seed = seed;
  return std::make_unique<workloads::SmallBankWorkload>(o);
}

// ---------------------------------------------------------------------------
// TimedSystem

TimedSystem::TimedSystem(core::SystemInterface* inner, uint64_t tracked_rows)
    : ForwardingSystem(inner), slots_(kClients) {
  for (Slot& slot : slots_) slot.written.assign(tracked_rows, 0);
}

Status TimedSystem::Execute(core::ClientState& client,
                            const core::TxnProfile& profile,
                            const core::TxnLogic& logic,
                            core::TxnResult* result) {
  const auto start = std::chrono::steady_clock::now();
  Status s = inner_->Execute(client, profile, logic, result);
  const auto end = std::chrono::steady_clock::now();
  Slot& slot = slots_.at(client.id - 1);
  slot.finished.fetch_add(1, std::memory_order_relaxed);
  if (s.ok()) {
    slot.committed.fetch_add(1, std::memory_order_relaxed);
    if (sampling_ && end < deadline_) {
      slot.samples.push_back(static_cast<uint64_t>((end - start).count()));
    }
    if (!profile.read_only) {
      slot.key_writes += profile.write_keys.size();
      for (const RecordKey& key : profile.write_keys) {
        if (key.row < slot.written.size()) slot.written[key.row] = 1;
      }
    }
  } else if (!s.IsSnapshotTooOld()) {
    if (slot.unexpected++ == 0) slot.first_unexpected = s.ToString();
  }
  return s;
}

void TimedSystem::StartSampling(std::chrono::nanoseconds window) {
  deadline_ = std::chrono::steady_clock::now() + window;
  sampling_ = true;
}

std::vector<uint64_t> TimedSystem::TakeSamples() {
  std::vector<uint64_t> all;
  for (Slot& slot : slots_) {
    all.insert(all.end(), slot.samples.begin(), slot.samples.end());
    slot.samples.clear();
  }
  return all;
}

uint64_t TimedSystem::Finished() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.finished.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TimedSystem::Committed() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.committed.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TimedSystem::CommittedKeyWrites() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.key_writes;
  return total;
}

std::vector<uint64_t> TimedSystem::WrittenRows() const {
  std::vector<uint64_t> out;
  for (uint64_t row = 0; row < slots_.front().written.size(); ++row) {
    for (const Slot& slot : slots_) {
      if (slot.written[row] != 0) {
        out.push_back(row);
        break;
      }
    }
  }
  return out;
}

uint64_t TimedSystem::UnexpectedFailures() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.unexpected;
  return total;
}

std::string TimedSystem::FirstUnexpectedFailure() const {
  for (const Slot& slot : slots_) {
    if (slot.unexpected > 0) return slot.first_unexpected;
  }
  return "";
}

// ---------------------------------------------------------------------------

namespace {

// Nearest rank: the q-quantile is the ceil(q*n)-th smallest sample.
size_t Rank(double q, size_t n) {
  const auto r = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<size_t>(r, 1) - 1;
}

uint64_t Quantile(std::vector<uint64_t>& v, double q) {
  const size_t r = Rank(q, v.size());
  std::nth_element(v.begin(), v.begin() + r, v.end());
  return v[r];
}

}  // namespace

Percentiles ExactPercentiles(std::vector<uint64_t> latencies_ns) {
  Percentiles p;
  p.count = latencies_ns.size();
  if (latencies_ns.empty()) return p;
  p.p50_us = static_cast<double>(Quantile(latencies_ns, 0.50)) / 1e3;
  p.p99_us = static_cast<double>(Quantile(latencies_ns, 0.99)) / 1e3;
  p.beyond_p99 = p.count - 1 - Rank(0.99, p.count);
  return p;
}

Deployed SetUp(const WorkloadSpec& spec, workloads::SystemKind kind,
               const workloads::DeploymentOptions& deployment,
               workloads::Workload& workload, int reps) {
  Deployed d;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    if (d.system != nullptr) {
      d.system->Shutdown();
      d.system.reset();
    }
    // One repetition means the caller wants the RSS growth of a load: hand
    // freed pages back first so the delta measures live memory.
    if (reps == 1) TrimHeap();
    auto registry = std::make_unique<metrics::Registry>();
    workloads::DeploymentOptions options = deployment;
    options.metrics = registry.get();
    Stopwatch watch;
    auto system = workloads::MakeSystem(kind, options, workload.partitioner());
    if (Status zero = CheckZeroCost(spec, kind, *system); !zero.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", zero.ToString().c_str());
      std::exit(2);
    }
    const uint64_t rss_before = ResidentBytes();
    Status s = workload.Load(*system);
    const uint64_t rss_after = ResidentBytes();
    if (!s.ok()) {
      std::fprintf(stderr, "load failed for %s: %s\n",
                   workloads::SystemKindName(kind), s.ToString().c_str());
      std::exit(1);
    }
    system->Seal();
    times.push_back(watch.ElapsedSeconds());
    d.load_rss_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
    d.system = std::move(system);
    d.registry = std::move(registry);
  }
  std::sort(times.begin(), times.end());
  d.setup_s = times[times.size() / 2];
  return d;
}

workloads::Driver::Report RunDriver(
    core::SystemInterface& system, workloads::Workload& workload,
    double seconds, uint64_t seed,
    std::vector<std::pair<std::chrono::milliseconds, std::function<void()>>>
        actions) {
  workloads::Driver::Options o;
  o.num_clients = kClients;
  o.warmup = std::chrono::milliseconds(0);
  o.measure = std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  o.seed = seed;
  o.scheduled_actions = std::move(actions);
  return workloads::Driver(o).Run(system, workload);
}

uint64_t UnexpectedAborts(const workloads::Driver::Report& report) {
  uint64_t n = 0;
  for (const auto& [reason, count] : report.aborted_by_reason) {
    if (reason != StatusCodeName(Status::Code::kSnapshotTooOld)) n += count;
  }
  return n;
}

namespace {

// Reads `rows` through Execute, in read-only transactions of kBatch keys,
// and sums the YCSB value counters. Returns false if a read keeps failing.
bool SumCounters(core::SystemInterface& system,
                 const std::vector<uint64_t>& rows, uint64_t* sum) {
  constexpr size_t kBatch = 1000;
  core::ClientState client;
  client.id = 1000;
  *sum = 0;
  for (size_t first = 0; first < rows.size(); first += kBatch) {
    core::TxnProfile profile;
    profile.read_only = true;
    for (size_t i = first; i < std::min(first + kBatch, rows.size()); ++i) {
      profile.read_keys.push_back(
          RecordKey{workloads::YcsbWorkload::kTable, rows[i]});
    }
    uint64_t batch_sum = 0;
    const std::vector<RecordKey>& keys = profile.read_keys;
    core::TxnLogic logic = [&](core::TxnContext& ctx) -> Status {
      batch_sum = 0;
      std::string value;
      for (const RecordKey& key : keys) {
        Status s = ctx.Get(key, &value);
        if (!s.ok()) return s;
        batch_sum += workloads::YcsbWorkload::ValueCounter(value);
      }
      return Status::OK();
    };
    Status s;
    for (int attempt = 0; attempt < 20; ++attempt) {
      core::TxnResult result;
      s = system.Execute(client, profile, logic, &result);
      if (s.ok()) break;
    }
    if (!s.ok()) return false;
    *sum += batch_sum;
  }
  return true;
}

bool CheckYcsb(core::SystemInterface& system, const TimedSystem& timed,
               std::string* detail) {
  const uint64_t expected = timed.CommittedKeyWrites();
  const std::vector<uint64_t> rows = timed.WrittenRows();
  // Replicas converge asynchronously: a stale read shows fewer updates, so
  // poll until the sum matches; a sum above the committed writes is wrong
  // at once.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t sum = 0;
  while (true) {
    if (!SumCounters(system, rows, &sum)) {
      *detail = "verification read kept failing";
      return false;
    }
    if (sum == expected) return true;
    if (sum > expected || std::chrono::steady_clock::now() > give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  *detail = "value counters sum to " + std::to_string(sum) + ", committed " +
            std::to_string(expected) + " key writes";
  return false;
}

// A fixed-count history-recording pass on a fresh deployment, audited
// offline for SI anomalies. The pass runs the benchmark's SmallBank mix
// over kAuditAccounts accounts: a small table keeps the extra load short
// and makes conflicting transactions (what the auditor checks) common.
bool AuditSmallBank(workloads::SystemKind kind,
                    const workloads::DeploymentOptions& deployment,
                    const workloads::SmallBankWorkload& benchmark,
                    std::string* detail) {
  constexpr uint64_t kAuditAccounts = 2'000;
  workloads::SmallBankWorkload::Options small = benchmark.options();
  small.num_accounts = kAuditAccounts;
  workloads::SmallBankWorkload workload(small);
  workloads::DeploymentOptions options = deployment;
  options.record_history = true;
  metrics::Registry registry;
  options.metrics = &registry;
  auto system = workloads::MakeSystem(kind, options, workload.partitioner());
  Status s = workload.Load(*system);
  if (!s.ok()) {
    *detail = "audit load failed: " + s.ToString();
    return false;
  }
  system->Seal();
  workloads::Driver::Options o;
  o.num_clients = kClients;
  o.ops_per_client = 250;
  workloads::Driver::Report report = workloads::Driver(o).Run(*system, workload);
  system->Shutdown();
  const tools::AuditReport audit = tools::AuditHistory(
      system->history()->Snapshot(), tools::OptionsForSystem(system->name()));
  if (UnexpectedAborts(report) > 0) {
    *detail = "audit pass had " + std::to_string(UnexpectedAborts(report)) +
              " unexpected aborts";
    return false;
  }
  if (!audit.ok() || audit.commits == 0) {
    *detail = "SI audit: " + audit.ToString();
    return false;
  }
  return true;
}

}  // namespace

bool CheckOutputs(const WorkloadSpec& spec, workloads::SystemKind kind,
                  const workloads::DeploymentOptions& deployment,
                  workloads::Workload& workload, core::SystemInterface& system,
                  const TimedSystem& timed, std::string* detail) {
  if (timed.UnexpectedFailures() > 0) {
    *detail = std::to_string(timed.UnexpectedFailures()) +
              " failed transactions, e.g. " + timed.FirstUnexpectedFailure();
    return false;
  }
  if (spec.traffic == Traffic::kYcsbSkew) {
    return CheckYcsb(system, timed, detail);
  }
  return AuditSmallBank(
      kind, deployment,
      static_cast<const workloads::SmallBankWorkload&>(workload), detail);
}

}  // namespace perfbench
