#include "probes.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "common/latency_recorder.h"
#include "core/dynamast_system.h"
#include "log/durable_log.h"
#include "log/log_record.h"
#include "storage/storage_engine.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ns(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One generated transaction, with the reads and writes its logic made
/// against a context that serves the loaded value for every key.
struct CapturedTxn {
  core::TxnProfile profile;
  std::vector<RecordKey> gets;
  std::vector<log::WriteEntry> puts;
};

class CaptureContext final : public core::TxnContext {
 public:
  CaptureContext(const std::string* initial, CapturedTxn* out)
      : initial_(initial), out_(out) {}
  Status Get(const RecordKey& key, std::string* value) override {
    out_->gets.push_back(key);
    auto it = staged_.find(key);
    *value = it != staged_.end() ? it->second : *initial_;
    return Status::OK();
  }
  Status Put(const RecordKey& key, std::string value) override {
    staged_[key] = value;
    out_->puts.push_back(log::WriteEntry{key, std::move(value), false});
    return Status::OK();
  }
  Status Insert(const RecordKey& key, std::string value) override {
    staged_[key] = value;
    out_->puts.push_back(log::WriteEntry{key, std::move(value), true});
    return Status::OK();
  }

 private:
  const std::string* initial_;
  CapturedTxn* out_;
  std::map<RecordKey, std::string> staged_;
};

std::string InitialValue(const WorkloadSpec& spec,
                         workloads::Workload& workload) {
  if (spec.traffic == Traffic::kYcsbSkew) {
    const auto& o = static_cast<workloads::YcsbWorkload&>(workload).options();
    return workloads::YcsbWorkload::MakeValue(0, o.value_size);
  }
  const auto& o =
      static_cast<workloads::SmallBankWorkload&>(workload).options();
  return workloads::SmallBankWorkload::MakeBalance(o.initial_balance);
}

std::vector<CapturedTxn> Capture(workloads::Workload& workload,
                                 const std::string& initial, size_t n) {
  // A client index no timed run uses.
  std::unique_ptr<workloads::WorkloadClient> client =
      workload.MakeClient(50 * kClients);
  std::vector<CapturedTxn> out(n);
  for (CapturedTxn& captured : out) {
    workloads::WorkloadTxn txn = client->Next();
    captured.profile = txn.profile;
    CaptureContext ctx(&initial, &captured);
    (void)txn.logic(ctx);
  }
  return out;
}

std::vector<PartitionId> PartitionsOf(const Partitioner& partitioner,
                                      const std::vector<RecordKey>& keys) {
  std::vector<PartitionId> out;
  for (const RecordKey& key : keys) out.push_back(partitioner.PartitionOf(key));
  return out;
}

// Selector routing replayed from generated profiles, plus the site commit
// and refresh-visibility probes on the routed (mastering) site.
void ProbeSelectorAndCommit(core::DynaMastSystem& system,
                            const Partitioner& partitioner,
                            const std::vector<CapturedTxn>& txns,
                            std::map<std::string, double>* out) {
  core::Cluster& cluster = system.cluster();
  selector::SiteSelector& selector = system.site_selector();
  const uint32_t sites = cluster.num_sites();
  std::vector<VersionVector> sessions(kClients);
  std::vector<double> route_write, route_read, commit, visible;
  uint64_t routes = 0, remastered = 0;
  const auto budget_end = Clock::now() + std::chrono::milliseconds(1500);
  for (size_t i = 0; i < txns.size() && Clock::now() < budget_end; ++i) {
    const CapturedTxn& txn = txns[i];
    const ClientId client = static_cast<ClientId>(i % kClients) + 1;
    VersionVector& session = sessions[client - 1];
    if (txn.profile.read_only) {
      SiteId site = 0;
      const auto t0 = Clock::now();
      (void)selector.RouteRead(client, session, &site);
      route_read.push_back(Ns(Clock::now() - t0));
      continue;
    }
    selector::RouteResult route;
    auto t0 = Clock::now();
    Status s = selector.RouteWritePartitions(
        client, PartitionsOf(partitioner, txn.profile.write_keys), session,
        &route);
    route_write.push_back(Ns(Clock::now() - t0));
    if (!s.ok()) continue;
    ++routes;
    if (route.remastered) ++remastered;

    site::SiteManager* site = cluster.site(route.site);
    site::TxnOptions options;
    options.write_keys = txn.profile.write_keys;
    options.min_begin_version = route.min_begin_version;
    options.client = client;
    site::Transaction handle;
    VersionVector commit_version;
    t0 = Clock::now();
    s = site->BeginTransaction(options, &handle);
    if (!s.ok()) continue;
    for (const log::WriteEntry& w : txn.puts) {
      s = handle.Put(w.key, w.value);
      if (!s.ok()) break;
    }
    if (!s.ok()) {
      site->Abort(&handle, s);
      continue;
    }
    s = site->Commit(&handle, &commit_version);
    const auto committed = Clock::now();
    if (!s.ok()) continue;
    commit.push_back(Ns(committed - t0));
    session.MaxWith(commit_version);
    if (visible.size() < 200) {
      site::SiteManager* peer = cluster.site((route.site + 1) % sites);
      const auto give_up = committed + std::chrono::seconds(1);
      while (!peer->FreshnessProbe(commit_version, nullptr) &&
             Clock::now() < give_up) {
        std::this_thread::yield();
      }
      visible.push_back(Ns(Clock::now() - committed));
    }
  }
  (*out)["selector.route_write_us"] = Median(route_write) / 1e3;
  (*out)["selector.route_read_us"] = Median(route_read) / 1e3;
  (*out)["selector.remaster_ratio"] =
      routes > 0 ? static_cast<double>(remastered) / routes : 0;
  (*out)["site.commit_us"] = Median(commit) / 1e3;
  (*out)["site.refresh_visible_us"] = Median(visible) / 1e3;
}

// Release + Grant of one partition between two sites, there and back.
void ProbeReleaseGrant(core::Cluster& cluster,
                       std::map<std::string, double>* out) {
  site::SiteManager* a = cluster.site(0);
  site::SiteManager* b = cluster.site(1);
  const std::vector<PartitionId> mastered = a->MasteredPartitions();
  std::vector<double> samples;
  if (!mastered.empty()) {
    const std::vector<PartitionId> partition = {mastered.front()};
    for (int i = 0; i < 100; ++i) {
      site::SiteManager* from = i % 2 == 0 ? a : b;
      site::SiteManager* to = i % 2 == 0 ? b : a;
      VersionVector released, granted;
      const auto t0 = Clock::now();
      Status s = from->Release(partition, to->site_id(), &released);
      if (s.ok()) s = to->Grant(partition, from->site_id(), released, &granted);
      if (!s.ok()) break;
      samples.push_back(Ns(Clock::now() - t0));
    }
  }
  (*out)["site.release_grant_us"] = Median(samples) / 1e3;
}

// Sleep fidelity: charged duration vs requested, at the workload's costs.
void ProbeOvershoot(core::Cluster& cluster,
                    const workloads::DeploymentOptions& deployment,
                    std::map<std::string, double>* out) {
  site::SiteManager* site = cluster.site(0);
  std::vector<double> charge;
  for (int i = 0; i < 200; ++i) {
    const std::chrono::nanoseconds d =
        i % 2 == 0 ? deployment.read_op_cost : deployment.write_op_cost;
    const auto t0 = Clock::now();
    site->ChargeDuration(d);
    charge.push_back(Ns(Clock::now() - t0) - static_cast<double>(d.count()));
  }
  (*out)["site.charge_overshoot_us"] = Median(charge) / 1e3;

  net::SimulatedNetwork& net = cluster.network();
  constexpr size_t kBytes = 64;
  const auto& options = net.options();
  const std::chrono::nanoseconds expected =
      options.charge_delays
          ? std::chrono::nanoseconds(options.one_way_latency) +
                options.per_kilobyte * static_cast<int64_t>(kBytes / 1024 + 1)
          : std::chrono::nanoseconds(0);
  std::vector<double> send;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    net.Send(net::TrafficClass::kClientRequest, kBytes);
    send.push_back(Ns(Clock::now() - t0) -
                   static_cast<double>(expected.count()));
  }
  (*out)["net.send_overshoot_us"] = Median(send) / 1e3;
}

void ProbeStorageAndLog(const std::vector<CapturedTxn>& txns,
                        const std::string& initial,
                        std::map<std::string, double>* out) {
  storage::StorageEngine engine;
  std::vector<RecordKey> reads;
  std::vector<std::pair<RecordKey, std::string>> writes;
  for (const CapturedTxn& txn : txns) {
    reads.insert(reads.end(), txn.gets.begin(), txn.gets.end());
    for (const log::WriteEntry& w : txn.puts) writes.emplace_back(w.key, w.value);
  }
  // Untimed: every touched key exists with one base version.
  auto ensure = [&](const RecordKey& key) {
    if (engine.GetTable(key.table) == nullptr) {
      (void)engine.CreateTable(key.table);
    }
    if (!engine.Contains(key)) (void)engine.Install(key, 0, 1, initial);
  };
  for (const RecordKey& key : reads) ensure(key);
  for (const auto& write : writes) ensure(write.first);

  std::vector<std::string> values;
  values.reserve(writes.size());
  for (const auto& w : writes) values.push_back(w.second);
  auto t0 = Clock::now();
  for (size_t i = 0; i < writes.size(); ++i) {
    (void)engine.Install(writes[i].first, 0, 2 + i, std::move(values[i]));
  }
  (*out)["storage.install_ns"] =
      writes.empty() ? 0 : Ns(Clock::now() - t0) / writes.size();

  VersionVector snapshot(4);
  snapshot[0] = 2 + writes.size();
  std::string value;
  t0 = Clock::now();
  for (const RecordKey& key : reads) (void)engine.Read(key, snapshot, &value);
  (*out)["storage.read_ns"] =
      reads.empty() ? 0 : Ns(Clock::now() - t0) / reads.size();

  storage::LockManager& locks = engine.lock_manager();
  const auto deadline = Clock::now() + std::chrono::hours(1);
  t0 = Clock::now();
  for (size_t i = 0; i < writes.size(); ++i) {
    (void)locks.Acquire(writes[i].first, i + 1, deadline);
    locks.Release(writes[i].first, i + 1);
  }
  (*out)["storage.lock_ns"] =
      writes.empty() ? 0 : Ns(Clock::now() - t0) / writes.size();

  // Log append of records serialized at the workload's write-set sizes.
  std::vector<std::string> payloads;
  for (size_t i = 0; i < txns.size(); ++i) {
    if (txns[i].puts.empty()) continue;
    log::LogRecord record;
    record.type = log::LogRecord::Type::kUpdate;
    record.tvv = VersionVector(4);
    record.tvv[0] = i + 1;
    record.writes = txns[i].puts;
    payloads.push_back(record.Serialize());
  }
  log::DurableLog log;
  t0 = Clock::now();
  for (std::string& payload : payloads) (void)log.Append(std::move(payload));
  (*out)["log.append_us"] =
      payloads.empty() ? 0 : Ns(Clock::now() - t0) / payloads.size() / 1e3;
}

// Registry hot paths from kClients threads at once.
void ProbeRegistry(std::map<std::string, double>* out) {
  metrics::Registry registry;
  metrics::Counter* counter = registry.GetCounter("perfbench_probe_total");
  metrics::Histogram* histogram = registry.GetHistogram("perfbench_probe_us");
  auto per_op_ns = [](uint64_t ops, auto&& op) {
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (uint32_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (uint64_t i = 0; i < ops; ++i) op(i + t);
      });
    }
    for (std::thread& t : threads) t.join();
    return Ns(Clock::now() - t0) / static_cast<double>(ops);
  };
  (*out)["common.counter_inc_ns"] =
      per_op_ns(500'000, [&](uint64_t) { counter->Increment(); });
  (*out)["common.histogram_observe_ns"] =
      per_op_ns(100'000, [&](uint64_t i) { histogram->Observe(i % 5000); });
}

}  // namespace

double UserBytes(const WorkloadSpec& spec, workloads::Workload& workload) {
  constexpr double kKeyBytes = sizeof(RecordKey);
  const double value = static_cast<double>(InitialValue(spec, workload).size());
  if (spec.traffic == Traffic::kYcsbSkew) {
    const auto& o = static_cast<workloads::YcsbWorkload&>(workload).options();
    return static_cast<double>(o.num_keys) * (kKeyBytes + value);
  }
  const auto& o =
      static_cast<workloads::SmallBankWorkload&>(workload).options();
  return 2.0 * static_cast<double>(o.num_accounts) * (kKeyBytes + value);
}

std::map<std::string, double> RunLayerProbes(
    const WorkloadSpec& spec, const workloads::DeploymentOptions& deployment,
    workloads::Workload& workload) {
  std::map<std::string, double> out;
  const std::string initial = InitialValue(spec, workload);
  const std::vector<CapturedTxn> txns = Capture(workload, initial, 2000);

  Deployed deployed =
      SetUp(spec, workloads::SystemKind::kDynaMast, deployment, workload, 1);
  auto* dynamast = dynamic_cast<core::DynaMastSystem*>(deployed.system.get());
  if (dynamast == nullptr) {
    std::fprintf(stderr, "layer probes need a DynaMast deployment\n");
    std::exit(1);
  }
  ProbeOvershoot(dynamast->cluster(), deployment, &out);
  ProbeSelectorAndCommit(*dynamast, workload.partitioner(), txns, &out);
  // Last: site-level mastership moves bypass the selector's partition map.
  ProbeReleaseGrant(dynamast->cluster(), &out);
  deployed.system->Shutdown();

  ProbeStorageAndLog(txns, initial, &out);
  ProbeRegistry(&out);
  return out;
}

}  // namespace perfbench
