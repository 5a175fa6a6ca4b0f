#include "baselines/partitioned_system.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/scheduler.h"
#include "common/sim_clock.h"
#include "core/site_txn_context.h"
#include "selector/site_selector.h"

namespace dynamast::baselines {

namespace {

constexpr size_t kRpcRequestBytes = 256;
constexpr size_t kRpcResponseBytes = 128;
constexpr size_t kPrepareBytes = 96;
constexpr size_t kCommitDecisionBytes = 64;

/// A transaction's snapshot at each site it reads outside a sub-
/// transaction, pinned at first touch so every read at one site sees one
/// commit prefix. The read path's prefetch threads pin their owners
/// concurrently.
class OwnerSnapshots {
 public:
  const VersionVector& At(SiteId id, const site::SiteManager& site) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = snapshots_.find(id);
      if (it != snapshots_.end()) return it->second;
    }
    // Read outside mu_ (the site lock is a scheduler sync point); the
    // first pin wins. Nodes are stable across later inserts.
    VersionVector current = site.CurrentVersion();
    std::lock_guard<std::mutex> guard(mu_);
    return snapshots_.emplace(id, std::move(current)).first->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<SiteId, VersionVector> snapshots_;
};

}  // namespace

/// TxnContext for a (possibly distributed) write transaction coordinated
/// with two-phase commit. Each participant site holds an open sub-
/// transaction; operations route to the sub-transaction of the key's
/// owning site. The coordinator's service time is only sim::Charge()d; it
/// is settled by the next round trip or by the first commit or abort.
class CoordinatedTxnContext final : public core::TxnContext {
 public:
  CoordinatedTxnContext(PartitionedSystem* system, SiteId coordinator,
                        std::map<SiteId, site::Transaction>* subtxns)
      : system_(system), coordinator_(coordinator), subtxns_(subtxns) {}

  Status Get(const RecordKey& key, std::string* value) override {
    sim::Charge(system_->cluster_.site(coordinator_)->options().read_op_cost);
    const SiteId owner = system_->OwnerOfKey(key);
    auto it = subtxns_->find(owner);
    if (it != subtxns_->end()) {
      // The owner is a write participant: read through its sub-transaction
      // (sees this transaction's staged writes).
      return it->second.Get(key, value);
    }
    if (system_->options_.cluster.replicated) {
      // Multi-master: a local replica serves the read.
      return subtxns_->at(coordinator_).Get(key, value);
    }
    // Partition-store: static read-only tables are replicated everywhere,
    // so a locally present row is served without a round trip. The
    // coordinator need not be a participant (random-coordinator mode), in
    // which case the engine is read directly at its pinned snapshot.
    site::SiteManager* coord_site = system_->cluster_.site(coordinator_);
    if (coord_site->engine().Contains(key)) {
      auto coord_txn = subtxns_->find(coordinator_);
      if (coord_txn != subtxns_->end()) {
        return coord_txn->second.Get(key, value);
      }
      return coord_site->engine().Read(
          key, snapshots_.At(coordinator_, *coord_site), value);
    }
    // Otherwise: remote read round trip at the owner's pinned snapshot.
    system_->cluster_.network().RoundTrip(net::TrafficClass::kCoordination,
                                          kRpcRequestBytes, kRpcResponseBytes);
    // Participant-side work charges the owner's service time but does not
    // occupy an admission slot: coordinators already hold slots at their
    // own sites, and slot-in-slot waiting deadlocks under load.
    site::SiteManager* owner_site = system_->cluster_.site(owner);
    owner_site->ChargeOps(1, 0);
    return owner_site->engine().Read(key, snapshots_.At(owner, *owner_site),
                                     value);
  }

  Status Put(const RecordKey& key, std::string value) override {
    sim::Charge(system_->cluster_.site(coordinator_)->options().write_op_cost);
    const SiteId owner = system_->OwnerOfKey(key);
    auto it = subtxns_->find(owner);
    if (it == subtxns_->end()) {
      return Status::InvalidArgument("write to non-participant site");
    }
    return it->second.Put(key, std::move(value));
  }

  Status Insert(const RecordKey& key, std::string value) override {
    sim::Charge(system_->cluster_.site(coordinator_)->options().write_op_cost);
    const SiteId owner = system_->OwnerOfKey(key);
    auto it = subtxns_->find(owner);
    if (it == subtxns_->end()) {
      return Status::InvalidArgument("insert to non-participant site");
    }
    return it->second.Insert(key, std::move(value));
  }

 private:
  PartitionedSystem* system_;
  SiteId coordinator_;
  std::map<SiteId, site::Transaction>* subtxns_;
  OwnerSnapshots snapshots_;  // non-participant sites
};

PartitionedSystem::PartitionedSystem(const Options& options,
                                     const Partitioner* partitioner)
    : options_(options),
      partitioner_(partitioner),
      cluster_(options.cluster, partitioner),
      single_site_(cluster_.metrics()->GetCounter(
          "partitioned_txns_total", {{"kind", "single_site"}})),
      distributed_(cluster_.metrics()->GetCounter(
          "partitioned_txns_total", {{"kind", "distributed"}})),
      rng_(options.seed) {
  if (options_.placement.size() < partitioner->NumPartitions()) {
    options_.placement.resize(partitioner->NumPartitions(), 0);
  }
}

PartitionedSystem::~PartitionedSystem() { Shutdown(); }

Status PartitionedSystem::LoadRow(const RecordKey& key, std::string value) {
  if (options_.cluster.replicated) {
    for (SiteId s = 0; s < cluster_.num_sites(); ++s) {
      Status status = cluster_.site(s)->LoadRecord(key, value);
      if (!status.ok()) return status;
    }
    return Status::OK();
  }
  // Partition-store: the owning site holds the only copy.
  return cluster_.site(OwnerOfKey(key))->LoadRecord(key, value);
}

Status PartitionedSystem::LoadReplicatedRow(const RecordKey& key,
                                            std::string value) {
  // Static read-only tables are replicated even without general
  // replication (Section VI-A1).
  for (SiteId s = 0; s < cluster_.num_sites(); ++s) {
    Status status = cluster_.site(s)->LoadRecord(key, value);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void PartitionedSystem::Seal() {
  if (sealed_) return;
  sealed_ = true;
  for (PartitionId p = 0; p < options_.placement.size(); ++p) {
    const SiteId owner = options_.placement[p];
    for (SiteId s = 0; s < cluster_.num_sites(); ++s) {
      cluster_.site(s)->SetMasterOf(p, s == owner);
    }
  }
  cluster_.Start();
}

Status PartitionedSystem::Execute(core::ClientState& client,
                                  const core::TxnProfile& profile,
                                  const core::TxnLogic& logic,
                                  core::TxnResult* result) {
  // `result` is an optional out-param; the helpers below assume non-null.
  core::TxnResult scratch;
  if (result == nullptr) result = &scratch;
  client.issued_txns++;
  // All evaluated systems share the framework's client->router hop
  // (Section VI-A1: every design is implemented within the DynaMast
  // framework), so baselines pay the same routing round trip DynaMast
  // pays for its site selector.
  cluster_.network().RoundTrip(net::TrafficClass::kClientRequest, 128, 64);
  if (profile.read_only) return ExecuteRead(client, profile, logic, result);

  // Which sites own the write set?
  std::unordered_map<SiteId, size_t> owner_counts;
  for (const RecordKey& key : profile.write_keys) {
    owner_counts[OwnerOfKey(key)]++;
  }
  for (PartitionId p : profile.extra_write_partitions) {
    owner_counts[OwnerOf(p)]++;
  }
  if (owner_counts.empty()) {
    return Status::InvalidArgument("write transaction with no write set");
  }
  SiteId coordinator = owner_counts.begin()->first;
  size_t best = 0;
  std::vector<SiteId> participants;
  for (const auto& [site, count] : owner_counts) {
    participants.push_back(site);
    if (count > best) {
      best = count;
      coordinator = site;
    }
  }
  std::sort(participants.begin(), participants.end());

  if (options_.random_coordinator) {
    // Placement-oblivious front: the client lands on an arbitrary site.
    MutexLock guard(rng_mu_);
    coordinator = static_cast<SiteId>(rng_.Uniform(cluster_.num_sites()));
  }

  const bool one_site =
      participants.size() == 1 && participants[0] == coordinator;
  if (one_site) {
    single_site_->Increment();
  } else {
    distributed_->Increment();
  }
  // The pure-local fast path requires replicas: without them, reads of
  // rows the executing site does not own need the coordinated context's
  // remote-read machinery even when the write set is single-sited.
  if (one_site && options_.cluster.replicated) {
    cluster_.network().RoundTrip(
        net::TrafficClass::kClientRequest,
        kRpcRequestBytes + 32 * profile.write_keys.size(), kRpcResponseBytes);
    site::SiteManager* site = cluster_.site(coordinator);
    site::AdmissionGate::Scoped slot(site->gate());
    core::SiteTxn txn(site, client, cluster_.write_phases());
    Status s = txn.Begin(profile, client.session);
    if (!s.ok()) return s;
    return txn.Run(logic, result);
  }
  result->distributed = participants.size() > 1;
  return ExecuteDistributedWrite(client, profile, logic, coordinator,
                                 participants, result);
}

Status PartitionedSystem::ExecuteDistributedWrite(
    core::ClientState& client, const core::TxnProfile& profile,
    const core::TxnLogic& logic, SiteId coordinator,
    const std::vector<SiteId>& participants, core::TxnResult* result) {
  net::SimulatedNetwork& net = cluster_.network();
  net.RoundTrip(net::TrafficClass::kClientRequest,
                kRpcRequestBytes + 32 * profile.write_keys.size(),
                kRpcResponseBytes);
  // Coordinator occupies a slot for the whole transaction.
  site::AdmissionGate::Scoped coord_slot(cluster_.site(coordinator)->gate());

  // Group declared write keys by owning site.
  std::unordered_map<SiteId, std::vector<RecordKey>> writes_by_site;
  for (const RecordKey& key : profile.write_keys) {
    writes_by_site[OwnerOfKey(key)].push_back(key);
  }

  // Open one sub-transaction per participant, acquiring its write locks.
  // Locks stay held through prepare and commit — the blocking that makes
  // distributed transactions expensive (Section II-A).
  std::map<SiteId, site::Transaction> subtxns;
  auto abort_all = [&] {
    for (auto& [site_id, txn] : subtxns) cluster_.site(site_id)->Abort(&txn);
  };
  for (SiteId p : participants) {
    if (p != coordinator) {
      net.RoundTrip(net::TrafficClass::kCoordination, kRpcRequestBytes,
                    kRpcResponseBytes);
    }
    site::SiteManager* site = cluster_.site(p);
    site::TxnOptions options;
    options.write_keys = writes_by_site[p];
    options.min_begin_version = options_.cluster.replicated
                                    ? client.session
                                    : core::MaskToIndex(client.session, p);
    options.client = client.id;
    options.client_txn = client.issued_txns;
    site::Transaction txn;
    // Participant work does not take a slot (see CoordinatedTxnContext::Get
    // on the slot-in-slot deadlock); lock acquisition inside Begin is
    // bounded by the lock timeout.
    Status s = site->BeginTransaction(options, &txn);
    if (!s.ok()) {
      abort_all();
      return s;
    }
    subtxns.emplace(p, std::move(txn));
  }

  CoordinatedTxnContext context(this, coordinator, &subtxns);
  Status s = logic(context);
  if (!s.ok()) {
    abort_all();
    return s;
  }

  // Phase 1: prepare — every participant votes. A single-participant
  // transaction commits in one phase (no global decision to reach).
  if (participants.size() > 1) {
    for (SiteId p : participants) {
      if (p != coordinator) {
        net.RoundTrip(net::TrafficClass::kCoordination, kPrepareBytes,
                      kCommitDecisionBytes);
      }
      bool vote_no = false;
      if (options_.injected_abort_probability > 0) {
        MutexLock guard(rng_mu_);
        vote_no = rng_.Bernoulli(options_.injected_abort_probability);
      }
      if (vote_no) {
        abort_all();
        return Status::Aborted("participant voted no in prepare");
      }
    }
  }

  // Phase 2: commit at every participant.
  for (auto& [site_id, txn] : subtxns) {
    if (site_id != coordinator) {
      net.RoundTrip(net::TrafficClass::kCoordination, kCommitDecisionBytes,
                    kCommitDecisionBytes);
    }
    site::SiteManager* site = cluster_.site(site_id);
    VersionVector commit_version;
    Status cs = site->Commit(&txn, &commit_version);
    if (!cs.ok()) return cs;  // after the decision, commit must apply
    client.session.MaxWith(commit_version);
  }
  result->executed_at = coordinator;
  return Status::OK();
}

Status PartitionedSystem::ExecuteRead(core::ClientState& client,
                                      const core::TxnProfile& profile,
                                      const core::TxnLogic& logic,
                                      core::TxnResult* result) {
  net::SimulatedNetwork& net = cluster_.network();

  if (options_.cluster.replicated) {
    // Multi-master: any session-fresh replica serves the whole
    // transaction.
    SiteId site_id;
    {
      MutexLock guard(rng_mu_);
      site_id = selector::PickReadSite(cluster_.site_pointers(),
                                       client.session, rng_);
    }
    net.RoundTrip(net::TrafficClass::kClientRequest, kRpcRequestBytes,
                  kRpcResponseBytes);
    site::SiteManager* site = cluster_.site(site_id);
    site::AdmissionGate::Scoped slot(site->gate());
    core::SiteTxn txn(site, client);
    Status s = txn.Begin(profile, client.session);
    if (!s.ok()) return s;
    return txn.Run(logic, result);
  }

  // Partition-store: the transaction runs at the site owning most of the
  // read set; reads of other partitions are remote round trips, and the
  // slowest one gates completion (the straggler effect, Section VI-B2).
  std::unordered_map<SiteId, size_t> owner_counts;
  for (const RecordKey& key : profile.read_keys) {
    owner_counts[OwnerOfKey(key)]++;
  }
  for (PartitionId p : profile.read_partitions) {
    owner_counts[OwnerOf(p)]++;
  }
  SiteId coordinator = 0;
  size_t best = 0;
  for (const auto& [site, count] : owner_counts) {
    if (count > best) {
      best = count;
      coordinator = site;
    }
  }
  if (options_.random_coordinator) {
    MutexLock guard(rng_mu_);
    coordinator = static_cast<SiteId>(rng_.Uniform(cluster_.num_sites()));
  }
  if (owner_counts.size() > 1) {
    distributed_->Increment();
    result->distributed = true;
  } else {
    single_site_->Increment();
  }

  net.RoundTrip(net::TrafficClass::kClientRequest, kRpcRequestBytes,
                kRpcResponseBytes);
  site::SiteManager* coord_site = cluster_.site(coordinator);
  site::AdmissionGate::Scoped slot(coord_site->gate());

  // Remote portions of the declared read set are fetched with one batched
  // sub-read RPC per owning site, issued in parallel — the transaction
  // completes when the slowest site responds (the straggler effect of
  // Section VI-B2). Each sub-read occupies the owner's capacity: without
  // replicas, read load is pinned to the data's owner.
  std::unordered_map<SiteId, std::vector<RecordKey>> remote_reads;
  for (const RecordKey& key : profile.read_keys) {
    const SiteId owner = OwnerOfKey(key);
    if (owner != coordinator && !coord_site->engine().Contains(key)) {
      remote_reads[owner].push_back(key);
    }
  }
  std::unordered_map<RecordKey, std::string, RecordKeyHash> prefetched;
  std::mutex prefetched_mu;
  OwnerSnapshots snapshots;
  if (!remote_reads.empty()) {
    std::vector<std::thread> fetchers;
    const std::string parent = sched::CurrentThreadName();
    for (auto& [owner, keys] : remote_reads) {
      fetchers.emplace_back([this, owner = owner, &keys, &prefetched,
                             &prefetched_mu, &snapshots, &parent] {
        sched::ThreadGuard sched_guard(parent + "/fetch/" +
                                       std::to_string(owner));
        cluster_.network().RoundTrip(net::TrafficClass::kCoordination,
                                     kRpcRequestBytes + 8 * keys.size(),
                                     kRpcResponseBytes + 64 * keys.size());
        site::SiteManager* site = cluster_.site(owner);
        // Charge the owner's read service time without occupying a slot
        // (slot-in-slot waiting deadlocks; the coordinator holds one).
        site->ChargeOps(keys.size(), 0);
        const VersionVector& snapshot = snapshots.At(owner, *site);
        for (const RecordKey& key : keys) {
          std::string value;
          if (site->engine().Read(key, snapshot, &value).ok()) {
            std::lock_guard<std::mutex> guard(prefetched_mu);
            prefetched.emplace(key, std::move(value));
          }
        }
      });
    }
    sched::ScopedBlocked blocked;
    for (auto& f : fetchers) f.join();
  }

  // Undeclared remote reads (data-dependent, e.g. TPC-C Stock-Level order
  // lines) fall back to one round trip per key, at the same per-site
  // snapshots the prefetch pinned (or pinned now, at first touch).
  class ReadContext final : public core::TxnContext {
   public:
    ReadContext(PartitionedSystem* system, SiteId coordinator,
                std::unordered_map<RecordKey, std::string, RecordKeyHash>*
                    prefetched,
                OwnerSnapshots* snapshots)
        : system_(system), coordinator_(coordinator),
          prefetched_(prefetched), snapshots_(snapshots) {}

    Status Get(const RecordKey& key, std::string* value) override {
      auto cached = prefetched_->find(key);
      if (cached != prefetched_->end()) {
        *value = cached->second;  // already charged at the owning site
        return Status::OK();
      }
      site::SiteManager* coord_site = system_->cluster_.site(coordinator_);
      sim::Charge(coord_site->options().read_op_cost);
      SiteId owner = system_->OwnerOfKey(key);
      // Replicated static tables (e.g. TPC-C ITEM) are present locally.
      if (owner != coordinator_ && coord_site->engine().Contains(key)) {
        owner = coordinator_;
      }
      if (owner != coordinator_) {
        system_->cluster_.network().RoundTrip(
            net::TrafficClass::kCoordination, kRpcRequestBytes,
            kRpcResponseBytes);
      }
      site::SiteManager* site = system_->cluster_.site(owner);
      return site->engine().Read(key, snapshots_->At(owner, *site), value);
    }
    Status Put(const RecordKey&, std::string) override {
      return Status::InvalidArgument("write in read-only transaction");
    }
    Status Insert(const RecordKey&, std::string) override {
      return Status::InvalidArgument("insert in read-only transaction");
    }

   private:
    PartitionedSystem* system_;
    SiteId coordinator_;
    std::unordered_map<RecordKey, std::string, RecordKeyHash>* prefetched_;
    OwnerSnapshots* snapshots_;
  };

  ReadContext context(this, coordinator, &prefetched, &snapshots);
  Status s = logic(context);
  // No commit follows a read-only partition-store transaction: settle its
  // charged reads here.
  coord_site->SettleCharges();
  if (!s.ok()) return s;
  result->executed_at = coordinator;
  return Status::OK();
}

void PartitionedSystem::Shutdown() { cluster_.Stop(); }

}  // namespace dynamast::baselines
