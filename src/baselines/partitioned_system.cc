#include "baselines/partitioned_system.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/sim_clock.h"
#include "core/site_txn_context.h"
#include "selector/site_selector.h"

namespace dynamast::baselines {

namespace {

constexpr size_t kRpcRequestBytes = 256;
constexpr size_t kRpcResponseBytes = 128;
constexpr size_t kPrepareBytes = 96;
constexpr size_t kCommitDecisionBytes = 64;

}  // namespace

/// TxnContext for a transaction coordinated across sites: partition-store
/// reads and both systems' two-phase-commit writes. It keeps one site
/// transaction (branch) per site it touches: the write participants, opened
/// with their write locks before the logic runs, and a read-only branch at
/// each other site, opened at the transaction's first read there. A branch
/// fixes its site's snapshot and records its reads for the history; a
/// read-only branch commits locally, without a message.
///
/// Operations only sim::Charge() the coordinator's service time; it is
/// settled by the next round trip or by the first commit or abort.
class CoordinatedTxnContext final : public core::TxnContext {
 public:
  CoordinatedTxnContext(PartitionedSystem* system, core::ClientState& client,
                        SiteId coordinator)
      : system_(system), client_(client), coordinator_(coordinator) {}

  /// Opens the branch at `site`. A write participant acquires the locks
  /// of `write_keys`; a read-only branch takes none.
  Status Open(SiteId site, std::vector<RecordKey> write_keys,
              bool read_only) {
    site::TxnOptions options;
    options.write_keys = std::move(write_keys);
    options.read_only = read_only;
    options.min_begin_version =
        system_->options_.cluster.replicated
            ? client_.session
            : core::MaskToIndex(client_.session, site);
    options.client = client_.id;
    options.client_txn = client_.issued_txns;
    site::Transaction txn;
    // Branches take no admission slot: the coordinator already holds one,
    // and slot-in-slot waiting deadlocks under load. Lock acquisition inside
    // Begin is bounded by the lock timeout.
    Status s = system_->cluster_.site(site)->BeginTransaction(options, &txn);
    if (s.ok()) branches_.emplace(site, std::move(txn));
    return s;
  }

  /// Fetches a read-only transaction's declared remote reads: one batched
  /// sub-read per owning site, all in flight at once, so the slowest owner
  /// gates completion (the straggler effect of Section VI-B2). An owner's
  /// service time for its keys rides in its round trip.
  Status Prefetch(const std::vector<RecordKey>& keys) {
    site::SiteManager* coord_site = system_->cluster_.site(coordinator_);
    std::map<SiteId, std::vector<RecordKey>> by_owner;
    for (const RecordKey& key : keys) {
      const SiteId owner = system_->OwnerOfKey(key);
      if (owner != coordinator_ && !coord_site->engine().Contains(key)) {
        by_owner[owner].push_back(key);
      }
    }
    if (by_owner.empty()) return Status::OK();
    std::vector<net::SimulatedNetwork::Call> calls;
    for (const auto& [owner, owned] : by_owner) {
      calls.push_back({kRpcRequestBytes + 8 * owned.size(),
                       kRpcResponseBytes + 64 * owned.size(),
                       system_->cluster_.site(owner)->options().read_op_cost *
                           owned.size()});
    }
    system_->cluster_.network().ConcurrentRoundTrips(
        net::TrafficClass::kCoordination, calls);
    for (const auto& [owner, owned] : by_owner) {
      site::Transaction* txn;
      Status s = Branch(owner, &txn);
      if (!s.ok()) return s;
      for (const RecordKey& key : owned) {
        std::string value;
        if (txn->Get(key, &value).ok()) {
          prefetched_.emplace(key, std::move(value));
        }
      }
    }
    return Status::OK();
  }

  Status Get(const RecordKey& key, std::string* value) override {
    auto cached = prefetched_.find(key);
    if (cached != prefetched_.end()) {
      *value = cached->second;  // charged at the owner, in the sub-read
      return Status::OK();
    }
    sim::Charge(system_->cluster_.site(coordinator_)->options().read_op_cost);
    // A write participant serves reads of its own rows (they see the
    // transaction's staged writes). Otherwise the coordinator serves the
    // read if it holds a copy: a multi-master replica or a static
    // replicated table (e.g. TPC-C ITEM). Any other read is a remote round
    // trip to the owner (data-dependent reads, e.g. TPC-C Stock-Level's
    // order lines, were not declared and prefetched).
    SiteId site = system_->OwnerOfKey(key);
    if (!IsWriteParticipant(site)) {
      if (system_->options_.cluster.replicated ||
          system_->cluster_.site(coordinator_)->engine().Contains(key)) {
        site = coordinator_;
      } else {
        system_->cluster_.network().RoundTrip(net::TrafficClass::kCoordination,
                                              kRpcRequestBytes,
                                              kRpcResponseBytes);
      }
    }
    site::Transaction* txn;
    Status s = Branch(site, &txn);
    if (!s.ok()) return s;
    return txn->Get(key, value);
  }

  // Writes go to the owner's branch; a read-only branch refuses them.
  Status Put(const RecordKey& key, std::string value) override {
    sim::Charge(system_->cluster_.site(coordinator_)->options().write_op_cost);
    auto it = branches_.find(system_->OwnerOfKey(key));
    if (it == branches_.end()) {
      return Status::InvalidArgument("write to non-participant site");
    }
    return it->second.Put(key, std::move(value));
  }

  Status Insert(const RecordKey& key, std::string value) override {
    sim::Charge(system_->cluster_.site(coordinator_)->options().write_op_cost);
    auto it = branches_.find(system_->OwnerOfKey(key));
    if (it == branches_.end()) {
      return Status::InvalidArgument("insert to non-participant site");
    }
    return it->second.Insert(key, std::move(value));
  }

  /// Commits every branch in site order, merging each commit vector into
  /// the client's session. A remote write participant is told the decision
  /// by message; a read-only branch commits locally.
  Status Commit() {
    for (auto& [site_id, txn] : branches_) {
      if (site_id != coordinator_ && !txn.read_only()) {
        system_->cluster_.network().RoundTrip(net::TrafficClass::kCoordination,
                                              kCommitDecisionBytes,
                                              kCommitDecisionBytes);
      }
      VersionVector commit_version;
      Status s = system_->cluster_.site(site_id)->Commit(&txn, &commit_version);
      if (!s.ok()) return s;  // after the decision, commit must apply
      client_.session.MaxWith(commit_version);
    }
    return Status::OK();
  }

  void Abort(const Status& reason) {
    for (auto& [site_id, txn] : branches_) {
      system_->cluster_.site(site_id)->Abort(&txn, reason);
    }
  }

 private:
  bool IsWriteParticipant(SiteId site) const {
    auto it = branches_.find(site);
    return it != branches_.end() && !it->second.read_only();
  }

  // The branch at `site`, opened read-only if the transaction has none.
  Status Branch(SiteId site, site::Transaction** txn) {
    if (!branches_.contains(site)) {
      Status s = Open(site, {}, /*read_only=*/true);
      if (!s.ok()) return s;
    }
    *txn = &branches_.at(site);
    return Status::OK();
  }

  PartitionedSystem* system_;
  core::ClientState& client_;
  SiteId coordinator_;
  std::map<SiteId, site::Transaction> branches_;
  std::unordered_map<RecordKey, std::string, RecordKeyHash> prefetched_;
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
    return cluster_.LoadRowEverywhere(key, value);
  }
  // Partition-store: the owning site holds the only copy.
  return cluster_.site(OwnerOfKey(key))->LoadRecord(key, value);
}

Status PartitionedSystem::LoadReplicatedRow(const RecordKey& key,
                                            std::string value) {
  // Static read-only tables are replicated even without general
  // replication (Section VI-A1).
  return cluster_.LoadRowEverywhere(key, value);
}

void PartitionedSystem::Seal() {
  if (sealed_) return;
  sealed_ = true;
  cluster_.SetStaticMasters(options_.placement);
  cluster_.Start();
}

PartitionedSystem::Placement PartitionedSystem::Place(
    const std::vector<RecordKey>& keys,
    const std::vector<PartitionId>& partitions) {
  std::unordered_map<SiteId, size_t> owner_counts;
  for (const RecordKey& key : keys) owner_counts[OwnerOfKey(key)]++;
  for (PartitionId p : partitions) owner_counts[OwnerOf(p)]++;
  Placement placement;
  size_t best = 0;
  for (const auto& [site, count] : owner_counts) {
    placement.owners.push_back(site);
    if (count > best) {
      best = count;
      placement.coordinator = site;
    }
  }
  std::sort(placement.owners.begin(), placement.owners.end());
  if (options_.random_coordinator) {
    // Placement-oblivious front: the client lands on an arbitrary site.
    MutexLock guard(rng_mu_);
    placement.coordinator =
        static_cast<SiteId>(rng_.Uniform(cluster_.num_sites()));
  }
  return placement;
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
  if (profile.read_only && options_.cluster.replicated) {
    // Multi-master: any session-fresh replica serves the whole
    // transaction.
    SiteId site_id;
    {
      MutexLock guard(rng_mu_);
      site_id = selector::PickReadSite(cluster_.site_pointers(),
                                       client.session, rng_);
    }
    return ExecuteAtSite(site_id, client, profile, logic, result);
  }

  // Partition-store reads run at the site owning most of the read set;
  // writes at the site owning most of the write set.
  const Placement placement =
      profile.read_only
          ? Place(profile.read_keys, profile.read_partitions)
          : Place(profile.write_keys, profile.extra_write_partitions);
  if (placement.owners.empty() && !profile.read_only) {
    return Status::InvalidArgument("write transaction with no write set");
  }
  const SiteId coordinator = placement.coordinator;
  const bool one_site =
      profile.read_only
          ? placement.owners.size() <= 1
          : placement.owners == std::vector<SiteId>{coordinator};
  (one_site ? single_site_ : distributed_)->Increment();
  // The pure-local fast path requires replicas: without them, reads of
  // rows the executing site does not own need the coordinated context's
  // remote reads even when the write set is single-sited.
  if (one_site && options_.cluster.replicated) {
    return ExecuteAtSite(coordinator, client, profile, logic, result);
  }
  result->distributed = placement.owners.size() > 1;
  return ExecuteCoordinated(
      client, profile, logic, coordinator,
      profile.read_only ? std::vector<SiteId>{} : placement.owners, result);
}

Status PartitionedSystem::ExecuteCoordinated(
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

  // Open one branch per write participant, acquiring its write locks.
  // Locks stay held through prepare and commit — the blocking that makes
  // distributed transactions expensive (Section II-A).
  CoordinatedTxnContext context(this, client, coordinator);
  auto abort = [&context](const Status& s) {
    context.Abort(s);
    return s;
  };
  for (SiteId p : participants) {
    if (p != coordinator) {
      net.RoundTrip(net::TrafficClass::kCoordination, kRpcRequestBytes,
                    kRpcResponseBytes);
    }
    Status s =
        context.Open(p, std::move(writes_by_site[p]), /*read_only=*/false);
    if (!s.ok()) return abort(s);
  }
  if (profile.read_only) {
    Status s = context.Prefetch(profile.read_keys);
    if (!s.ok()) return abort(s);
  }

  Status s = logic(context);
  if (!s.ok()) return abort(s);

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
        return abort(Status::Aborted("participant voted no in prepare"));
      }
    }
  }

  // Phase 2: commit at every branch.
  s = context.Commit();
  if (!s.ok()) return s;
  result->executed_at = coordinator;
  return Status::OK();
}

Status PartitionedSystem::ExecuteAtSite(SiteId site_id,
                                        core::ClientState& client,
                                        const core::TxnProfile& profile,
                                        const core::TxnLogic& logic,
                                        core::TxnResult* result) {
  cluster_.network().RoundTrip(
      net::TrafficClass::kClientRequest,
      kRpcRequestBytes + 32 * profile.write_keys.size(), kRpcResponseBytes);
  site::SiteManager* site = cluster_.site(site_id);
  site::AdmissionGate::Scoped slot(site->gate());
  core::SiteTxn txn(site, client,
                    profile.read_only ? core::TxnPhaseTimers{}
                                      : cluster_.write_phases());
  Status s = txn.Begin(profile, client.session);
  if (!s.ok()) return s;
  return txn.Run(logic, result);
}

void PartitionedSystem::Shutdown() { cluster_.Stop(); }

}  // namespace dynamast::baselines
