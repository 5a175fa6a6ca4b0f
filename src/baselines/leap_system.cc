#include "baselines/leap_system.h"

#include <algorithm>
#include <unordered_map>

#include "core/site_txn_context.h"

namespace dynamast::baselines {

namespace {
constexpr size_t kRpcRequestBytes = 256;
constexpr size_t kRpcResponseBytes = 128;
constexpr size_t kShipRequestBytes = 64;
// A begin the execution site refuses with NotMaster is retried this many
// times.
constexpr uint32_t kMaxRetries = 16;

// LEAP keeps no replicas, so its cluster must never run refresh appliers.
// The flag has to be cleared *before* Cluster is constructed: an applier
// re-applying an old remote update after a partition ships in would
// shadow the freshly copied rows (versions append newest-at-back).
core::Cluster::Options UnreplicatedCluster(core::Cluster::Options o) {
  o.replicated = false;
  return o;
}
}  // namespace

LeapSystem::LeapSystem(const Options& options, const Partitioner* partitioner)
    : options_(options),
      partitioner_(partitioner),
      cluster_(UnreplicatedCluster(options.cluster), partitioner),
      ownership_(partitioner->NumPartitions()),
      partition_rows_(partitioner->NumPartitions()),
      shipped_partitions_(
          cluster_.metrics()->GetCounter("leap_shipped_partitions_total")),
      shipped_bytes_(
          cluster_.metrics()->GetCounter("leap_shipped_bytes_total")) {
  if (options_.placement.size() < partitioner->NumPartitions()) {
    options_.placement.resize(partitioner->NumPartitions(), 0);
  }
  for (PartitionId p = 0; p < partitioner->NumPartitions(); ++p) {
    ownership_.SetMaster(p, options_.placement[p]);
  }
}

LeapSystem::~LeapSystem() { Shutdown(); }

/// SiteTxnContext that lists each key it inserts in the partition row
/// index before the insert stages. A concurrent shipment of the partition
/// then either drains this transaction through Release before it reads the
/// index, or the insert fails with NotMaster because the partition left.
class LeapSystem::IndexingTxnContext final : public core::TxnContext {
 public:
  IndexingTxnContext(LeapSystem* system, site::SiteManager* site,
                     site::Transaction* txn)
      : system_(system), inner_(site, txn) {}

  Status Get(const RecordKey& key, std::string* value) override {
    return inner_.Get(key, value);
  }

  Status Put(const RecordKey& key, std::string value) override {
    return inner_.Put(key, std::move(value));
  }

  Status Insert(const RecordKey& key, std::string value) override {
    system_->IndexRow(key);
    return inner_.Insert(key, std::move(value));
  }

 private:
  LeapSystem* system_;
  core::SiteTxnContext inner_;
};

void LeapSystem::IndexRow(const RecordKey& key) {
  const PartitionId p = partitioner_->PartitionOf(key);
  MutexLock guard(partition_rows_mu_);
  partition_rows_[p].insert(key);
}

Status LeapSystem::LoadRow(const RecordKey& key, std::string value) {
  const PartitionId p = partitioner_->PartitionOf(key);
  IndexRow(key);
  return cluster_.site(options_.placement[p])->LoadRecord(key, std::move(value));
}

Status LeapSystem::LoadReplicatedRow(const RecordKey& key, std::string value) {
  // Static read-only tables live at every site and are never localized.
  const PartitionId p = partitioner_->PartitionOf(key);
  {
    MutexLock guard(static_partitions_mu_);
    static_partitions_.insert(p);
  }
  return cluster_.LoadRowEverywhere(key, value);
}

void LeapSystem::Seal() {
  if (sealed_) return;
  sealed_ = true;
  cluster_.SetStaticMasters(options_.placement);
  // Unreplicated: Cluster::Start is a no-op, but call it for symmetry.
  cluster_.Start();
}

Status LeapSystem::ShipPartition(PartitionId partition, SiteId src,
                                 SiteId dest) {
  site::SiteManager* src_site = cluster_.site(src);
  site::SiteManager* dest_site = cluster_.site(dest);

  // Quiesce the source: stop admitting writers and drain in-flight ones
  // (reuses the release path; the marker it logs is harmless without
  // appliers and keeps the redo log authoritative for ownership).
  VersionVector release_version;
  Status s = src_site->Release({partition}, dest, &release_version);
  if (!s.ok()) return s;

  // Copy the rows the index lists for the partition. The Release above
  // drained every transaction whose insert into the partition succeeded,
  // and each listed its key before inserting. Rows stay at the source, as
  // a read-only transaction that began there may still read them. This is
  // the data movement DynaMast's metadata-only remastering avoids.
  std::vector<RecordKey> keys;
  {
    MutexLock guard(partition_rows_mu_);
    const auto& rows = partition_rows_[partition];
    keys.assign(rows.begin(), rows.end());
  }
  size_t bytes = 0;
  for (const RecordKey& key : keys) {
    std::string value;
    Status rs = src_site->engine().ReadLatest(key, &value);
    if (rs.IsNotFound()) continue;
    if (!rs.ok()) return rs;
    bytes += value.size() + 16;
    // Install as an always-visible base version at the destination (LEAP
    // has no cross-site snapshots; single-copy consistency comes from
    // exclusive ownership plus write locks).
    Status install = dest_site->LoadRecord(key, std::move(value));
    if (!install.ok()) return install;
  }
  cluster_.network().Send(net::TrafficClass::kDataShipping,
                          kShipRequestBytes);
  cluster_.network().Send(net::TrafficClass::kDataShipping, bytes);

  dest_site->SetMasterOf(partition, true);
  shipped_partitions_->Increment();
  shipped_bytes_->Increment(bytes);
  return Status::OK();
}

// tsa-escape(selector.partition): dynamic lock set — holds the accessed
// partitions' ownership locks, acquired in sorted order inside loops, from
// localization until BeginTransaction registers the transaction, which TSA
// cannot model; the runtime lock-rank checker (partition rank == id)
// enforces the ordering instead.
DYNAMAST_NO_THREAD_SAFETY_ANALYSIS
Status LeapSystem::Execute(core::ClientState& client,
                           const core::TxnProfile& profile,
                           const core::TxnLogic& logic,
                           core::TxnResult* result) {
  // `result` is an optional out-param; the code below assumes non-null.
  core::TxnResult scratch;
  if (result == nullptr) result = &scratch;
  client.issued_txns++;
  net::SimulatedNetwork& net = cluster_.network();
  // Same client->router hop as every system in the framework (see
  // PartitionedSystem::Execute).
  net.RoundTrip(net::TrafficClass::kClientRequest, 128, 64);

  // LEAP localizes the union of the read and write sets.
  std::vector<PartitionId> partitions;
  for (const RecordKey& key : profile.write_keys) {
    partitions.push_back(partitioner_->PartitionOf(key));
  }
  for (PartitionId p : profile.extra_write_partitions) partitions.push_back(p);
  for (const RecordKey& key : profile.read_keys) {
    partitions.push_back(partitioner_->PartitionOf(key));
  }
  for (PartitionId p : profile.read_partitions) partitions.push_back(p);
  std::sort(partitions.begin(), partitions.end());
  partitions.erase(std::unique(partitions.begin(), partitions.end()),
                   partitions.end());
  {
    // Static replicated partitions need no localization.
    MutexLock guard(static_partitions_mu_);
    std::erase_if(partitions, [&](PartitionId p) {
      return static_partitions_.count(p) > 0;
    });
  }
  if (partitions.empty()) {
    return Status::InvalidArgument("transaction accesses nothing");
  }

  // Ownership locks in sorted order: shared while the partitions only have
  // to stay where they are, exclusive while some of them ship.
  bool exclusive = false;
  auto lock_all = [&] {
    for (PartitionId p : partitions) {
      if (exclusive) {
        ownership_.LockExclusive(p);
      } else {
        ownership_.LockShared(p);
      }
    }
  };
  auto unlock_all = [&] {
    for (auto it = partitions.rbegin(); it != partitions.rend(); ++it) {
      if (exclusive) {
        ownership_.UnlockExclusive(*it);
      } else {
        ownership_.UnlockShared(*it);
      }
    }
  };
  // No routing strategy: execute where most accessed partitions already
  // live; the rest ship there.
  std::vector<SiteId> owners(partitions.size());
  auto locate = [&] {
    std::unordered_map<SiteId, size_t> counts;
    for (size_t i = 0; i < partitions.size(); ++i) {
      owners[i] = ownership_.MasterOf(partitions[i]);
      counts[owners[i]]++;
    }
    SiteId dest = owners[0];
    size_t best = 0;
    for (const auto& [site, count] : counts) {
      if (count > best) {
        best = count;
        dest = site;
      }
    }
    return dest;
  };

  Status last_error = Status::Internal("no attempt");
  for (uint32_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    // The locks stay held until BeginTransaction has registered the
    // transaction at `dest`: released any earlier, a concurrent
    // transaction could ship a partition away during the exec RPC or the
    // admission wait, and the begin would fail with NotMaster.
    exclusive = false;
    lock_all();
    SiteId dest = locate();
    if (std::count(owners.begin(), owners.end(), dest) <
        static_cast<std::ptrdiff_t>(owners.size())) {
      unlock_all();
      exclusive = true;
      lock_all();
      dest = locate();  // ownership may have moved while unlocked
    }
    bool shipped = false;
    Status ship_status;
    for (size_t i = 0; i < partitions.size(); ++i) {
      if (owners[i] == dest) continue;
      net.RoundTrip(net::TrafficClass::kDataShipping, kShipRequestBytes,
                    kShipRequestBytes);
      ship_status = ShipPartition(partitions[i], owners[i], dest);
      if (!ship_status.ok()) break;
      ownership_.SetMaster(partitions[i], dest);
      shipped = true;
    }
    if (!ship_status.ok()) {
      unlock_all();
      last_error = ship_status;
      continue;
    }
    result->remastered = result->remastered || shipped;

    // Execute locally at the destination.
    net.RoundTrip(net::TrafficClass::kClientRequest,
                  kRpcRequestBytes + 32 * profile.write_keys.size(),
                  kRpcResponseBytes);
    site::SiteManager* site = cluster_.site(dest);
    site::AdmissionGate::Scoped slot(site->gate());
    core::SiteTxn txn(site, client,
                      profile.read_only ? core::TxnPhaseTimers{}
                                        : cluster_.write_phases());
    Status s = txn.Begin(profile, core::MaskToIndex(client.session, dest));
    // Registered (a shipper's release now drains it) or refused: either
    // way the partitions may move again.
    unlock_all();
    if (s.IsNotMaster()) {
      last_error = s;
      result->retries++;
      continue;
    }
    if (!s.ok()) return s;
    IndexingTxnContext context(this, site, txn.txn());
    return txn.Run(logic, context, result);
  }
  return last_error;
}

void LeapSystem::Shutdown() { cluster_.Stop(); }

}  // namespace dynamast::baselines
