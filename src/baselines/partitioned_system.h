#ifndef DYNAMAST_BASELINES_PARTITIONED_SYSTEM_H_
#define DYNAMAST_BASELINES_PARTITIONED_SYSTEM_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/debug_mutex.h"
#include "common/random.h"
#include "core/cluster.h"
#include "core/system_interface.h"

namespace dynamast::baselines {

/// The two statically partitioned baselines of Section VI-A1, sharing one
/// implementation:
///
///  * **multi-master** (`cluster.replicated = true`): every data item has one
///    static master copy; updates run on masters, with two-phase commit
///    for multi-site write sets; lazily maintained replicas let read-only
///    transactions run at any (session-fresh) site.
///  * **partition-store** (`cluster.replicated = false`): same static
///    masters and 2PC, but no replicas at all — reads of remote partitions
///    are remote round trips, and multi-partition read-only transactions
///    fan out across sites (the straggler effect of Section VI-B2). Its
///    read-only transactions run through the same coordinated executor as
///    2PC writes, with no write participants.
///
/// Both use the same site manager, storage engine, MVCC and isolation
/// level as DynaMast (the paper's apples-to-apples setup).
class PartitionedSystem final : public core::SystemInterface {
 public:
  struct Options {
    core::Cluster::Options cluster;
    /// partition -> owning site (e.g. baselines::RangePlacement).
    std::vector<SiteId> placement;
    /// If true, each transaction's coordinating site is chosen at random
    /// (a placement-oblivious client front): every operation on data the
    /// coordinator does not own pays remote round trips — the
    /// "additional round-trips during transaction processing" the paper
    /// attributes to partition-store (Section VI-B1). Multi-master routes
    /// writes to the majority master (its router must know masters).
    bool random_coordinator = false;
    /// Probability that a prepare vote is "no" (failure injection for
    /// atomicity tests). Zero in benchmarks.
    double injected_abort_probability = 0.0;
    uint64_t seed = 7;
  };

  static Options MultiMaster(core::Cluster::Options cluster,
                             std::vector<SiteId> placement) {
    Options o;
    o.cluster = std::move(cluster);
    o.cluster.replicated = true;
    o.placement = std::move(placement);
    return o;
  }

  static Options PartitionStore(core::Cluster::Options cluster,
                                std::vector<SiteId> placement) {
    Options o;
    o.cluster = std::move(cluster);
    o.cluster.replicated = false;
    o.placement = std::move(placement);
    o.random_coordinator = true;
    return o;
  }

  PartitionedSystem(const Options& options, const Partitioner* partitioner);
  ~PartitionedSystem() override;

  /// "multi-master" when replicated, "partition-store" otherwise.
  std::string name() const override {
    return options_.cluster.replicated ? "multi-master" : "partition-store";
  }
  Status CreateTable(TableId id) override { return cluster_.CreateTable(id); }
  Status LoadRow(const RecordKey& key, std::string value) override;
  Status LoadReplicatedRow(const RecordKey& key, std::string value) override;
  void Seal() override;
  Status Execute(core::ClientState& client, const core::TxnProfile& profile,
                 const core::TxnLogic& logic,
                 core::TxnResult* result) override;
  void Shutdown() override;
  history::Recorder* history() override { return cluster_.history(); }
  trace::Tracer* tracer() override { return cluster_.tracer(); }

  core::Cluster& cluster() { return cluster_; }

 private:
  friend class CoordinatedTxnContext;

  SiteId OwnerOf(PartitionId p) const { return options_.placement[p]; }
  SiteId OwnerOfKey(const RecordKey& key) const {
    return OwnerOf(partitioner_->PartitionOf(key));
  }

  // The sites owning `keys` and `partitions` (ascending) and the site
  // that coordinates a transaction over them: the owner of the most, or a
  // random site behind a placement-oblivious front.
  struct Placement {
    std::vector<SiteId> owners;
    SiteId coordinator = 0;
  };
  Placement Place(const std::vector<RecordKey>& keys,
                  const std::vector<PartitionId>& partitions);

  // The one coordinated executor: opens a branch at each write
  // participant (none for a read-only transaction), runs the logic in a
  // CoordinatedTxnContext, then two-phase commits.
  Status ExecuteCoordinated(core::ClientState& client,
                            const core::TxnProfile& profile,
                            const core::TxnLogic& logic, SiteId coordinator,
                            const std::vector<SiteId>& participants,
                            core::TxnResult* result);
  // Multi-master runs a one-site write at its master, and a read at one
  // session-fresh replica, as one site transaction.
  Status ExecuteAtSite(SiteId site_id, core::ClientState& client,
                       const core::TxnProfile& profile,
                       const core::TxnLogic& logic, core::TxnResult* result);

  Options options_;
  const Partitioner* partitioner_;
  core::Cluster cluster_;
  // partitioned_txns_total{kind=single_site|distributed}: transactions
  // that ran at one site vs. across sites.
  metrics::Counter* single_site_;
  metrics::Counter* distributed_;
  DebugMutex rng_mu_{"partitioned.rng"};
  Random rng_ DYNAMAST_GUARDED_BY(rng_mu_);
  bool sealed_ = false;
};

}  // namespace dynamast::baselines

#endif  // DYNAMAST_BASELINES_PARTITIONED_SYSTEM_H_
