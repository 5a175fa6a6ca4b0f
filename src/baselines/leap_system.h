#ifndef DYNAMAST_BASELINES_LEAP_SYSTEM_H_
#define DYNAMAST_BASELINES_LEAP_SYSTEM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/debug_mutex.h"
#include "core/cluster.h"
#include "core/system_interface.h"
#include "selector/partition_map.h"

namespace dynamast::baselines {

/// LEAP baseline (Section VI-A1): a partitioned multi-master system
/// without replication that, like DynaMast, guarantees single-site
/// transaction execution — but achieves it by *data shipping*: before a
/// transaction runs, every partition in its read AND write sets is
/// physically copied to the execution site and ownership transferred.
///
/// The contrasts with DynaMast that the evaluation measures:
///  * localization moves data (bytes proportional to partition size), not
///    metadata;
///  * read-only transactions must be localized too (no replicas);
///  * there are no routing strategies — the destination is simply the site
///    owning the most accessed partitions — so hot partitions ping-pong.
class LeapSystem final : public core::SystemInterface {
 public:
  struct Options {
    core::Cluster::Options cluster;
    /// Initial partition -> owner placement (e.g. RangePlacement).
    std::vector<SiteId> placement;
    uint32_t max_retries = 16;
    std::string display_name = "leap";
  };

  LeapSystem(const Options& options, const Partitioner* partitioner);
  ~LeapSystem() override;

  std::string name() const override { return options_.display_name; }
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

  uint64_t partitions_shipped() const { return partitions_shipped_.load(std::memory_order_relaxed); }
  uint64_t bytes_shipped() const { return bytes_shipped_.load(std::memory_order_relaxed); }
  SiteId OwnerOf(PartitionId p) const { return ownership_.MasterOfLocked(p); }

 private:
  /// Moves `partition` from `src` to `dest`: drains writers at the source,
  /// copies every row of the partition, and transfers ownership. Caller
  /// holds the partition's exclusive ownership lock.
  Status ShipPartition(PartitionId partition, SiteId src, SiteId dest);

  Options options_;
  const Partitioner* partitioner_;
  core::Cluster cluster_;
  /// Dynamic ownership map (same structure as the selector's partition
  /// map: owner + readers-writer lock per partition).
  selector::PartitionMap ownership_;
  /// Partitions of static replicated tables (never localized).
  DebugMutex static_partitions_mu_{"leap.static_partitions"};
  std::unordered_set<PartitionId> static_partitions_
      DYNAMAST_GUARDED_BY(static_partitions_mu_);
  std::atomic<uint64_t> partitions_shipped_{0};
  std::atomic<uint64_t> bytes_shipped_{0};
  bool sealed_ = false;
};

}  // namespace dynamast::baselines

#endif  // DYNAMAST_BASELINES_LEAP_SYSTEM_H_
