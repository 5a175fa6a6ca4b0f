#ifndef DYNAMAST_WORKLOADS_YCSB_H_
#define DYNAMAST_WORKLOADS_YCSB_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/debug_mutex.h"
#include "common/random.h"
#include "workloads/workload.h"

namespace dynamast::workloads {

/// The paper's extended YCSB workload (Section VI-A2 and Appendix C):
///
///  * the key space is divided into partitions of 100 contiguous keys;
///  * partitions are co-accessed in *correlated ranges*: a transaction's
///    base partition is drawn from the access distribution (uniform or
///    Zipfian rho=0.75) and companion partitions come from a Bernoulli
///    neighbourhood around it (5 trials, p=0.5, centred on the base);
///  * read-modify-write transactions update 3 keys across those
///    neighbouring partitions;
///  * scan transactions read all keys of the next k partitions,
///    k ~ U[2,10] (200–1000 keys);
///  * clients have affinity: they run up to `affinity_txns` transactions
///    against one correlated region before being replaced by a client
///    with a fresh region;
///  * for the adaptivity experiment, `shuffle_correlations` re-maps which
///    partitions count as "neighbours" by shuffling the partition order,
///    so learned range correlations become useless and DynaMast must
///    re-learn.
///
/// Values are `value_size`-byte strings whose first 8 bytes hold an update
/// counter, so tests can verify read-modify-write atomicity.
class YcsbWorkload final : public Workload {
 public:
  struct Options {
    uint64_t num_keys = 100'000;
    uint64_t keys_per_partition = 100;
    size_t value_size = 120;
    /// Percentage of read-modify-write transactions; the rest are scans.
    uint32_t rmw_pct = 50;
    bool zipfian = false;
    double zipf_theta = 0.75;
    /// If true, Zipfian ranks are scrambled across the key space (YCSB's
    /// scrambled distribution). If false (default), the hot partitions
    /// form a contiguous range — the layout that pins hot masters to one
    /// site under static range placement (the skew experiment E7).
    bool scramble_zipf = false;
    /// Transactions per client before its affinity region is resampled.
    uint64_t affinity_txns = 1000;
    /// Adaptivity mode: shuffle the partition-order used for correlations.
    bool shuffle_correlations = false;
    uint64_t seed = 1234;
    /// A scan reads 2..max_scan_partitions consecutive partitions.
    uint32_t max_scan_partitions = 10;
  };

  static constexpr TableId kTable = 0;

  explicit YcsbWorkload(const Options& options);

  std::string name() const override { return "ycsb"; }
  const Partitioner& partitioner() const override { return partitioner_; }
  Status Load(core::SystemInterface& system) override;
  std::unique_ptr<WorkloadClient> MakeClient(uint64_t index) override;

  uint64_t num_partitions() const { return num_partitions_; }
  const Options& options() const { return options_; }

  /// Re-shuffles the correlation order mid-run (adaptivity experiment
  /// trigger). Thread-safe; existing clients pick it up on their next
  /// affinity renewal.
  void ShuffleCorrelations(uint64_t seed) DYNAMAST_EXCLUDES(order_mu_);

  /// Position of partition p in the correlation order and its inverse.
  PartitionId OrderedAt(uint64_t position) const
      DYNAMAST_EXCLUDES(order_mu_);
  uint64_t PositionOf(PartitionId p) const DYNAMAST_EXCLUDES(order_mu_);

  /// Encodes/decodes the 8-byte counter prefix of a YCSB value.
  static std::string MakeValue(uint64_t counter, size_t value_size);
  static uint64_t ValueCounter(const std::string& value);

 private:
  friend class YcsbClient;

  Options options_;
  uint64_t num_partitions_;
  RangePartitioner partitioner_;

  mutable RawMutex order_mu_;
  // position -> partition
  std::vector<PartitionId> order_ DYNAMAST_GUARDED_BY(order_mu_);
  // partition -> position
  std::vector<uint64_t> position_ DYNAMAST_GUARDED_BY(order_mu_);
  uint64_t order_epoch_ DYNAMAST_GUARDED_BY(order_mu_) = 0;
};

}  // namespace dynamast::workloads

#endif  // DYNAMAST_WORKLOADS_YCSB_H_
