#ifndef DYNAMAST_SELECTOR_ACCESS_STATISTICS_H_
#define DYNAMAST_SELECTOR_ACCESS_STATISTICS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"

namespace dynamast::selector {

/// AccessStatistics is the site selector's workload model (Section V-B):
/// partition write frequencies for the load-balance feature, and intra-/
/// inter-transaction co-access counts for the localization features. It is
/// fed by adaptively sampled transaction write sets; samples sit in a
/// bounded transaction history queue and are expired (their contribution
/// decremented) when the queue overflows or they age out, so the model
/// adapts to changing workloads.
///
/// The class also mirrors the current mastership allocation so the balance
/// feature can be evaluated in O(sites): per-site write-frequency totals
/// are maintained incrementally as accesses are recorded and partitions
/// are remastered.
class AccessStatistics {
 public:
  struct Options {
    /// Δt of Eq. 7: accesses by the same client within this window of a
    /// sampled transaction count as inter-transaction co-accesses.
    std::chrono::milliseconds inter_txn_window{100};
    /// Bounded history queue; oldest samples expire on overflow.
    size_t history_capacity = 8192;
    /// Samples also expire after this age (workload drift adaptation).
    std::chrono::milliseconds sample_ttl{15000};
  };

  using TimePoint = std::chrono::steady_clock::time_point;

  AccessStatistics(const Options& options, uint32_t num_sites,
                   const std::vector<SiteId>& initial_masters);

  AccessStatistics(const AccessStatistics&) = delete;
  AccessStatistics& operator=(const AccessStatistics&) = delete;

  /// Records one sampled write set: bumps partition write frequencies,
  /// intra-transaction pair counts, and inter-transaction pair counts
  /// against the client's recent transactions within Δt. Expires old
  /// samples opportunistically.
  void RecordWriteSet(ClientId client, const std::vector<PartitionId>& parts,
                      TimePoint now) DYNAMAST_EXCLUDES(mu_);

  /// The selector calls this when it remasters `p`, keeping per-site
  /// write totals consistent with the new allocation.
  void OnRemaster(PartitionId p, SiteId to) DYNAMAST_EXCLUDES(mu_);

  /// Fraction of recorded write accesses that partition-masters at `site`
  /// under the current allocation — freq(X_i) of Eq. 2.
  double SiteWriteFraction(SiteId site) const DYNAMAST_EXCLUDES(mu_);

  /// Current write-frequency count of one partition, and the grand total.
  uint64_t PartitionWriteCount(PartitionId p) const DYNAMAST_EXCLUDES(mu_);
  uint64_t TotalWriteCount() const DYNAMAST_EXCLUDES(mu_);

  /// Co-access distributions of `p`: (other partition, P(other | p)).
  /// Intra = within one transaction (Eq. 6); inter = across transactions
  /// within Δt (Eq. 7).
  std::vector<std::pair<PartitionId, double>> IntraCoAccess(PartitionId p)
      const DYNAMAST_EXCLUDES(mu_);
  std::vector<std::pair<PartitionId, double>> InterCoAccess(PartitionId p)
      const DYNAMAST_EXCLUDES(mu_);

  /// Mastership mirror (selector state, not ground truth at the sites).
  SiteId MasterMirror(PartitionId p) const DYNAMAST_EXCLUDES(mu_);

  size_t HistorySize() const DYNAMAST_EXCLUDES(mu_);

 private:
  struct Sample {
    ClientId client;
    TimePoint time;
    std::vector<PartitionId> parts;
    // Inter-transaction pairs this sample contributed (for exact
    // decrement at expiry): (earlier partition, this partition).
    std::vector<std::pair<PartitionId, PartitionId>> inter_pairs;
  };

  void ExpireLocked(TimePoint now) DYNAMAST_REQUIRES(mu_);
  void RemoveSampleLocked(const Sample& sample) DYNAMAST_REQUIRES(mu_);
  // Operates on intra_/inter_ passed by reference; callers hold mu_.
  void BumpPair(std::unordered_map<PartitionId,
                                   std::unordered_map<PartitionId, int64_t>>& m,
                PartitionId a, PartitionId b, int64_t delta)
      DYNAMAST_REQUIRES(mu_);

  Options options_;

  mutable DebugMutex mu_{"selector.access_stats"};
  // mirror of the allocation
  std::vector<SiteId> master_of_ DYNAMAST_GUARDED_BY(mu_);
  // per-partition write frequency
  std::vector<int64_t> partition_writes_ DYNAMAST_GUARDED_BY(mu_);
  // per-site totals (allocation B)
  std::vector<int64_t> site_writes_ DYNAMAST_GUARDED_BY(mu_);
  int64_t total_writes_ DYNAMAST_GUARDED_BY(mu_) = 0;
  // pair counts: outer key d1, inner key d2 -> count.
  std::unordered_map<PartitionId, std::unordered_map<PartitionId, int64_t>>
      intra_ DYNAMAST_GUARDED_BY(mu_);
  std::unordered_map<PartitionId, std::unordered_map<PartitionId, int64_t>>
      inter_ DYNAMAST_GUARDED_BY(mu_);
  std::deque<Sample> history_ DYNAMAST_GUARDED_BY(mu_);
  std::unordered_map<ClientId, std::deque<std::pair<TimePoint,
                                                    std::vector<PartitionId>>>>
      client_recent_ DYNAMAST_GUARDED_BY(mu_);
};

}  // namespace dynamast::selector

#endif  // DYNAMAST_SELECTOR_ACCESS_STATISTICS_H_
