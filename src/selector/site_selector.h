#ifndef DYNAMAST_SELECTOR_SITE_SELECTOR_H_
#define DYNAMAST_SELECTOR_SITE_SELECTOR_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "common/random.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/version_vector.h"
#include "net/sim_network.h"
#include "selector/access_statistics.h"
#include "selector/convergence_tracker.h"
#include "selector/partition_map.h"
#include "selector/strategy.h"
#include "site/site_manager.h"

namespace dynamast::selector {

/// Routing outcome for a write transaction (Algorithm 1's return value):
/// the execution site and the minimum version vector the transaction must
/// begin on (element-wise max of the grant vectors, folded with the
/// client's session vector by the caller).
struct RouteResult {
  SiteId site = kInvalidSite;
  VersionVector min_begin_version;
  bool remastered = false;
  uint32_t partitions_moved = 0;
};

struct SelectorOptions {
  uint32_t num_sites = 1;
  /// Initial mastership: every partition starts at this site (DynaMast has
  /// no fixed initial placement and must learn; Section VI-A1).
  SiteId initial_master = 0;
  StrategyWeights weights;
  /// Fraction of write sets sampled into the workload model.
  double sample_rate = 0.25;
  /// Adaptive sampling (Section V-B: "adaptively sampling transaction
  /// write sets"): when the sampled-write-set rate exceeds
  /// `max_samples_per_second`, the effective sample rate is scaled down
  /// so statistics maintenance cannot become a bottleneck at high
  /// throughput; it scales back up when load drops.
  bool adaptive_sampling = true;
  uint32_t max_samples_per_second = 2000;
  AccessStatistics::Options stats;
  uint64_t seed = 42;
  /// Stability window for the time-to-relocalize tracker: a mastership
  /// transition must stand unchallenged this long before the episode that
  /// produced it counts as converged.
  uint64_t relocalize_stability_window_us = 500'000;
  /// Metrics registry to export into; null disables selector metric export
  /// (series handles stay unresolved).
  metrics::Registry* metrics = nullptr;
  /// Tracer for routing spans; null disables span recording.
  trace::Tracer* tracer = nullptr;
};

/// One slow-path routing decision with its full Eq. 2-8 reasoning: every
/// candidate site's factor scores and the chosen destination. Kept in a
/// bounded ring (RecentExplains) so tests and operators can ask "why did
/// the selector move these partitions there?".
struct RoutingExplain {
  uint64_t seq = 0;    // monotonic decision number (1-based)
  uint64_t ts_us = 0;  // metrics::NowMicros() at decision time
  std::vector<PartitionId> partitions;
  std::vector<SiteId> masters;  // pre-decision masters, parallel to partitions
  std::vector<SiteScore> scores;  // one per candidate site, in site order
  SiteId winner = kInvalidSite;
};

/// Aggregate selector counters for the evaluation (remastering frequency,
/// routing skew).
struct SelectorCounters {
  std::atomic<uint64_t> write_routes{0};
  std::atomic<uint64_t> read_routes{0};
  std::atomic<uint64_t> remastered_txns{0};
  std::atomic<uint64_t> partitions_remastered{0};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> routed_to_site;

  explicit SelectorCounters(uint32_t num_sites) {
    for (uint32_t i = 0; i < num_sites; ++i) {
      routed_to_site.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    }
  }
  double RemasterFraction() const {
    const uint64_t routes = write_routes.load(std::memory_order_relaxed);
    return routes == 0 ? 0.0
                       : static_cast<double>(remastered_txns.load(std::memory_order_relaxed)) /
                             static_cast<double>(routes);
  }
};

/// SiteSelector routes transactions and remasters data (Sections III-B,
/// IV, V-B). Clients send it their transaction's write set; it either
/// finds the single site mastering everything, or picks a destination via
/// the strategy model and transfers mastership with parallel release/grant
/// metadata operations, holding the partitions' writer locks so no
/// partition is concurrently remastered twice.
class SiteSelector {
 public:
  /// `sites`, `partitioner` and `network` must outlive the selector;
  /// `network` may be null (tests).
  SiteSelector(const SelectorOptions& options,
               std::vector<site::SiteManager*> sites,
               const Partitioner* partitioner, net::SimulatedNetwork* network);

  SiteSelector(const SiteSelector&) = delete;
  SiteSelector& operator=(const SiteSelector&) = delete;

  /// Routes a write transaction, remastering its partitions to one site if
  /// necessary (Algorithm 1).
  Status RouteWrite(ClientId client, const std::vector<RecordKey>& write_keys,
                    const VersionVector& client_session, RouteResult* out);

  /// Routes by pre-computed partition set (callers that know partitions
  /// without keys, e.g. LEAP-style localization declarations).
  Status RouteWritePartitions(ClientId client,
                              std::vector<PartitionId> partitions,
                              const VersionVector& client_session,
                              RouteResult* out);

  /// Routes a read-only transaction to a random session-fresh site
  /// (Section IV-B).
  Status RouteRead(ClientId client, const VersionVector& client_session,
                   SiteId* out_site) DYNAMAST_EXCLUDES(rng_mu_);

  PartitionMap& partition_map() { return map_; }
  AccessStatistics& statistics() { return *stats_; }
  RemasterStrategy& strategy() { return strategy_; }
  SelectorCounters& counters() { return counters_; }

  /// Time-to-relocalize tracking over slow-path remastering decisions
  /// (DESIGN.md, "Timelines & convergence tracking"). Benches Flush() it
  /// before reporting.
  ConvergenceTracker& convergence() { return convergence_; }

  /// Applies `initial_master` (or a custom placement) to both the map and
  /// the data sites. Call before starting the workload.
  void InstallPlacement(const std::vector<SiteId>& master_of_partition);

  /// The most recent slow-path routing decisions (oldest first, at most
  /// kMaxExplains entries).
  std::vector<RoutingExplain> RecentExplains() const
      DYNAMAST_EXCLUDES(explain_mu_);

  /// Bound on the routing-explain ring.
  static constexpr size_t kMaxExplains = 256;

 private:
  // Performs release/grant transfers of `partitions` (currently mastered
  // per `masters`) to `dest`; returns the element-wise max grant vector.
  Status Remaster(const std::vector<PartitionId>& partitions,
                  const std::vector<SiteId>& masters, SiteId dest,
                  VersionVector* out_vv, uint32_t* moved);

  void MaybeSample(ClientId client, const std::vector<PartitionId>& parts)
      DYNAMAST_EXCLUDES(rng_mu_);

  /// Current effective sample rate (== options().sample_rate unless the
  /// adaptive sampler has throttled it). Exposed for tests/diagnostics.
  double EffectiveSampleRate() const DYNAMAST_EXCLUDES(rng_mu_);

  // Stores one slow-path decision into the explain ring and the
  // routing-explain metrics (factor sums are accumulated for the winner).
  void RecordExplain(const std::vector<PartitionId>& partitions,
                     const std::vector<SiteId>& masters,
                     std::vector<SiteScore> scores, SiteId winner)
      DYNAMAST_EXCLUDES(explain_mu_);

  // Exported metric handles, resolved once at construction (null without
  // a registry).
  struct ExportedMetrics {
    metrics::Counter* routes_write = nullptr;
    metrics::Counter* routes_read = nullptr;
    metrics::Counter* remaster_txns = nullptr;
    metrics::Counter* partitions_moved = nullptr;
    std::vector<metrics::Counter*> routed_to_site;
    metrics::Counter* explain_decisions = nullptr;
    metrics::Gauge* factor_balance = nullptr;
    metrics::Gauge* factor_delay = nullptr;
    metrics::Gauge* factor_intra = nullptr;
    metrics::Gauge* factor_inter = nullptr;
  };

  SelectorOptions options_;
  std::vector<site::SiteManager*> sites_;
  const Partitioner* partitioner_;
  net::SimulatedNetwork* network_;
  trace::Tracer* tracer_;
  ExportedMetrics exported_;

  PartitionMap map_;
  std::unique_ptr<AccessStatistics> stats_;
  RemasterStrategy strategy_;
  SelectorCounters counters_;
  ConvergenceTracker convergence_;

  mutable DebugMutex rng_mu_{"selector.rng"};
  Random rng_ DYNAMAST_GUARDED_BY(rng_mu_);

  // Adaptive sampling state (guarded by rng_mu_, which MaybeSample holds
  // anyway): samples taken in the current one-second window.
  std::chrono::steady_clock::time_point sample_window_start_
      DYNAMAST_GUARDED_BY(rng_mu_){};
  uint64_t samples_in_window_ DYNAMAST_GUARDED_BY(rng_mu_) = 0;
  double effective_sample_rate_ DYNAMAST_GUARDED_BY(rng_mu_) = 1.0;

  // Routing-explain ring (bounded; oldest evicted first). RawMutex: below
  // the scheduler layer, so ring pushes never perturb record/replay.
  mutable RawMutex explain_mu_;
  std::deque<RoutingExplain> explains_ DYNAMAST_GUARDED_BY(explain_mu_);
  uint64_t explain_seq_ DYNAMAST_GUARDED_BY(explain_mu_) = 0;
};

}  // namespace dynamast::selector

#endif  // DYNAMAST_SELECTOR_SITE_SELECTOR_H_
