#ifndef DYNAMAST_SITE_SITE_MANAGER_H_
#define DYNAMAST_SITE_SITE_MANAGER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/debug_mutex.h"
#include "common/history.h"
#include "common/key.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/version_vector.h"
#include "log/durable_log.h"
#include "log/log_record.h"
#include "net/sim_network.h"
#include "site/admission_gate.h"
#include "site/site_config.h"
#include "site/transaction.h"
#include "storage/storage_engine.h"

namespace dynamast::site {

/// SiteManager is one data site of the replicated system: the integrated
/// site manager + database + replication manager component of Section V-A.
/// It owns the site's storage engine and site version vector, executes
/// local transactions under snapshot isolation, applies refresh
/// transactions from peer sites under the update application rule (Eq. 1),
/// and services the release/grant RPCs of the remastering protocol
/// (Algorithm 1).
///
/// The same class backs every evaluated system; baselines differ only in
/// how mastership is assigned and how their routers coordinate.
class SiteManager {
 public:
  /// `partitioner`, `logs`, `network`, `history`, `metrics` and `tracer`
  /// must outlive the site. `logs` may be shared with peer sites;
  /// `network` may be null for pure-logic tests (no traffic accounting);
  /// `history` may be null (no history recording) or a recorder shared
  /// with peer sites; `metrics` may be null (metrics::Registry::Global());
  /// `tracer` may be null (no span recording).
  SiteManager(const SiteOptions& options, const Partitioner* partitioner,
              log::LogManager* logs, net::SimulatedNetwork* network,
              history::Recorder* history = nullptr,
              metrics::Registry* metrics = nullptr,
              trace::Tracer* tracer = nullptr);
  ~SiteManager();

  SiteManager(const SiteManager&) = delete;
  SiteManager& operator=(const SiteManager&) = delete;

  /// Starts the refresh applier threads (one per peer site). Call after
  /// all sites are constructed and initial data is loaded.
  void Start();

  /// Stops appliers. Idempotent. (LogManager::CloseAll unblocks them.)
  void Stop();

  SiteId site_id() const { return options_.site_id; }
  const SiteOptions& options() const { return options_; }
  storage::StorageEngine& engine() { return engine_; }
  AdmissionGate& gate() { return gate_; }
  history::Recorder* history() const { return history_; }

  /// Current site version vector (copy).
  VersionVector CurrentVersion() const DYNAMAST_EXCLUDES(state_mu_);

  /// Freshness probe for read routing: reports whether this site's svv
  /// dominates `session` and (via `total`, if non-null) the svv element
  /// sum used as the selector's freshness tiebreak. Equivalent to
  /// `CurrentVersion().DominatesOrEquals(session)` plus `.Total()` but
  /// takes one critical section and never copies the vector.
  bool FreshnessProbe(const VersionVector& session, uint64_t* total) const
      DYNAMAST_EXCLUDES(state_mu_);

  // ---- Transaction API -----------------------------------------------

  /// Opens a transaction: waits for the minimum begin version, checks
  /// mastership of the write partitions, acquires write locks, then takes
  /// the begin snapshot (after lock acquisition — required by the SI
  /// proof, Appendix A Case 1).
  Status BeginTransaction(const TxnOptions& opts, Transaction* txn)
      DYNAMAST_EXCLUDES(state_mu_);

  /// Commits: atomically assigns the next local sequence number, installs
  /// staged writes, appends the redo/propagation record to this site's
  /// log topic, advances svv, and releases locks. Returns the commit
  /// timestamp (transaction version vector) in `commit_version`.
  Status Commit(Transaction* txn, VersionVector* commit_version)
      DYNAMAST_EXCLUDES(state_mu_);

  /// Drops staged writes and releases locks. `reason` feeds the
  /// abort-reason taxonomy (site_aborts_total{reason=...}): pass the
  /// Status that caused the abort so the metric names the actual cause.
  void Abort(Transaction* txn,
             const Status& reason = Status::Aborted("caller abort"))
      DYNAMAST_EXCLUDES(state_mu_);

  /// Sleeps now for an explicit duration of simulated site work (and the
  /// caller's pending debt). Transaction logic only sim::Charge()s and
  /// settles once (see core::SiteTxnContext).
  void ChargeDuration(std::chrono::nanoseconds d) const;

  /// Sleeps off the calling thread's pending debt (sim::Charge). Commit
  /// and Abort call it first, so charged work always lands before a
  /// transaction's effects publish or its locks release.
  void SettleCharges() const { clock_.Settle(); }

  /// Blocks until svv dominates `min`, or the freshness timeout expires.
  /// With `begin`, a wait that actually blocks is timed as that begin's
  /// `vv_wait` span (site_vv_wait_us); a site that already dominates `min`
  /// records nothing.
  Status WaitForVersion(const VersionVector& min,
                        const TxnOptions* begin = nullptr) const
      DYNAMAST_EXCLUDES(state_mu_);

  // ---- Mastership / remastering (Algorithm 1 server side) -------------

  /// Initial mastership assignment (loader); not logged.
  void SetMasterOf(PartitionId partition, bool is_master)
      DYNAMAST_EXCLUDES(state_mu_);
  bool IsMasterOf(PartitionId partition) const DYNAMAST_EXCLUDES(state_mu_);
  std::vector<PartitionId> MasteredPartitions() const
      DYNAMAST_EXCLUDES(state_mu_);

  /// Releases mastership of `partitions` to `to_site`: immediately stops
  /// admitting new write transactions on them, waits for in-flight writers
  /// to finish, appends a release marker (which occupies a slot in this
  /// site's commit order and therefore propagates), and returns the site
  /// version vector at the point of release.
  Status Release(const std::vector<PartitionId>& partitions, SiteId to_site,
                 VersionVector* release_version) DYNAMAST_EXCLUDES(state_mu_);

  /// Takes mastership of `partitions` from `from_site`: waits until this
  /// site has applied everything up to `release_version`, appends a grant
  /// marker, marks the partitions mastered, and returns the svv at the
  /// time ownership was taken.
  Status Grant(const std::vector<PartitionId>& partitions, SiteId from_site,
               const VersionVector& release_version,
               VersionVector* grant_version) DYNAMAST_EXCLUDES(state_mu_);

  // ---- Loading & recovery ---------------------------------------------

  Status CreateTable(TableId id);

  /// Installs an initial record visible to every snapshot; not logged.
  /// Used by workload loaders (data is fully replicated: loaders install
  /// the same rows at every site).
  Status LoadRecord(const RecordKey& key, std::string value);

  /// Rebuilds storage and the svv by replaying all log topics from the
  /// beginning, respecting the update application rule. Mastership is
  /// reconstructed from release/grant markers on top of
  /// `initial_masters` (partition -> site). Call on a stopped, freshly
  /// constructed site. Returns the reconstructed mastership map.
  Status RecoverFromLogs(
      const std::unordered_map<PartitionId, SiteId>& initial_masters,
      std::unordered_map<PartitionId, SiteId>* recovered_masters)
      DYNAMAST_EXCLUDES(state_mu_);

 private:
  friend class Transaction;

  // Applies one refresh/marker record from `origin` once Eq. 1 allows.
  // Takes the record by value: the applier is done with it afterwards, so
  // the write values move straight into the version store. Returns false
  // if shutting down.
  bool ApplyRefreshRecord(log::LogRecord record) DYNAMAST_EXCLUDES(state_mu_);

  // Refresh applier main loop for one origin topic.
  void ApplierLoop(SiteId origin);

  // Appends a marker record under state_mu_; returns svv copy after bump.
  VersionVector AppendMarkerLocked(log::LogRecord::Type type,
                                   const std::vector<PartitionId>& partitions,
                                   SiteId peer)
      DYNAMAST_REQUIRES(state_mu_);

  // Drops `txn` from the active-writer counts of its write partitions and
  // wakes the waiters (Release drains on these counts).
  void UnregisterWritersLocked(const Transaction& txn)
      DYNAMAST_REQUIRES(state_mu_);

  // Transaction helpers (called by Transaction).
  Status TxnGet(Transaction* txn, const RecordKey& key, std::string* value);
  Status TxnPut(Transaction* txn, const RecordKey& key, std::string value,
                bool is_insert);

  // Builds the history event for a finished transaction (no recorder
  // sequence yet; Recorder::Record assigns it).
  history::HistoryEvent MakeTxnEvent(const Transaction& txn,
                                     history::EventKind kind) const;

  // Version-install outcomes accumulated while state_mu_ is held and
  // flushed to the storage metrics once the critical section releases:
  // histogram recording takes the recorder's leaf lock, which has no place
  // inside the site's widest critical section. Callers reserve chain_lens
  // before taking state_mu_ so the accumulation never allocates under it.
  struct InstallBatch {
    std::vector<size_t> chain_lens;
    uint64_t pruned = 0;
  };

  // Installs a committed/refreshed version, accumulating version-chain and
  // prune outcomes into `batch`. Install can only fail if the table
  // vanished mid-run — a programming error — so failure trips an invariant.
  void InstallVersion(const RecordKey& key, SiteId origin, uint64_t seq,
                      std::string value, InstallBatch* batch);

  // Observes the accumulated install outcomes. Call without state_mu_.
  void FlushInstallMetrics(const InstallBatch& batch);

  // Counts one abort in the per-reason taxonomy metric.
  void CountAbort(const Status& reason);

  static constexpr size_t kNumStatusCodes =
      static_cast<size_t>(Status::Code::kInternal) + 1;

  // Metric handles, resolved once at construction. Pointers are stable
  // for the registry's lifetime, so the hot path never takes the registry
  // lock.
  struct ExportedMetrics {
    metrics::Counter* commits_update = nullptr;
    metrics::Counter* commits_readonly = nullptr;
    std::array<metrics::Counter*, kNumStatusCodes> aborts_by_reason{};
    metrics::Histogram* lock_wait_us = nullptr;
    metrics::Histogram* vv_wait_us = nullptr;
    metrics::Counter* refresh_applied = nullptr;
    metrics::Histogram* refresh_delay_us = nullptr;
    metrics::Counter* releases = nullptr;
    metrics::Counter* grants = nullptr;
    metrics::Counter* mastership_transitions = nullptr;
    metrics::Counter* pruned_versions = nullptr;
    metrics::Histogram* version_chain_len = nullptr;
  };

  SiteOptions options_;
  const Partitioner* partitioner_;
  log::LogManager* logs_;
  net::SimulatedNetwork* network_;
  history::Recorder* history_;
  trace::Tracer* tracer_;
  ExportedMetrics exported_;

  storage::StorageEngine engine_;
  AdmissionGate gate_;
  sim::SimClock clock_;

  mutable DebugMutex state_mu_{"site.state"};
  mutable DebugCondVar state_cv_;
  VersionVector svv_ DYNAMAST_GUARDED_BY(state_mu_);
  // Partitions this site masters; a partition being released is removed
  // before the drain so no new writers are admitted.
  std::unordered_set<PartitionId> mastered_ DYNAMAST_GUARDED_BY(state_mu_);
  // In-flight write transactions per partition (release drains these).
  std::unordered_map<PartitionId, uint32_t> active_writers_
      DYNAMAST_GUARDED_BY(state_mu_);

  // Relaxed: ids need uniqueness only, no ordering.
  std::atomic<storage::TxnId> next_txn_id_{1};
  // Stop's acq_rel exchange pairs with the workers' acquire loads.
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::vector<std::thread> appliers_;
};

}  // namespace dynamast::site

#endif  // DYNAMAST_SITE_SITE_MANAGER_H_
