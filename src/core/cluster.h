#ifndef DYNAMAST_CORE_CLUSTER_H_
#define DYNAMAST_CORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/history.h"
#include "common/key.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "common/trace.h"
#include "log/durable_log.h"
#include "net/sim_network.h"
#include "site/site_manager.h"

namespace dynamast::core {

/// The timers of a one-site transaction's begin, execute and commit phases
/// and the tracer their spans record into (see SiteTxn). Null members
/// record nothing.
struct TxnPhaseTimers {
  trace::Tracer* tracer = nullptr;
  metrics::Histogram* begin = nullptr;
  metrics::Histogram* execute = nullptr;
  metrics::Histogram* commit = nullptr;
};

/// Cluster owns the shared substrate of one deployment: the simulated
/// network, the per-site durable log topics, the partitioner, and the data
/// sites themselves. Systems (DynaMast and baselines) are built on top of
/// a Cluster; tests and benchmarks construct one Cluster per system under
/// test so substrate state is never shared across systems.
class Cluster {
 public:
  struct Options {
    uint32_t num_sites = 4;
    net::SimulatedNetwork::Options network;
    site::SiteOptions site;  // site_id/num_sites are filled per site
    /// If false, sites do not run refresh appliers (partition-store and
    /// LEAP keep no replicas).
    bool replicated = true;
    /// If true, every site records transaction/marker history into a
    /// shared history::Recorder for the offline SI auditor
    /// (tools/si_checker).
    bool record_history = false;
    /// Metrics registry the cluster exports into. Null means the
    /// process-wide metrics::Registry::Global(); tests pass their own
    /// registry for isolation.
    metrics::Registry* metrics = nullptr;
    /// If true, the cluster owns a trace::Tracer and every site / the
    /// selector records per-transaction spans into it (Chrome trace-event
    /// export). Off by default: tracing is strictly opt-in so the hot path
    /// stays free of it.
    bool trace = false;
  };

  /// `partitioner` must outlive the cluster.
  Cluster(const Options& options, const Partitioner* partitioner);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts refresh appliers (no-op for unreplicated clusters).
  void Start();

  /// Closes logs and stops all sites. Idempotent.
  void Stop();

  uint32_t num_sites() const { return options_.num_sites; }
  const Options& options() const { return options_; }
  net::SimulatedNetwork& network() { return network_; }
  log::LogManager& logs() { return logs_; }
  const Partitioner& partitioner() const { return *partitioner_; }

  site::SiteManager* site(SiteId id) { return sites_[id].get(); }
  const std::vector<site::SiteManager*>& site_pointers() const {
    return site_pointers_;
  }

  /// Null unless Options::record_history was set.
  history::Recorder* history() { return history_.get(); }

  /// The resolved metrics registry (never null).
  metrics::Registry* metrics() { return metrics_; }

  /// Null unless Options::trace was set.
  trace::Tracer* tracer() { return tracer_.get(); }

  /// Every system's one-site write transactions time their phases here:
  /// txn_phase_us{phase=begin|execute|commit}, plus the tracer.
  const TxnPhaseTimers& write_phases() const { return write_phases_; }

  /// Creates a table at every site.
  Status CreateTable(TableId id);

  /// Loads `key` at every site (full replication, or a static table every
  /// system replicates).
  Status LoadRowEverywhere(const RecordKey& key, const std::string& value);

  /// Makes `placement[p]` the one master of partition p at every site (the
  /// static placement of the partitioned baselines and LEAP's start).
  void SetStaticMasters(const std::vector<SiteId>& placement);

 private:
  Options options_;
  const Partitioner* partitioner_;
  metrics::Registry* metrics_;
  net::SimulatedNetwork network_;
  log::LogManager logs_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<history::Recorder> history_;
  std::vector<std::unique_ptr<site::SiteManager>> sites_;
  std::vector<site::SiteManager*> site_pointers_;
  TxnPhaseTimers write_phases_;
  bool stopped_ = false;
};

}  // namespace dynamast::core

#endif  // DYNAMAST_CORE_CLUSTER_H_
