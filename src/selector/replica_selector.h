#ifndef DYNAMAST_SELECTOR_REPLICA_SELECTOR_H_
#define DYNAMAST_SELECTOR_REPLICA_SELECTOR_H_

#include <mutex>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "selector/site_selector.h"

namespace dynamast::selector {

/// ReplicaSiteSelector implements the distributed site-selector design of
/// the paper's Appendix I: a read-mostly replica of the (single-master)
/// site selector that clients can query instead of the master.
///
///  * It holds a cached copy of the master-location metadata, refreshed
///    by Sync() (in a deployment, the master would push deltas; here the
///    refresh copies the master's map — remastering is rare, so the cache
///    is almost always current).
///  * A write transaction whose cached master locations are single-sited
///    is routed locally, with no master-selector involvement.
///  * If the cached locations span sites (remastering would be needed) —
///    or if the cache turns out to be stale and the data site aborts the
///    transaction with NotMaster — the client falls back to the master
///    selector, which alone performs remastering. Correctness is
///    therefore unchanged: all mastership transfers remain serialized
///    through one selector, and stale routes are caught by the site
///    managers' mastership checks.
class ReplicaSiteSelector {
 public:
  /// `master` and `partitioner` must outlive the replica. Routing counts
  /// export into `metrics` (null means metrics::Registry::Global()):
  /// replica_selector_routes_total{kind=local|fallback} and
  /// replica_selector_syncs_total.
  ReplicaSiteSelector(SiteSelector* master, const Partitioner* partitioner,
                      metrics::Registry* metrics = nullptr);

  ReplicaSiteSelector(const ReplicaSiteSelector&) = delete;
  ReplicaSiteSelector& operator=(const ReplicaSiteSelector&) = delete;

  /// Refreshes the cached master locations from the master selector.
  void Sync() DYNAMAST_EXCLUDES(cache_mu_);

  /// Attempts a local routing decision. Returns:
  ///  * OK and a filled RouteResult when the cached write set is
  ///    single-sited (the common case);
  ///  * Unavailable when the write set requires remastering — the caller
  ///    must fall back to the master selector's RouteWrite.
  Status TryRouteWrite(ClientId client,
                       const std::vector<RecordKey>& write_keys,
                       const VersionVector& client_session, RouteResult* out);
  Status TryRouteWritePartitions(ClientId client,
                                 std::vector<PartitionId> partitions,
                                 const VersionVector& client_session,
                                 RouteResult* out) DYNAMAST_EXCLUDES(cache_mu_);

  /// Read routing never requires mastership knowledge; it is served by
  /// the replica exactly as by the master (Appendix I: "read-only
  /// transaction routing does not change").
  Status RouteRead(ClientId client, const VersionVector& client_session,
                   SiteId* out_site) {
    return master_->RouteRead(client, client_session, out_site);
  }

 private:
  SiteSelector* master_;
  const Partitioner* partitioner_;

  mutable DebugMutex cache_mu_{"selector.replica_cache"};
  std::vector<SiteId> cached_master_ DYNAMAST_GUARDED_BY(cache_mu_);

  metrics::Counter* routed_locally_ = nullptr;
  metrics::Counter* fallbacks_ = nullptr;
  metrics::Counter* syncs_ = nullptr;
};

}  // namespace dynamast::selector

#endif  // DYNAMAST_SELECTOR_REPLICA_SELECTOR_H_
