#include "selector/replica_selector.h"

#include <algorithm>

namespace dynamast::selector {

ReplicaSiteSelector::ReplicaSiteSelector(SiteSelector* master,
                                         const Partitioner* partitioner,
                                         metrics::Registry* metrics)
    : master_(master), partitioner_(partitioner) {
  metrics = metrics::Registry::OrGlobal(metrics);
  routed_locally_ =
      metrics->GetCounter("replica_selector_routes_total", {{"kind", "local"}});
  fallbacks_ = metrics->GetCounter("replica_selector_routes_total",
                                   {{"kind", "fallback"}});
  syncs_ = metrics->GetCounter("replica_selector_syncs_total");
  Sync();
}

void ReplicaSiteSelector::Sync() {
  std::vector<SiteId> fresh(partitioner_->NumPartitions());
  for (PartitionId p = 0; p < fresh.size(); ++p) {
    fresh[p] = master_->partition_map().MasterOfLocked(p);
  }
  MutexLock guard(cache_mu_);
  cached_master_ = std::move(fresh);
  syncs_->Increment();
}

Status ReplicaSiteSelector::TryRouteWrite(
    ClientId client, const std::vector<RecordKey>& write_keys,
    const VersionVector& client_session, RouteResult* out) {
  std::vector<PartitionId> partitions;
  partitions.reserve(write_keys.size());
  for (const RecordKey& key : write_keys) {
    partitions.push_back(partitioner_->PartitionOf(key));
  }
  return TryRouteWritePartitions(client, std::move(partitions),
                                 client_session, out);
}

Status ReplicaSiteSelector::TryRouteWritePartitions(
    ClientId client, std::vector<PartitionId> partitions,
    const VersionVector& client_session, RouteResult* out) {
  (void)client;
  if (partitions.empty()) {
    return Status::InvalidArgument("write route with no partitions");
  }
  std::sort(partitions.begin(), partitions.end());
  partitions.erase(std::unique(partitions.begin(), partitions.end()),
                   partitions.end());
  SiteId site = kInvalidSite;
  {
    MutexLock guard(cache_mu_);
    for (PartitionId p : partitions) {
      const SiteId owner = cached_master_[p];
      if (site == kInvalidSite) {
        site = owner;
      } else if (site != owner) {
        // Distributed master copies (per the cache): only the master
        // selector may remaster.
        fallbacks_->Increment();
        return Status::Unavailable("write set requires remastering");
      }
    }
  }
  routed_locally_->Increment();
  out->site = site;
  out->min_begin_version = client_session;
  out->remastered = false;
  out->partitions_moved = 0;
  return Status::OK();
}

}  // namespace dynamast::selector
