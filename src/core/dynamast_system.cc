#include "core/dynamast_system.h"

#include <algorithm>

#include "common/invariant_checker.h"
#include "core/site_txn_context.h"
#if DYNAMAST_INVARIANTS_ENABLED
#include "site/invariants.h"
#endif

namespace dynamast::core {

namespace {
// Nominal RPC payload sizes (stored-procedure arguments / responses).
constexpr size_t kRouteRequestBytes = 128;
constexpr size_t kRouteResponseBytes = 64;
constexpr size_t kExecRequestBaseBytes = 256;
constexpr size_t kExecResponseBytes = 128;
// Routing races (a partition remastered away between routing and begin)
// are retried this many times.
constexpr uint32_t kMaxRetries = 16;
}  // namespace

DynaMastSystem::DynaMastSystem(const Options& options,
                               const Partitioner* partitioner)
    : options_(options), partitioner_(partitioner),
      cluster_(options.cluster, partitioner) {
  metrics::Registry* registry = cluster_.metrics();
  auto phase = [registry](const char* name) {
    return registry->GetHistogram("txn_phase_us", {{"phase", name}});
  };
  phase_us_ = {phase("route"), phase("network")};
  selector::SelectorOptions sel = options_.selector;
  // The selector exports into the same registry/tracer as the data sites
  // unless the caller wired its own.
  if (sel.metrics == nullptr) sel.metrics = registry;
  if (sel.tracer == nullptr) sel.tracer = cluster_.tracer();
  selector_ = std::make_unique<selector::SiteSelector>(
      sel, cluster_.site_pointers(), partitioner, &cluster_.network());
}

DynaMastSystem::~DynaMastSystem() { Shutdown(); }

Status DynaMastSystem::LoadRow(const RecordKey& key, std::string value) {
  // Full replication: every site holds every row (Section II-B1).
  return cluster_.LoadRowEverywhere(key, value);
}

void DynaMastSystem::Seal() {
  if (sealed_) return;
  sealed_ = true;
  const size_t n = partitioner_->NumPartitions();
  std::vector<SiteId> placement(n, 0);
  switch (options_.placement) {
    case InitialPlacement::kRoundRobin:
      for (PartitionId p = 0; p < n; ++p) {
        placement[p] = static_cast<SiteId>(p % cluster_.num_sites());
      }
      break;
    case InitialPlacement::kAllAtSiteZero:
      break;  // all zero already
    case InitialPlacement::kCustom:
      placement = options_.custom_placement;
      placement.resize(n, 0);
      break;
  }
  selector_->InstallPlacement(placement);
#if DYNAMAST_INVARIANTS_ENABLED
  // The cluster is quiesced at seal: every partition must have exactly one
  // master.
  site::CheckMastershipInvariant(cluster_.site_pointers(), n,
                                 /*require_exactly_one=*/true, "seal");
#endif
  cluster_.Start();
}

Status DynaMastSystem::Execute(ClientState& client, const TxnProfile& profile,
                               const TxnLogic& logic, TxnResult* result) {
  // `result` is an optional out-param; downstream code assumes non-null.
  TxnResult scratch;
  if (result == nullptr) result = &scratch;
  client.issued_txns++;
  return profile.read_only ? ExecuteRead(client, profile, logic, result)
                           : ExecuteWrite(client, profile, logic, result);
}

void DynaMastSystem::ClientRoundTrip(size_t request_bytes,
                                     size_t response_bytes) {
  // Untraced (two legs per attempt would crowd the trace): a timer only.
  trace::Span span(nullptr, "network", "txn", 0, 0, phase_us_.network);
  cluster_.network().RoundTrip(net::TrafficClass::kClientRequest,
                               request_bytes, response_bytes);
}

Status DynaMastSystem::ExecuteWrite(ClientState& client,
                                    const TxnProfile& profile,
                                    const TxnLogic& logic, TxnResult* result) {
  // Merge declared write keys and insert-only partitions into the routing
  // request.
  std::vector<PartitionId> partitions;
  partitions.reserve(profile.write_keys.size() +
                     profile.extra_write_partitions.size());
  for (const RecordKey& key : profile.write_keys) {
    partitions.push_back(partitioner_->PartitionOf(key));
  }
  partitions.insert(partitions.end(), profile.extra_write_partitions.begin(),
                    profile.extra_write_partitions.end());

  trace::Tracer* tracer = cluster_.tracer();
  Status last_error = Status::Internal("no attempt made");
  for (uint32_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    // begin_transaction RPC: client -> site selector, carrying the write
    // set (Section III-B).
    ClientRoundTrip(kRouteRequestBytes + 8 * partitions.size(),
                    kRouteResponseBytes);
    trace::Span route_span(tracer, "route", "txn", cluster_.num_sites(),
                           client.id, phase_us_.route);
    route_span.SetTxn(client.id, client.issued_txns);
    selector::RouteResult route;
    Status s = selector_->RouteWritePartitions(client.id, partitions,
                                               client.session, &route);
    if (!s.ok()) {
      last_error = s;
      continue;
    }
    route_span.AddNum("site", static_cast<double>(route.site));
    route_span.AddNum("remastered", route.remastered ? 1 : 0);
    route_span.AddNum("moved", static_cast<double>(route.partitions_moved));
    route_span.End();

    // Client submits the transaction directly to the chosen data site.
    site::SiteManager* site = cluster_.site(route.site);
    ClientRoundTrip(kExecRequestBaseBytes + 32 * profile.write_keys.size(),
                    kExecResponseBytes);
    trace::Span admit_span(tracer, "admission", "txn", route.site, client.id);
    admit_span.SetTxn(client.id, client.issued_txns);
    site::AdmissionGate::Scoped slot(site->gate());
    admit_span.End();

    SiteTxn txn(site, client, cluster_.write_phases());
    s = txn.Begin(profile, route.min_begin_version);
    if (s.IsNotMaster()) {
      // Lost a race with a concurrent remastering; re-route.
      last_error = s;
      result->retries++;
      continue;
    }
    if (!s.ok()) return s;
    s = txn.Run(logic, result);
    if (!s.ok()) return s;
    result->remastered = route.remastered;
    return Status::OK();
  }
  return last_error;
}

Status DynaMastSystem::ExecuteRead(ClientState& client,
                                   const TxnProfile& profile,
                                   const TxnLogic& logic, TxnResult* result) {
  net::SimulatedNetwork& net = cluster_.network();
  Status last_error = Status::Internal("no attempt made");
  for (uint32_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    net.RoundTrip(net::TrafficClass::kClientRequest, kRouteRequestBytes,
                  kRouteResponseBytes);
    SiteId site_id = 0;
    Status s = selector_->RouteRead(client.id, client.session, &site_id);
    if (!s.ok()) return s;

    site::SiteManager* site = cluster_.site(site_id);
    net.RoundTrip(net::TrafficClass::kClientRequest, kExecRequestBaseBytes,
                  kExecResponseBytes);
    site::AdmissionGate::Scoped slot(site->gate());

    SiteTxn txn(site, client);
    s = txn.Begin(profile, client.session);
    if (!s.ok()) return s;
    s = txn.Run(logic, result);
    // A hot writer can prune every version a just-taken snapshot could
    // see (retention is bounded per record). Read-only transactions hold
    // no locks and have no effects, so simply rerun on a fresher
    // snapshot; strong-session SI is preserved because any newer snapshot
    // still dominates the session.
    if (s.IsSnapshotTooOld()) {
      last_error = s;
      result->retries++;
      continue;
    }
    return s;
  }
  return last_error;
}

void DynaMastSystem::Shutdown() {
#if DYNAMAST_INVARIANTS_ENABLED
  // At most one master per partition holds at every instant, including
  // with a transfer in flight (a released-but-ungranted partition has zero
  // masters, never two).
  if (sealed_) {
    site::CheckMastershipInvariant(cluster_.site_pointers(),
                                   partitioner_->NumPartitions(),
                                   /*require_exactly_one=*/false, "shutdown");
  }
#endif
  cluster_.Stop();
}

}  // namespace dynamast::core
