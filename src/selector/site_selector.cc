#include "selector/site_selector.h"

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/invariant_checker.h"
#include "common/scheduler.h"
#if DYNAMAST_INVARIANTS_ENABLED
#include "site/invariants.h"
#endif

namespace dynamast::selector {

namespace {
// Nominal sizes of remastering RPC payloads: metadata only (a partition id
// list plus a version vector) — this is the heart of the "lightweight
// metadata-based protocol" claim the traffic breakdown (E10) verifies.
constexpr size_t kRemasterRequestBytes = 64;
constexpr size_t kRemasterResponseBytes = 96;
}  // namespace

SiteSelector::SiteSelector(const SelectorOptions& options,
                           std::vector<site::SiteManager*> sites,
                           const Partitioner* partitioner,
                           net::SimulatedNetwork* network)
    : options_(options),
      sites_(std::move(sites)),
      partitioner_(partitioner),
      network_(network),
      tracer_(options.tracer),
      map_(partitioner->NumPartitions()),
      strategy_(options.weights, num_sites()),
      convergence_(partitioner->NumPartitions(), options.metrics),
      rng_(options.seed) {
  std::vector<SiteId> initial(partitioner->NumPartitions(), 0);
  stats_ = std::make_unique<AccessStatistics>(options_.stats, num_sites(),
                                              initial);
  metrics::Registry* reg = metrics::Registry::OrGlobal(options_.metrics);
  exported_.routes_write =
      reg->GetCounter("selector_routes_total", {{"kind", "write"}});
  exported_.routes_read =
      reg->GetCounter("selector_routes_total", {{"kind", "read"}});
  exported_.remaster_txns = reg->GetCounter("selector_remaster_total");
  exported_.partitions_moved =
      reg->GetCounter("selector_partitions_moved_total");
  for (SiteId s = 0; s < num_sites(); ++s) {
    exported_.routed_to_site.push_back(reg->GetCounter(
        "selector_routed_to_site_total", {{"site", std::to_string(s)}}));
  }
  exported_.explain_decisions =
      reg->GetCounter("routing_explain_decisions_total");
  exported_.factor_balance =
      reg->GetGauge("routing_explain_factor_sum", {{"factor", "balance"}});
  exported_.factor_delay =
      reg->GetGauge("routing_explain_factor_sum", {{"factor", "delay"}});
  exported_.factor_intra =
      reg->GetGauge("routing_explain_factor_sum", {{"factor", "intra"}});
  exported_.factor_inter =
      reg->GetGauge("routing_explain_factor_sum", {{"factor", "inter"}});
}

std::vector<RoutingExplain> SiteSelector::RecentExplains() const {
  RawMutexLock guard(explain_mu_);
  return std::vector<RoutingExplain>(explains_.begin(), explains_.end());
}

void SiteSelector::RecordExplain(const std::vector<PartitionId>& partitions,
                                 const std::vector<SiteId>& masters,
                                 std::vector<SiteScore> scores,
                                 SiteId winner) {
  if (winner < scores.size()) {
    const SiteScore& win = scores[winner];
    exported_.explain_decisions->Increment();
    exported_.factor_balance->Add(win.f_balance);
    exported_.factor_delay->Add(win.f_refresh_delay);
    exported_.factor_intra->Add(win.f_intra_txn);
    exported_.factor_inter->Add(win.f_inter_txn);
  }
  RoutingExplain explain;
  explain.ts_us = metrics::NowMicros();
  explain.partitions = partitions;
  explain.masters = masters;
  explain.scores = std::move(scores);
  explain.winner = winner;
  RawMutexLock guard(explain_mu_);
  explain.seq = ++explain_seq_;
  explains_.push_back(std::move(explain));
  if (explains_.size() > kMaxExplains) explains_.pop_front();
}

void SiteSelector::InstallPlacement(
    const std::vector<SiteId>& master_of_partition) {
  for (PartitionId p = 0; p < master_of_partition.size(); ++p) {
    const SiteId owner = master_of_partition[p];
    map_.LockExclusive(p);
    map_.SetMaster(p, owner);
    map_.UnlockExclusive(p);
    stats_->OnRemaster(p, owner);
    for (SiteId s = 0; s < num_sites(); ++s) {
      sites_[s]->SetMasterOf(p, s == owner);
    }
  }
}

void SiteSelector::MaybeSample(ClientId client,
                               const std::vector<PartitionId>& parts) {
  const auto now = std::chrono::steady_clock::now();
  bool sample;
  {
    MutexLock guard(rng_mu_);
    if (options_.adaptive_sampling) {
      if (now - sample_window_start_ >= std::chrono::seconds(1)) {
        // New window: if the last one overshot the budget, throttle;
        // if it was comfortably below, recover toward the configured rate.
        if (samples_in_window_ > kMaxSamplesPerSecond) {
          effective_sample_rate_ *=
              static_cast<double>(kMaxSamplesPerSecond) /
              static_cast<double>(samples_in_window_);
        } else if (samples_in_window_ < kMaxSamplesPerSecond / 2) {
          effective_sample_rate_ = std::min(1.0, effective_sample_rate_ * 2);
        }
        sample_window_start_ = now;
        samples_in_window_ = 0;
      }
    }
    const double rate = options_.adaptive_sampling
                            ? options_.sample_rate * effective_sample_rate_
                            : options_.sample_rate;
    sample = rng_.Bernoulli(rate);
    if (sample) ++samples_in_window_;
  }
  if (sample) {
    stats_->RecordWriteSet(client, parts, now);
  }
}

Status SiteSelector::RouteWrite(ClientId client,
                                const std::vector<RecordKey>& write_keys,
                                const VersionVector& client_session,
                                RouteResult* out) {
  std::vector<PartitionId> partitions;
  partitions.reserve(write_keys.size());
  for (const RecordKey& key : write_keys) {
    partitions.push_back(partitioner_->PartitionOf(key));
  }
  return RouteWritePartitions(client, std::move(partitions), client_session,
                              out);
}

// tsa-escape(selector.partition): dynamic lock set — releases the write
// set's partition locks, which the caller acquired in sorted order, in a
// loop TSA cannot model.
DYNAMAST_NO_THREAD_SAFETY_ANALYSIS
bool SiteSelector::RouteIfSingleSited(
    ClientId client, const std::vector<PartitionId>& partitions,
    bool exclusive, const VersionVector& client_session,
    std::vector<SiteId>* masters, RouteResult* out) {
  bool single_sited = true;
  for (size_t i = 0; i < partitions.size(); ++i) {
    (*masters)[i] = map_.MasterOf(partitions[i]);
    if ((*masters)[i] != (*masters)[0]) single_sited = false;
  }
  if (!single_sited) return false;
  const SiteId site = (*masters)[0];
  for (auto it = partitions.rbegin(); it != partitions.rend(); ++it) {
    if (exclusive) {
      map_.UnlockExclusive(*it);
    } else {
      map_.UnlockShared(*it);
    }
  }
  MaybeSample(client, partitions);
  exported_.routed_to_site[site]->Increment();
  out->site = site;
  out->min_begin_version = client_session;
  out->remastered = false;
  out->partitions_moved = 0;
  return true;
}

// tsa-escape(selector.partition): dynamic lock set — acquires the
// write set's partition locks in sorted order inside loops, which TSA
// cannot model; the runtime lock-rank checker (partition rank == id)
// enforces the ordering instead.
DYNAMAST_NO_THREAD_SAFETY_ANALYSIS
Status SiteSelector::RouteWritePartitions(ClientId client,
                                          std::vector<PartitionId> partitions,
                                          const VersionVector& client_session,
                                          RouteResult* out) {
  if (partitions.empty()) {
    return Status::InvalidArgument("write route with no partitions");
  }
  std::sort(partitions.begin(), partitions.end());
  partitions.erase(std::unique(partitions.begin(), partitions.end()),
                   partitions.end());
  exported_.routes_write->Increment();

  // Fast path: shared locks in sorted order; single-master write sets
  // route without remastering.
  std::vector<SiteId> masters(partitions.size());
  for (PartitionId p : partitions) map_.LockShared(p);
  if (RouteIfSingleSited(client, partitions, /*exclusive=*/false,
                         client_session, &masters, out)) {
    return Status::OK();
  }
  for (auto it = partitions.rbegin(); it != partitions.rend(); ++it) {
    map_.UnlockShared(*it);
  }

  // Slow path: exclusive locks in sorted order (prevents concurrent
  // remastering of any of these partitions), then re-check — a concurrent
  // transaction with a common write set may have co-located them already,
  // in which case its remastering is amortized over this transaction too.
  for (PartitionId p : partitions) map_.LockExclusive(p);
  if (RouteIfSingleSited(client, partitions, /*exclusive=*/true,
                         client_session, &masters, out)) {
    return Status::OK();
  }

  // Slow path proper: this write set is split across masters. The entry
  // timestamp anchors the convergence tracker's episode windows.
  const uint64_t slow_start_us = metrics::NowMicros();

  // Remastering decision (Eq. 8), evaluating every candidate site.
  RemasterDecisionInput input;
  input.write_partitions = partitions;
  input.current_masters = masters;
  input.client_session = client_session;
  input.site_versions.reserve(sites_.size());
  for (site::SiteManager* s : sites_) {
    input.site_versions.push_back(s->CurrentVersion());
  }
  // Score once, choose from the scores, and keep the per-factor values as
  // the decision's explanation (the Eq. 2-8 reasoning, not just the pick).
  trace::Span decide_span(tracer_, "route_decide", "selector",
                          num_sites(), client);
  std::vector<SiteScore> scores;
  strategy_.ScoreSites(input, *stats_, &scores);
  const SiteId dest = strategy_.ChooseFromScores(input, scores);
  decide_span.AddNum("winner", static_cast<double>(dest));
  decide_span.AddNum("f_balance", scores[dest].f_balance);
  decide_span.AddNum("f_refresh_delay", scores[dest].f_refresh_delay);
  decide_span.AddNum("f_intra_txn", scores[dest].f_intra_txn);
  decide_span.AddNum("f_inter_txn", scores[dest].f_inter_txn);
  decide_span.End();
  RecordExplain(partitions, masters, std::move(scores), dest);

  VersionVector out_vv(num_sites());
  uint32_t moved = 0;
  Status s = Remaster(partitions, masters, dest, &out_vv, &moved);
  if (!s.ok()) {
    for (auto it = partitions.rbegin(); it != partitions.rend(); ++it) {
      map_.UnlockExclusive(*it);
    }
    return s;
  }

  for (size_t i = 0; i < partitions.size(); ++i) {
    if (masters[i] != dest) {
      map_.SetMaster(partitions[i], dest);
      stats_->OnRemaster(partitions[i], dest);
    }
  }
#if DYNAMAST_INVARIANTS_ENABLED
  // Still holding the partitions' exclusive transfer locks: every
  // partition of this write set must now be mastered at dest and nowhere
  // else (single-master-per-key, Section III).
  site::CheckMasteredExactlyAt(sites_, partitions, dest, "post-remaster");
#endif
  for (auto it = partitions.rbegin(); it != partitions.rend(); ++it) {
    map_.UnlockExclusive(*it);
  }

  convergence_.OnSlowPathRoute(partitions, masters, dest, slow_start_us,
                               metrics::NowMicros());
  MaybeSample(client, partitions);
  exported_.remaster_txns->Increment();
  exported_.partitions_moved->Increment(moved);
  exported_.routed_to_site[dest]->Increment();

  out->site = dest;
  out->min_begin_version =
      VersionVector::ElementwiseMax(out_vv, client_session);
  out->remastered = true;
  out->partitions_moved = moved;
  return Status::OK();
}

Status SiteSelector::Remaster(const std::vector<PartitionId>& partitions,
                              const std::vector<SiteId>& masters, SiteId dest,
                              VersionVector* out_vv, uint32_t* moved) {
  // Group the partitions to transfer by their current master (Algorithm 1
  // line 2), then run the release->grant chains for the groups in
  // parallel (line 4: "In parallel").
  std::unordered_map<SiteId, std::vector<PartitionId>> groups;
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (masters[i] != dest) groups[masters[i]].push_back(partitions[i]);
  }
  *moved = 0;
  for (const auto& [src, group] : groups) {
    *moved += static_cast<uint32_t>(group.size());
  }

  std::mutex result_mu;
  Status first_error;
  std::vector<std::thread> workers;
  workers.reserve(groups.size());
  const std::string parent = sched::CurrentThreadName();
  for (auto& [src, group] : groups) {
    workers.emplace_back([this, src = src, &group, dest, out_vv, &result_mu,
                          &first_error, &parent] {
      sched::ThreadGuard sched_guard(parent + "/remaster/" +
                                     std::to_string(src));
      // Release RPC to the current master (metadata only).
      if (network_ != nullptr) {
        network_->RoundTrip(net::TrafficClass::kRemastering,
                            kRemasterRequestBytes, kRemasterResponseBytes);
      }
      VersionVector release_vv;
      Status s = sites_[src]->Release(group, dest, &release_vv);
      if (!s.ok()) {
        std::lock_guard<std::mutex> guard(result_mu);
        if (first_error.ok()) first_error = s;
        return;
      }
      // Grant RPC to the destination, immediately after release completes.
      if (network_ != nullptr) {
        network_->RoundTrip(net::TrafficClass::kRemastering,
                            kRemasterRequestBytes, kRemasterResponseBytes);
      }
      VersionVector grant_vv;
      s = sites_[dest]->Grant(group, src, release_vv, &grant_vv);
      std::lock_guard<std::mutex> guard(result_mu);
      if (!s.ok()) {
        if (first_error.ok()) first_error = s;
        return;
      }
      out_vv->MaxWith(grant_vv);  // Algorithm 1 line 9
    });
  }
  {
    sched::ScopedBlocked blocked;
    for (auto& w : workers) w.join();
  }
  return first_error;
}

Status SiteSelector::RouteRead(ClientId client,
                               const VersionVector& client_session,
                               SiteId* out_site) {
  (void)client;
  exported_.routes_read->Increment();
  MutexLock guard(rng_mu_);
  *out_site = PickReadSite(sites_, client_session, rng_);
  return Status::OK();
}

SiteId PickReadSite(std::span<site::SiteManager* const> sites,
                    const VersionVector& session, Random& rng) {
  std::vector<SiteId> fresh;
  SiteId freshest = 0;
  uint64_t freshest_total = 0;
  for (SiteId s = 0; s < sites.size(); ++s) {
    uint64_t total = 0;
    if (sites[s]->FreshnessProbe(session, &total)) fresh.push_back(s);
    if (total >= freshest_total) {
      freshest_total = total;
      freshest = s;
    }
  }
  if (fresh.empty()) return freshest;
  return fresh[rng.Uniform(fresh.size())];
}

}  // namespace dynamast::selector
