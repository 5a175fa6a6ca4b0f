#include "site/site_manager.h"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "common/invariant_checker.h"
#include "common/scheduler.h"

namespace dynamast::site {

namespace {
// How long an applier blocks on the log before re-checking for shutdown.
constexpr std::chrono::milliseconds kApplierPollInterval{100};
// Max refresh records applied per simulated network delivery (Kafka-style
// consumer batching; see DESIGN.md on propagation-delay modelling).
constexpr size_t kApplierBatchSize = 64;
}  // namespace

SiteManager::SiteManager(const SiteOptions& options,
                         const Partitioner* partitioner,
                         log::LogManager* logs,
                         net::SimulatedNetwork* network,
                         history::Recorder* history,
                         metrics::Registry* metrics,
                         trace::Tracer* tracer)
    : options_(options),
      partitioner_(partitioner),
      logs_(logs),
      network_(network),
      history_(history),
      tracer_(tracer),
      gate_(options.worker_slots),
      clock_(metrics),
      svv_(options.num_sites) {
  metrics = metrics::Registry::OrGlobal(metrics);
  const std::string site = std::to_string(options_.site_id);
  exported_.commits_update = metrics->GetCounter(
      "site_commits_total", {{"site", site}, {"kind", "update"}});
  exported_.commits_readonly = metrics->GetCounter(
      "site_commits_total", {{"site", site}, {"kind", "readonly"}});
  for (size_t c = 0; c < kNumStatusCodes; ++c) {
    exported_.aborts_by_reason[c] = metrics->GetCounter(
        "site_aborts_total",
        {{"site", site},
         {"reason", StatusCodeName(static_cast<Status::Code>(c))}});
  }
  exported_.lock_wait_us =
      metrics->GetHistogram("site_lock_wait_us", {{"site", site}});
  exported_.vv_wait_us =
      metrics->GetHistogram("site_vv_wait_us", {{"site", site}});
  exported_.refresh_applied =
      metrics->GetCounter("site_refresh_applied_total", {{"site", site}});
  exported_.refresh_delay_us =
      metrics->GetHistogram("site_refresh_delay_us", {{"site", site}});
  exported_.releases =
      metrics->GetCounter("site_releases_total", {{"site", site}});
  exported_.grants = metrics->GetCounter("site_grants_total", {{"site", site}});
  exported_.mastership_transitions = metrics->GetCounter(
      "site_mastership_transitions_total", {{"site", site}});
  exported_.pruned_versions =
      metrics->GetCounter("storage_pruned_versions_total", {{"site", site}});
  exported_.version_chain_len =
      metrics->GetHistogram("storage_version_chain_len", {{"site", site}});
  gate_.SetMetrics(
      metrics->GetHistogram("site_admission_wait_us", {{"site", site}}),
      metrics->GetGauge("site_admission_queue_depth", {{"site", site}}));
}

void SiteManager::InstallVersion(const RecordKey& key, SiteId origin,
                                 uint64_t seq, std::string value,
                                 InstallBatch* batch) {
  storage::InstallStats stats;
  const Status s = engine_.Install(key, origin, seq, std::move(value), &stats);
  DYNAMAST_INVARIANT(s.ok(), "version install failed for " + key.ToString() +
                                 ": " + s.ToString());
  (void)s;
  batch->chain_lens.push_back(stats.chain_len);
  if (stats.pruned) ++batch->pruned;
}

void SiteManager::FlushInstallMetrics(const InstallBatch& batch) {
  for (size_t len : batch.chain_lens) {
    exported_.version_chain_len->Observe(static_cast<uint64_t>(len));
  }
  if (batch.pruned > 0) exported_.pruned_versions->Increment(batch.pruned);
}

void SiteManager::CountAbort(const Status& reason) {
  const size_t code = static_cast<size_t>(reason.code());
  if (code < kNumStatusCodes) exported_.aborts_by_reason[code]->Increment();
}

SiteManager::~SiteManager() { Stop(); }

void SiteManager::Start() {
  if (started_) return;
  started_ = true;
  for (SiteId origin = 0; origin < options_.num_sites; ++origin) {
    if (origin == options_.site_id) continue;
    appliers_.emplace_back([this, origin] {
      sched::ThreadGuard sched_guard("site/" +
                                     std::to_string(options_.site_id) +
                                     "/applier/" + std::to_string(origin));
      ApplierLoop(origin);
    });
  }
}

void SiteManager::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Already stopping; just join if needed.
  }
  state_cv_.notify_all();
  sched::ScopedBlocked blocked;
  for (auto& t : appliers_) {
    if (t.joinable()) t.join();
  }
  appliers_.clear();
}

VersionVector SiteManager::CurrentVersion() const {
  MutexLock guard(state_mu_);
  return svv_;
}

bool SiteManager::FreshnessProbe(const VersionVector& session,
                                 uint64_t* total) const {
  MutexLock guard(state_mu_);
  if (total != nullptr) *total = svv_.Total();
  return svv_.DominatesOrEquals(session);
}

Status SiteManager::WaitForVersion(const VersionVector& min,
                                   const TxnOptions* begin) const {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.freshness_timeout;
  // Declared before the lock, so the span ends (and observes) after the
  // lock is released.
  std::optional<trace::Span> span;
  MutexLock lock(state_mu_);
  while (!svv_.DominatesOrEquals(min)) {
    if (stopping_.load(std::memory_order_acquire)) return Status::Unavailable("site stopping");
    if (begin != nullptr && !span) {
      // Strong-session freshness wait: how long this site lagged behind
      // the session's observed frontier (the visible symptom of refresh
      // delay). Only a begin that actually waits is timed.
      span.emplace(tracer_, "vv_wait", "txn", options_.site_id, begin->client,
                   exported_.vv_wait_us);
      span->SetTxn(begin->client, begin->client_txn);
    }
    if (state_cv_.wait_until(state_mu_, deadline) == std::cv_status::timeout &&
        !svv_.DominatesOrEquals(min)) {
      return Status::TimedOut("freshness wait: site at " + svv_.ToString() +
                              " needs " + min.ToString());
    }
  }
  return Status::OK();
}

void SiteManager::ChargeDuration(std::chrono::nanoseconds d) const {
  sim::Charge(d);
  SettleCharges();
}

// ---------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------

Status SiteManager::BeginTransaction(const TxnOptions& opts, Transaction* txn) {
  if (!opts.min_begin_version.empty()) {
    Status s = WaitForVersion(opts.min_begin_version, &opts);
    if (!s.ok()) return s;
  }

  txn->site_ = this;
  txn->id_ = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  txn->read_only_ = opts.read_only;
  txn->client_ = opts.client;
  txn->client_txn_ = opts.client_txn;
  txn->staged_.clear();
  txn->locked_keys_.clear();
  txn->write_partitions_.clear();
  txn->observed_reads_.clear();
  txn->op_count_ = 0;

  if (opts.read_only) {
    MutexLock guard(state_mu_);
    txn->begin_version_ = svv_;
    // Strong-session SI: the begin snapshot must include everything the
    // session has already observed (WaitForVersion blocked until it did,
    // and svv only grows).
    DYNAMAST_INVARIANT(
        txn->begin_version_.DominatesOrEquals(opts.min_begin_version),
        "read snapshot " + txn->begin_version_.ToString() +
            " does not dominate session minimum " +
            opts.min_begin_version.ToString());
    txn->active_ = true;
    return Status::OK();
  }

  // Determine write partitions (deduplicated).
  std::vector<PartitionId> partitions;
  partitions.reserve(opts.write_keys.size());
  for (const RecordKey& key : opts.write_keys) {
    partitions.push_back(partitioner_->PartitionOf(key));
  }
  std::sort(partitions.begin(), partitions.end());
  partitions.erase(std::unique(partitions.begin(), partitions.end()),
                   partitions.end());

  // Admission: mastership check + active-writer registration must be
  // atomic with respect to Release draining this partition.
  {
    MutexLock guard(state_mu_);
    for (PartitionId p : partitions) {
      if (mastered_.find(p) == mastered_.end()) {
        Status s = Status::NotMaster("site " + std::to_string(site_id()) +
                                     " does not master partition " +
                                     std::to_string(p));
        CountAbort(s);
        return s;
      }
    }
    for (PartitionId p : partitions) active_writers_[p]++;
    txn->write_partitions_ = std::move(partitions);
  }

  // Write-write mutual exclusion: lock the declared write set in sorted
  // order (Section V-A1 — blocking locks instead of aborts).
  const auto deadline = std::chrono::steady_clock::now() + options_.lock_timeout;
  Status s;
  {
    trace::Span span(tracer_, "lock_wait", "txn", options_.site_id,
                     opts.client, exported_.lock_wait_us);
    span.SetTxn(opts.client, opts.client_txn);
    s = engine_.lock_manager().AcquireAll(opts.write_keys, txn->id_, deadline);
  }
  if (!s.ok()) {
    MutexLock guard(state_mu_);
    UnregisterWritersLocked(*txn);
    CountAbort(s);
    return s;
  }
  txn->locked_keys_ = opts.write_keys;
  std::sort(txn->locked_keys_.begin(), txn->locked_keys_.end());
  txn->locked_keys_.erase(
      std::unique(txn->locked_keys_.begin(), txn->locked_keys_.end()),
      txn->locked_keys_.end());

  // Begin snapshot is taken after lock acquisition (Appendix A, Case 1:
  // if T1 locks after T2 commits, T2's commit is in T1's begin vector).
  {
    MutexLock guard(state_mu_);
    txn->begin_version_ = svv_;
    DYNAMAST_INVARIANT(
        txn->begin_version_.DominatesOrEquals(opts.min_begin_version),
        "write snapshot " + txn->begin_version_.ToString() +
            " does not dominate begin minimum " +
            opts.min_begin_version.ToString());
  }
  txn->active_ = true;
  return Status::OK();
}

Status SiteManager::TxnGet(Transaction* txn, const RecordKey& key,
                           std::string* value) {
  txn->op_count_++;
  auto it = txn->staged_.find(key);
  if (it != txn->staged_.end()) {
    *value = it->second.first;
    return Status::OK();
  }
  if (history_ == nullptr) {
    return engine_.Read(key, txn->begin_version_, value);
  }
  // History recording: capture which committed version this read observed
  // (the auditor attributes it to the installing transaction).
  storage::VersionStamp stamp;
  Status s = engine_.Read(key, txn->begin_version_, value, &stamp);
  if (s.ok()) {
    txn->observed_reads_.push_back(
        history::ReadObservation{key, stamp.origin, stamp.seq});
  }
  return s;
}

Status SiteManager::TxnPut(Transaction* txn, const RecordKey& key,
                           std::string value, bool is_insert) {
  txn->op_count_++;
  auto staged_it = txn->staged_.find(key);
  const bool already_staged = staged_it != txn->staged_.end();
  if (!already_staged && !engine_.lock_manager().Holds(key, txn->id_)) {
    if (!is_insert) {
      return Status::InvalidArgument("write to undeclared key " +
                                     key.ToString());
    }
    // Dynamic insert: register its partition and lock the key.
    const PartitionId p = partitioner_->PartitionOf(key);
    {
      MutexLock guard(state_mu_);
      if (mastered_.find(p) == mastered_.end()) {
        return Status::NotMaster("insert into unmastered partition " +
                                 std::to_string(p));
      }
      if (std::find(txn->write_partitions_.begin(),
                    txn->write_partitions_.end(),
                    p) == txn->write_partitions_.end()) {
        active_writers_[p]++;
        txn->write_partitions_.push_back(p);
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + options_.lock_timeout;
    Status s = engine_.lock_manager().Acquire(key, txn->id_, deadline);
    if (!s.ok()) return s;
    txn->locked_keys_.push_back(key);
  }
  if (already_staged) {
    staged_it->second.first = std::move(value);
  } else {
    txn->staged_.emplace(key, std::make_pair(std::move(value), is_insert));
  }
  return Status::OK();
}

history::HistoryEvent SiteManager::MakeTxnEvent(
    const Transaction& txn, history::EventKind kind) const {
  history::HistoryEvent event;
  event.kind = kind;
  event.site = site_id();
  event.client = txn.client_;
  event.client_txn = txn.client_txn_;
  event.read_only = txn.read_only_;
  event.begin = txn.begin_version_;
  event.reads = txn.observed_reads_;
  event.writes.reserve(txn.staged_.size());
  for (const auto& [key, staged] : txn.staged_) {
    event.writes.push_back(
        history::WriteObservation{key, partitioner_->PartitionOf(key)});
  }
  return event;
}

Status SiteManager::Commit(Transaction* txn, VersionVector* commit_version) {
  if (!txn->active_) return Status::InvalidArgument("transaction not active");
  // The transaction's charged work finishes before its effects publish.
  SettleCharges();
  txn->active_ = false;

  if (txn->read_only_ || txn->staged_.empty()) {
    // Nothing to install; release any locks and unregister.
    engine_.lock_manager().ReleaseAll(txn->locked_keys_, txn->id_);
    if (!txn->write_partitions_.empty()) {
      MutexLock guard(state_mu_);
      UnregisterWritersLocked(*txn);
    }
    *commit_version = txn->begin_version_;
    if (history_ != nullptr) {
      history::HistoryEvent event =
          MakeTxnEvent(*txn, history::EventKind::kCommit);
      event.commit = *commit_version;
      history_->Record(std::move(event));
    }
    exported_.commits_readonly->Increment();
    return Status::OK();
  }

  log::LogRecord record;
  record.type = log::LogRecord::Type::kUpdate;
  record.origin = site_id();
  record.writes.reserve(txn->staged_.size());
  for (auto& [key, staged] : txn->staged_) {
    record.writes.push_back(
        log::WriteEntry{key, std::move(staged.first), staged.second});
  }

  // History-event construction copies the read/write sets (allocating);
  // only the commit vector and sequence — unknown until the lock is held —
  // are filled in inside the critical section.
  history::HistoryEvent event;
  if (history_ != nullptr) {
    event = MakeTxnEvent(*txn, history::EventKind::kCommit);
  }
  InstallBatch installs;
  installs.chain_lens.reserve(record.writes.size());

  {
    MutexLock guard(state_mu_);
    const uint64_t seq = svv_[site_id()] + 1;
    // Commit timestamp: begin vector with this site's slot set to the new
    // local sequence number (Section III-A).
    VersionVector tvv = txn->begin_version_;
    tvv[site_id()] = seq;
    // svv monotonicity: local commits advance this site's slot by exactly
    // one, and the commit timestamp dominates the begin snapshot.
    DYNAMAST_INVARIANT(tvv.DominatesOrEquals(txn->begin_version_),
                       "commit timestamp " + tvv.ToString() +
                           " regressed below begin snapshot " +
                           txn->begin_version_.ToString());
    record.tvv = tvv;
    // Serialize before installation: the install loop below consumes the
    // write values by move, so the propagation payload must be captured
    // first. The append timestamp rides along so appliers can measure
    // end-to-end refresh delay (the measured input to Eq. 4/5).
    record.append_ts_us = metrics::NowMicros();
    std::string payload = record.Serialize();
    // Install versions before publishing the new svv so no concurrent
    // snapshot can observe seq without the versions being readable. The
    // record is dead after serialization, so each value moves into the
    // version store instead of copying.
    for (log::WriteEntry& w : record.writes) {
      InstallVersion(w.key, site_id(), seq, std::move(w.value), &installs);
    }
    // Append to the redo/propagation log inside the critical section so
    // topic order equals commit order (appliers rely on it).
    logs_->TopicFor(site_id())->Append(std::move(payload));
    svv_[site_id()] = seq;
    UnregisterWritersLocked(*txn);
    *commit_version = tvv;
    if (history_ != nullptr) {
      // Record inside the critical section so the recorder's global order
      // is consistent with this site's commit order (and with any release
      // marker that drains this partition).
      event.commit = tvv;
      event.installed_seq = seq;
      history_->Record(std::move(event));
    }
  }

  FlushInstallMetrics(installs);
  engine_.lock_manager().ReleaseAll(txn->locked_keys_, txn->id_);
  exported_.commits_update->Increment();
  return Status::OK();
}

void SiteManager::Abort(Transaction* txn, const Status& reason) {
  if (!txn->active_) return;
  SettleCharges();
  txn->active_ = false;
  if (history_ != nullptr) {
    history_->Record(MakeTxnEvent(*txn, history::EventKind::kAbort));
  }
  txn->staged_.clear();
  engine_.lock_manager().ReleaseAll(txn->locked_keys_, txn->id_);
  if (!txn->write_partitions_.empty()) {
    MutexLock guard(state_mu_);
    UnregisterWritersLocked(*txn);
  }
  CountAbort(reason);
}

void SiteManager::UnregisterWritersLocked(const Transaction& txn) {
  for (PartitionId p : txn.write_partitions_) {
    auto it = active_writers_.find(p);
    if (it != active_writers_.end() && --it->second == 0) {
      active_writers_.erase(it);
    }
  }
  state_cv_.notify_all();
}

// ---------------------------------------------------------------------
// Mastership: release / grant
// ---------------------------------------------------------------------

void SiteManager::SetMasterOf(PartitionId partition, bool is_master) {
  MutexLock guard(state_mu_);
  if (is_master) {
    mastered_.insert(partition);
  } else {
    mastered_.erase(partition);
  }
}

bool SiteManager::IsMasterOf(PartitionId partition) const {
  MutexLock guard(state_mu_);
  return mastered_.find(partition) != mastered_.end();
}

std::vector<PartitionId> SiteManager::MasteredPartitions() const {
  MutexLock guard(state_mu_);
  return std::vector<PartitionId>(mastered_.begin(), mastered_.end());
}

VersionVector SiteManager::AppendMarkerLocked(
    log::LogRecord::Type type, const std::vector<PartitionId>& partitions,
    SiteId peer) {
  const uint64_t seq = svv_[site_id()] + 1;
  log::LogRecord record;
  record.type = type;
  record.origin = site_id();
  record.tvv = svv_;
  record.tvv[site_id()] = seq;
  record.partitions = partitions;
  record.transfer_peer = peer;
  record.append_ts_us = metrics::NowMicros();
  logs_->TopicFor(site_id())->Append(record.Serialize());
  svv_[site_id()] = seq;
  state_cv_.notify_all();
  return svv_;
}

Status SiteManager::Release(const std::vector<PartitionId>& partitions,
                            SiteId to_site, VersionVector* release_version) {
  trace::Span span(tracer_, "release", "remaster", options_.site_id, to_site);
  span.AddNum("partitions", static_cast<double>(partitions.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + options_.freshness_timeout;
  {
    MutexLock lock(state_mu_);
    for (PartitionId p : partitions) {
      if (mastered_.find(p) == mastered_.end()) {
        return Status::NotMaster("release of unmastered partition " +
                                 std::to_string(p));
      }
    }
    // Stop admitting new write transactions on these partitions, then wait
    // for in-flight writers to drain ("waits for any ongoing transactions
    // writing the data to finish", Section III-B).
    for (PartitionId p : partitions) mastered_.erase(p);
    auto drained = [&] {
      for (PartitionId p : partitions) {
        if (active_writers_.count(p) > 0) return false;
      }
      return true;
    };
    while (!drained()) {
      if (stopping_.load(std::memory_order_acquire)) {
        for (PartitionId p : partitions) mastered_.insert(p);
        return Status::Unavailable("site stopping");
      }
      if (state_cv_.wait_until(state_mu_, deadline) ==
              std::cv_status::timeout &&
          !drained()) {
        for (PartitionId p : partitions) mastered_.insert(p);
        return Status::TimedOut("release drain");
      }
    }
    *release_version =
        AppendMarkerLocked(log::LogRecord::Type::kRelease, partitions, to_site);
    if (history_ != nullptr) {
      history::HistoryEvent event;
      event.kind = history::EventKind::kRelease;
      event.site = site_id();
      event.commit = *release_version;
      event.installed_seq = (*release_version)[site_id()];
      event.partitions = partitions;
      event.peer = to_site;
      history_->Record(std::move(event));
    }
  }
  exported_.releases->Increment();
  return Status::OK();
}

Status SiteManager::Grant(const std::vector<PartitionId>& partitions,
                          SiteId from_site,
                          const VersionVector& release_version,
                          VersionVector* grant_version) {
  trace::Span span(tracer_, "grant", "remaster", options_.site_id, from_site);
  span.AddNum("partitions", static_cast<double>(partitions.size()));
#if defined(DYNAMAST_BREAK_SI) && DYNAMAST_BREAK_SI
  // Deliberately broken build (validates tools/si_checker): take
  // mastership without waiting for the released site's updates to be
  // applied here. The first writer on the new master can then begin below
  // the release point — exactly the remastering-window anomaly the
  // auditor's grant check detects.
#else
  // Wait until every update up to the point of release has been applied
  // here, so the first transaction on the new master sees all prior writes
  // to the remastered items.
  Status s = WaitForVersion(release_version);
  if (!s.ok()) return s;
#endif
  {
    MutexLock guard(state_mu_);
    *grant_version =
        AppendMarkerLocked(log::LogRecord::Type::kGrant, partitions, from_site);
#if !defined(DYNAMAST_BREAK_SI) || !DYNAMAST_BREAK_SI
    // The grant point must include every update committed before the
    // release, so the first transaction on the new master reads them all.
    DYNAMAST_INVARIANT(grant_version->DominatesOrEquals(release_version),
                       "grant vector " + grant_version->ToString() +
                           " does not dominate release vector " +
                           release_version.ToString());
#endif
    if (history_ != nullptr) {
      history::HistoryEvent event;
      event.kind = history::EventKind::kGrant;
      event.site = site_id();
      event.commit = *grant_version;
      event.installed_seq = (*grant_version)[site_id()];
      event.partitions = partitions;
      event.peer = from_site;
      event.release_version = release_version;
      history_->Record(std::move(event));
    }
    for (PartitionId p : partitions) mastered_.insert(p);
  }
  exported_.grants->Increment();
  // Each granted partition is one mastership transition (the convergence
  // tracker's per-partition unit; si_checker reconciles this against the
  // history's grant events).
  exported_.mastership_transitions->Increment(partitions.size());
  return Status::OK();
}

// ---------------------------------------------------------------------
// Refresh application (Eq. 1)
// ---------------------------------------------------------------------

bool SiteManager::ApplyRefreshRecord(log::LogRecord record) {
  const SiteId origin = record.origin;
  const uint64_t seq = record.tvv[origin];
  // Span covers the Eq. 1 dependency wait plus version installation; tid
  // is the origin site so one applier lane shows per origin in the viewer.
  trace::Span span(tracer_, "replicate", "replication", options_.site_id,
                   origin);
  span.AddNum("seq", static_cast<double>(seq));
  span.AddNum("writes", static_cast<double>(record.writes.size()));
  InstallBatch installs;
  installs.chain_lens.reserve(record.writes.size());
  {
    MutexLock lock(state_mu_);
    // Update application rule, Eq. 1: all cross-origin dependencies applied
    // and this record is the next in the origin's commit order.
    auto applicable = [&] {
      if (svv_[origin] != seq - 1) return false;
      for (size_t k = 0; k < record.tvv.size(); ++k) {
        if (k == origin) continue;
        if (svv_[k] < record.tvv[k]) return false;
      }
      return true;
    };
    while (!applicable()) {
      if (stopping_.load(std::memory_order_acquire)) return false;
      state_cv_.wait_for(state_mu_, kApplierPollInterval);
    }
    // Update application rule (Eq. 1): the record is the next in its
    // origin's commit order and all its cross-origin dependencies are
    // already applied, so the svv advances monotonically (one step in the
    // origin slot, no other slot moves).
    DYNAMAST_INVARIANT(record.tvv.size() == svv_.size(),
                       "refresh tvv " + record.tvv.ToString() +
                           " has wrong dimension for svv " + svv_.ToString());
    DYNAMAST_INVARIANT(svv_[origin] + 1 == seq,
                       "refresh from origin " + std::to_string(origin) +
                           " seq " + std::to_string(seq) +
                           " is not dense after svv " + svv_.ToString());
    for (log::WriteEntry& w : record.writes) {
      InstallVersion(w.key, origin, seq, std::move(w.value), &installs);
    }
    // Markers carry no writes; applying them just advances the origin slot,
    // preserving the dense per-origin sequence. The applied count moves
    // first (a lock-free counter), so whoever observes the new svv also
    // observes the count.
    exported_.refresh_applied->Increment();
    svv_[origin] = seq;
    state_cv_.notify_all();
  }
  // Histogram emission happens after svv publication: the refresh is
  // already visible to waiters, and the histogram leaf locks stay out of
  // the applier's critical section.
  FlushInstallMetrics(installs);
  if (record.append_ts_us > 0) {
    // End-to-end refresh delay: origin append to local visibility. Both
    // ends use the shared process clock (metrics::NowMicros), so the
    // difference is exact; clamp anyway in case of sub-microsecond skew.
    const uint64_t now = metrics::NowMicros();
    exported_.refresh_delay_us->Observe(
        now > record.append_ts_us ? now - record.append_ts_us : 0);
  }
  return true;
}

void SiteManager::ApplierLoop(SiteId origin) {
  log::LogCursor cursor(logs_->TopicFor(origin));
  std::vector<log::LogRecord> batch;
  std::string raw;
  while (!stopping_.load(std::memory_order_acquire)) {
    batch.clear();
    size_t batch_bytes = 0;
    // One blocking read, then drain whatever else is available (consumer
    // batching: one simulated network delivery covers the batch).
    Status s = cursor.Next(&raw, std::chrono::steady_clock::now() +
                                     kApplierPollInterval);
    if (s.IsTimedOut()) continue;
    if (!s.ok()) return;  // log closed
    log::LogRecord record;
    if (!log::LogRecord::Deserialize(raw, &record).ok()) return;
    batch_bytes += raw.size();
    batch.push_back(std::move(record));
    while (batch.size() < kApplierBatchSize && cursor.TryNext(&raw).ok()) {
      log::LogRecord next;
      if (!log::LogRecord::Deserialize(raw, &next).ok()) return;
      batch_bytes += raw.size();
      batch.push_back(std::move(next));
    }
    // Refresh application consumes site resources: the batch's apply cost
    // (replica-maintenance overhead; unreplicated systems like LEAP skip
    // this entirely) is settled together with its network delivery, one
    // sleep before installing.
    size_t applied_writes = 0;
    for (const log::LogRecord& r : batch) applied_writes += r.writes.size();
    sim::Charge(options_.apply_op_cost * applied_writes);
    if (network_ != nullptr) {
      network_->Send(net::TrafficClass::kPropagation, batch_bytes);
    } else {
      SettleCharges();
    }
    for (log::LogRecord& r : batch) {
      if (!ApplyRefreshRecord(std::move(r))) return;
    }
  }
}

// ---------------------------------------------------------------------
// Loading & recovery
// ---------------------------------------------------------------------

Status SiteManager::CreateTable(TableId id) { return engine_.CreateTable(id); }

Status SiteManager::LoadRecord(const RecordKey& key, std::string value) {
  // Initial data is stamped (origin 0, seq 0): visible to every snapshot.
  return engine_.Install(key, 0, 0, std::move(value));
}

Status SiteManager::RecoverFromLogs(
    const std::unordered_map<PartitionId, SiteId>& initial_masters,
    std::unordered_map<PartitionId, SiteId>* recovered_masters) {
  *recovered_masters = initial_masters;
  // Recovery is single-threaded by contract ("call on a stopped site"),
  // so install-metric accumulation can grow without a pre-reserved bound.
  InstallBatch installs;
  // The replay mutates svv_ and mastered_, so hold state_mu_ throughout —
  // the guarded fields must only be touched under their capability.
  // Nesting under the log/storage locks matches Commit.
  {
    MutexLock lock(state_mu_);
    std::vector<uint64_t> offsets(options_.num_sites, 0);
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (SiteId origin = 0; origin < options_.num_sites; ++origin) {
        std::string raw;
        while (logs_->TopicFor(origin)->TryRead(offsets[origin], &raw).ok()) {
          log::LogRecord record;
          Status s = log::LogRecord::Deserialize(raw, &record);
          if (!s.ok()) return s;
          // Non-blocking Eq. 1 check against the reconstructed svv.
          bool applicable = svv_[origin] == record.tvv[origin] - 1;
          for (size_t k = 0; applicable && k < record.tvv.size(); ++k) {
            if (k != origin && svv_[k] < record.tvv[k]) applicable = false;
          }
          if (!applicable) break;  // revisit this origin next round
          for (const log::WriteEntry& w : record.writes) {
            InstallVersion(w.key, origin, record.tvv[origin], w.value,
                           &installs);
          }
          if (record.type == log::LogRecord::Type::kRelease) {
            // A release marker names its intended recipient, so mastership
            // is assigned to the peer immediately: if the crash hit between
            // the release and the grant, every recovering site still
            // converges on exactly one master (the recipient) instead of
            // leaving the partition masterless. A following grant marker
            // (the common case) re-asserts the same owner.
            for (PartitionId p : record.partitions) {
              auto it = recovered_masters->find(p);
              if (it != recovered_masters->end() && it->second == origin) {
                it->second = record.transfer_peer;
              }
            }
          } else if (record.type == log::LogRecord::Type::kGrant) {
            for (PartitionId p : record.partitions) {
              (*recovered_masters)[p] = origin;
            }
          }
          svv_[origin] = record.tvv[origin];
          offsets[origin]++;
          progressed = true;
        }
      }
    }
    // Adopt the mastership this site is entitled to.
    mastered_.clear();
    for (const auto& [p, owner] : *recovered_masters) {
      if (owner == site_id()) mastered_.insert(p);
    }
  }
  FlushInstallMetrics(installs);
  return Status::OK();
}

}  // namespace dynamast::site
