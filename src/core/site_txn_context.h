#ifndef DYNAMAST_CORE_SITE_TXN_CONTEXT_H_
#define DYNAMAST_CORE_SITE_TXN_CONTEXT_H_

#include <string>

#include "common/sim_clock.h"
#include "core/cluster.h"
#include "core/system_interface.h"
#include "site/site_manager.h"
#include "site/transaction.h"

namespace dynamast::core {

/// TxnContext over a single-site transaction: every operation executes
/// locally, charging the site's simulated service time. Used by every
/// system for its local (one-site) executions.
///
/// Operations only sim::Charge() their cost. Reads are snapshot reads and
/// writes are staged, so nothing outside the transaction can tell when the
/// work happened; the debt is slept off in one sleep at the end of the
/// execute phase (SiteTxn::Run).
class SiteTxnContext final : public TxnContext {
 public:
  SiteTxnContext(site::SiteManager* site, site::Transaction* txn)
      : site_(site), txn_(txn) {}

  Status Get(const RecordKey& key, std::string* value) override {
    sim::Charge(site_->options().read_op_cost);
    return txn_->Get(key, value);
  }

  Status Put(const RecordKey& key, std::string value) override {
    sim::Charge(site_->options().write_op_cost);
    return txn_->Put(key, std::move(value));
  }

  Status Insert(const RecordKey& key, std::string value) override {
    sim::Charge(site_->options().write_op_cost);
    return txn_->Insert(key, std::move(value));
  }

 private:
  site::SiteManager* site_;
  site::Transaction* txn_;
};

/// A client transaction at one data site: the begin → logic → commit →
/// session-merge path every system shares (Section VI-A1: every design
/// runs on the same site manager, MVCC and isolation level). Routing,
/// admission and retries stay with the caller; a failed Begin or Run
/// leaves the client's session untouched.
///
/// The two steps are separate so a caller can act between them (LEAP
/// releases its ownership locks once the site has registered the
/// transaction) and run the logic in its own context over txn().
class SiteTxn {
 public:
  /// `site` and `client` must outlive the transaction. Write transactions
  /// pass Cluster::write_phases(); read-only ones pass no timers.
  SiteTxn(site::SiteManager* site, ClientState& client,
          const TxnPhaseTimers& timers = {})
      : site_(site), client_(client), timers_(timers) {}

  /// Opens the transaction for the profile's write keys (or read-only), at
  /// a snapshot dominating `min_begin_version`: the begin phase.
  Status Begin(const TxnProfile& profile, VersionVector min_begin_version);

  /// Runs `logic` in `context` and settles its charged service time (the
  /// execute phase), then aborts with the logic's status or commits (the
  /// commit phase). On commit, merges the commit vector into the client's
  /// session and records the site in `result->executed_at`.
  Status Run(const TxnLogic& logic, TxnContext& context, TxnResult* result);

  /// Run in a plain SiteTxnContext.
  Status Run(const TxnLogic& logic, TxnResult* result) {
    SiteTxnContext context(site_, &txn_);
    return Run(logic, context, result);
  }

  site::Transaction* txn() { return &txn_; }

 private:
  site::SiteManager* site_;
  ClientState& client_;
  TxnPhaseTimers timers_;
  site::Transaction txn_;
};

/// Restricts a session vector to site `s`'s own index. Without replication
/// no refresh transaction ever advances the other indexes, so cross-site
/// session freshness is meaningless: unreplicated systems enforce
/// per-site sessions only.
inline VersionVector MaskToIndex(const VersionVector& v, SiteId s) {
  VersionVector out(v.size());
  if (s < v.size()) out[s] = v[s];
  return out;
}

}  // namespace dynamast::core

#endif  // DYNAMAST_CORE_SITE_TXN_CONTEXT_H_
