#ifndef DYNAMAST_CORE_SITE_TXN_CONTEXT_H_
#define DYNAMAST_CORE_SITE_TXN_CONTEXT_H_

#include <string>

#include "common/sim_clock.h"
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
/// work happened; the debt is slept off in one sleep when the site commits
/// or aborts the transaction (SiteManager::SettleCharges).
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

}  // namespace dynamast::core

#endif  // DYNAMAST_CORE_SITE_TXN_CONTEXT_H_
