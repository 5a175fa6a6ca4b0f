#include "core/site_txn_context.h"

namespace dynamast::core {

Status SiteTxn::Begin(const TxnProfile& profile,
                      VersionVector min_begin_version) {
  site::TxnOptions options;
  options.write_keys = profile.write_keys;
  options.min_begin_version = std::move(min_begin_version);
  options.read_only = profile.read_only;
  options.client = client_.id;
  options.client_txn = client_.issued_txns;
  trace::Span span(timers_.tracer, "begin", "txn", site_->site_id(),
                   client_.id, timers_.begin);
  span.SetTxn(client_.id, client_.issued_txns);
  return site_->BeginTransaction(options, &txn_);
}

Status SiteTxn::Run(const TxnLogic& logic, TxnContext& context,
                    TxnResult* result) {
  trace::Span exec_span(timers_.tracer, "execute", "txn", site_->site_id(),
                        client_.id, timers_.execute);
  exec_span.SetTxn(client_.id, client_.issued_txns);
  Status s = logic(context);
  // Settle the logic's charged service time inside its own phase rather
  // than at the start of commit (which would settle it anyway).
  site_->SettleCharges();
  exec_span.End();
  if (!s.ok()) {
    site_->Abort(&txn_, s);
    return s;
  }
  VersionVector commit_version;
  trace::Span commit_span(timers_.tracer, "commit", "txn", site_->site_id(),
                          client_.id, timers_.commit);
  commit_span.SetTxn(client_.id, client_.issued_txns);
  s = site_->Commit(&txn_, &commit_version);
  commit_span.End();
  if (!s.ok()) return s;
  client_.session.MaxWith(commit_version);
  result->executed_at = site_->site_id();
  return Status::OK();
}

}  // namespace dynamast::core
