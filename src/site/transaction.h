#ifndef DYNAMAST_SITE_TRANSACTION_H_
#define DYNAMAST_SITE_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/history.h"
#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"
#include "storage/lock_manager.h"

namespace dynamast::site {

class SiteManager;

/// How a transaction is opened at a data site.
struct TxnOptions {
  /// Keys the transaction may write. Write locks are acquired on these at
  /// begin, in sorted order (deadlock-free). Empty for read-only
  /// transactions. Keys inserted during execution need not be listed; the
  /// insert path locks them dynamically.
  std::vector<RecordKey> write_keys;

  /// Minimum begin version: the element-wise max of the client's session
  /// vector (SSSI freshness) and the remastering out_vv from Algorithm 1.
  /// Begin blocks until the site's svv dominates this.
  VersionVector min_begin_version;

  bool read_only = false;

  /// Issuing client session, for history recording (0 = sessionless).
  ClientId client = 0;

  /// Per-client logical transaction number: 2PC branches of one logical
  /// transaction at different sites share it so the history auditor groups
  /// them (see common/history.h).
  uint64_t client_txn = 0;
};

/// A transaction executing at one data site. Created by
/// SiteManager::BeginTransaction; finished with Commit or Abort. Not
/// thread-safe: one transaction belongs to one client thread.
///
/// Reads see the begin snapshot (a version vector) plus the transaction's
/// own staged writes; writes are staged locally and installed atomically
/// at commit — standard MVCC snapshot-isolation behaviour (Section V-A1).
class Transaction {
 public:
  Transaction() = default;

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  Transaction(Transaction&&) = default;
  Transaction& operator=(Transaction&&) = default;

  /// Snapshot read (own writes win). NotFound / SnapshotTooOld as in
  /// StorageEngine::Read.
  Status Get(const RecordKey& key, std::string* value);

  /// Stages an update to a key declared in the write set (or previously
  /// inserted by this transaction). NotMaster / InvalidArgument on misuse.
  Status Put(const RecordKey& key, std::string value);

  /// Stages an insert of a key that may not be in the declared write set;
  /// acquires its lock dynamically. The key must still belong to a
  /// partition the executing site masters.
  Status Insert(const RecordKey& key, std::string value);

  bool active() const { return active_; }
  bool read_only() const { return read_only_; }
  storage::TxnId id() const { return id_; }
  const VersionVector& begin_version() const { return begin_version_; }

  /// Number of read+write operations performed (service-time accounting).
  size_t OpCount() const { return op_count_; }

 private:
  friend class SiteManager;

  SiteManager* site_ = nullptr;
  storage::TxnId id_ = 0;
  bool active_ = false;
  bool read_only_ = false;
  ClientId client_ = 0;
  uint64_t client_txn_ = 0;
  VersionVector begin_version_;
  std::vector<RecordKey> locked_keys_;
  std::vector<PartitionId> write_partitions_;  // active-writer accounting
  // Staged writes in key order; the bool marks inserts.
  std::map<RecordKey, std::pair<std::string, bool>> staged_;
  // Reads and the versions they observed; populated only when the site
  // records history (empty otherwise).
  std::vector<history::ReadObservation> observed_reads_;
  size_t op_count_ = 0;
};

}  // namespace dynamast::site

#endif  // DYNAMAST_SITE_TRANSACTION_H_
