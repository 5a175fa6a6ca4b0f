#ifndef DYNAMAST_STORAGE_LOCK_MANAGER_H_
#define DYNAMAST_STORAGE_LOCK_MANAGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/status.h"

namespace dynamast::storage {

/// Identifies a lock holder (a transaction).
using TxnId = uint64_t;

/// Record-granularity write-lock manager. DynaMast "uses locks to mutually
/// exclude writes to records, which is simple and lightweight" and avoids
/// aborts on write-write conflicts (Section V-A1); readers never lock
/// (MVCC snapshot reads).
///
/// The table is striped: each stripe owns a mutex, a condition variable and
/// a map of currently-held locks. Callers acquire multi-key lock sets in
/// globally sorted key order (AcquireAll sorts for you), so transactions
/// whose write sets are known up front cannot deadlock; dynamically
/// acquired locks (fresh-insert keys) are protected by the deadline.
class LockManager {
 public:
  LockManager() = default;

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires the write lock on `key` for `txn`, waiting until `deadline`.
  /// Re-entrant: succeeds immediately if `txn` already holds the lock.
  Status Acquire(const RecordKey& key, TxnId txn,
                 std::chrono::steady_clock::time_point deadline);

  /// Acquires every key in `keys` in sorted order (deduplicated). On
  /// timeout, releases everything it acquired and returns TimedOut.
  Status AcquireAll(std::vector<RecordKey> keys, TxnId txn,
                    std::chrono::steady_clock::time_point deadline);

  /// Releases one lock; no-op if `txn` does not hold it.
  void Release(const RecordKey& key, TxnId txn);

  void ReleaseAll(const std::vector<RecordKey>& keys, TxnId txn);

  /// True iff `txn` currently holds the write lock on `key`.
  bool Holds(const RecordKey& key, TxnId txn) const;

  /// Number of locks currently held across all stripes (diagnostics).
  size_t NumHeldLocks() const;

 private:
  static constexpr size_t kNumStripes = 256;
  struct Stripe {
    // Stripes never nest (Acquire holds one stripe at a time; AcquireAll
    // releases each stripe's mutex before moving to the next key).
    mutable DebugMutex mu{"storage.lock_stripe"};
    DebugCondVar cv;
    std::unordered_map<RecordKey, TxnId, RecordKeyHash> held
        DYNAMAST_GUARDED_BY(mu);
  };
  Stripe& StripeFor(const RecordKey& key) {
    return stripes_[RecordKeyHash()(key) % kNumStripes];
  }
  const Stripe& StripeFor(const RecordKey& key) const {
    return stripes_[RecordKeyHash()(key) % kNumStripes];
  }

  std::array<Stripe, kNumStripes> stripes_;
};

}  // namespace dynamast::storage

#endif  // DYNAMAST_STORAGE_LOCK_MANAGER_H_
