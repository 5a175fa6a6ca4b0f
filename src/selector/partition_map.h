#ifndef DYNAMAST_SELECTOR_PARTITION_MAP_H_
#define DYNAMAST_SELECTOR_PARTITION_MAP_H_

#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"

namespace dynamast::selector {

/// PartitionMap is the site selector's record of where the master copy of
/// every partition lives (Section V-B: "for each partition group, DynaMast
/// stores partition information that contains the current master location
/// and a readers-writer lock").
///
/// Routing takes each touched partition's lock in shared mode; remastering
/// upgrades to exclusive mode (by re-acquiring in sorted order, which keeps
/// lock acquisition deadlock-free) so a partition cannot be concurrently
/// remastered by two transactions.
class PartitionMap {
 public:
  /// Every partition starts mastered at site 0.
  explicit PartitionMap(size_t num_partitions) : entries_(num_partitions) {
    for (PartitionId p = 0; p < entries_.size(); ++p) {
      // Partition locks nest (routing holds its whole write set's locks)
      // but only in ascending partition order; the rank lets the debug
      // checker enforce exactly that protocol.
      entries_[p].mu.set_rank(p);
    }
  }

  PartitionMap(const PartitionMap&) = delete;
  PartitionMap& operator=(const PartitionMap&) = delete;

  size_t NumPartitions() const { return entries_.size(); }

  /// Master lookup/update; the caller must hold partition `p`'s lock (via
  /// LockShared / LockExclusive below).
  SiteId MasterOf(PartitionId p) const
      DYNAMAST_REQUIRES_SHARED(entries_[p].mu) {
    return entries_[p].master;
  }
  void SetMaster(PartitionId p, SiteId site)
      DYNAMAST_REQUIRES(entries_[p].mu) {
    entries_[p].master = site;
  }

  /// Locked single-partition lookup, for diagnostics and read paths that
  /// tolerate immediate staleness.
  SiteId MasterOfLocked(PartitionId p) const {
    const Entry& e = entries_[p];
    ReaderMutexLock lock(e.mu);
    return e.master;
  }

  void LockShared(PartitionId p) const
      DYNAMAST_ACQUIRE_SHARED(entries_[p].mu) {
    entries_[p].mu.lock_shared();
  }
  void UnlockShared(PartitionId p) const
      DYNAMAST_RELEASE_SHARED(entries_[p].mu) {
    entries_[p].mu.unlock_shared();
  }
  void LockExclusive(PartitionId p) const DYNAMAST_ACQUIRE(entries_[p].mu) {
    entries_[p].mu.lock();
  }
  void UnlockExclusive(PartitionId p) const DYNAMAST_RELEASE(entries_[p].mu) {
    entries_[p].mu.unlock();
  }

  /// Number of partitions currently mastered at each site (diagnostics /
  /// experiments). Takes shared locks partition by partition.
  std::vector<size_t> MasterCounts(uint32_t num_sites) const;

 private:
  struct Entry {
    mutable DebugSharedMutex mu{"selector.partition"};
    SiteId master DYNAMAST_GUARDED_BY(mu) = 0;
  };
  // Fixed at construction; Entry is neither movable nor copyable.
  mutable std::vector<Entry> entries_;
};

}  // namespace dynamast::selector

#endif  // DYNAMAST_SELECTOR_PARTITION_MAP_H_
