#ifndef DYNAMAST_STORAGE_RECORD_H_
#define DYNAMAST_STORAGE_RECORD_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"

namespace dynamast::storage {

/// A single committed version of a record. Versions are stamped with the
/// (origin site, per-origin commit sequence number) of the transaction that
/// created them — exactly the information a snapshot (a version vector)
/// needs for the visibility test: a version is visible to begin vector `b`
/// iff seq <= b[origin].
///
/// This is sound because (a) a site installs versions from each origin in
/// commit order (the replication manager's FIFO), and (b) the update
/// application rule (Eq. 1) guarantees that when b[origin] >= seq, every
/// update the writing transaction depended on has also been installed.
struct RecordVersion {
  SiteId origin = 0;
  uint64_t seq = 0;
  std::string value;
};

/// The (origin, seq) stamp of a version a read observed, reported to the
/// caller for history recording (tools/si_checker attributes every read to
/// the commit that installed the version). (0, 0) is the loader-installed
/// base version.
struct VersionStamp {
  SiteId origin = 0;
  uint64_t seq = 0;
};

/// Outcome of one version install, reported up through Table and
/// StorageEngine so the site can feed the storage metrics
/// (storage_version_chain_len, storage_pruned_versions_total) without a
/// second pass over the chain.
struct InstallStats {
  size_t chain_len = 0;  // retained versions after the install
  bool pruned = false;   // an old version was evicted by this install
};

/// VersionedRecord is one row's multi-version chain (Section V-A1: the
/// database stores multiple versions of every record — four by default).
/// The chain is kept in site-local install order, which for a single record
/// equals the global write order (writes to a record are totally ordered by
/// single mastership + write locks). It lives inline in a fixed ring, so a
/// record is one allocation however many versions it has seen.
class VersionedRecord {
 public:
  /// Ring size: the paper's default of four retained versions.
  static constexpr size_t kMaxVersions = 4;

  /// `max_versions` is the retained-version capacity, 1..kMaxVersions; any
  /// other value is a programming error and aborts.
  explicit VersionedRecord(size_t max_versions);

  VersionedRecord(const VersionedRecord&) = delete;
  VersionedRecord& operator=(const VersionedRecord&) = delete;

  /// Appends a new version (newest end), pruning the oldest retained
  /// version if the chain is at capacity. `stats` (when non-null)
  /// receives the post-install chain length and whether a prune happened.
  void Install(SiteId origin, uint64_t seq, std::string value,
               InstallStats* stats = nullptr) DYNAMAST_EXCLUDES(mu_);

  /// Reads the newest version visible to `snapshot`. Returns:
  ///  * OK and the value when a visible version exists;
  ///  * NotFound when the record was created entirely after the snapshot
  ///    (nothing pruned, nothing visible);
  ///  * SnapshotTooOld when versions the snapshot could see were pruned.
  /// On OK, `observed` (when non-null) receives the stamp of the version
  /// returned.
  Status ReadAtSnapshot(const VersionVector& snapshot, std::string* out,
                        VersionStamp* observed = nullptr) const
      DYNAMAST_EXCLUDES(mu_);

  /// Reads the newest version unconditionally (loader / debugging).
  Status ReadLatest(std::string* out) const DYNAMAST_EXCLUDES(mu_);

  size_t NumVersions() const DYNAMAST_EXCLUDES(mu_);
  uint64_t PrunedCount() const DYNAMAST_EXCLUDES(mu_);

 private:
  // The ring slot of the i-th retained version (0 = oldest), i <= capacity_.
  size_t SlotOf(size_t i) const DYNAMAST_REQUIRES(mu_) {
    const size_t slot = head_ + i;
    return slot < capacity_ ? slot : slot - capacity_;
  }

  // Leaf lock: held only around version-chain reads/appends, never while
  // acquiring any other lock.
  mutable DebugMutex mu_{"storage.record"};
  // Slots [0, capacity_) hold the chain; the oldest is at head_.
  std::array<RecordVersion, kMaxVersions> ring_ DYNAMAST_GUARDED_BY(mu_);
  uint8_t head_ DYNAMAST_GUARDED_BY(mu_) = 0;
  uint8_t count_ DYNAMAST_GUARDED_BY(mu_) = 0;
  const uint8_t capacity_;
  uint64_t pruned_ DYNAMAST_GUARDED_BY(mu_) = 0;
};

}  // namespace dynamast::storage

#endif  // DYNAMAST_STORAGE_RECORD_H_
