#ifndef DYNAMAST_STORAGE_TABLE_H_
#define DYNAMAST_STORAGE_TABLE_H_

#include <array>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"
#include "storage/record.h"

namespace dynamast::storage {

/// A row-oriented in-memory table indexed by primary key (Section V-A1:
/// "records belonging to each relation in a row-oriented in-memory table
/// using the primary key of each record as an index").
///
/// The hash index is sharded; each shard is guarded by a shared_mutex so
/// lookups scale while inserts take a brief exclusive lock. A shard's index
/// is a flat open-addressing array of (row, record) slots; each record is
/// one heap allocation whose address never changes once inserted (growing
/// the index moves only the slots), so readers can drop the index lock
/// before touching the version chain. Rows are never erased.
class Table {
 public:
  Table(TableId id, size_t max_versions_per_record)
      : id_(id), max_versions_(max_versions_per_record) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }

  /// Installs a new version for `row`, creating the record if absent.
  /// `stats` (when non-null) receives the install outcome for metrics.
  void Install(uint64_t row, SiteId origin, uint64_t seq, std::string value,
               InstallStats* stats = nullptr);

  /// Snapshot read; see VersionedRecord::ReadAtSnapshot for semantics.
  /// NotFound if the row does not exist at all.
  Status Read(uint64_t row, const VersionVector& snapshot, std::string* out,
              VersionStamp* observed = nullptr) const;

  /// Latest-version read (loader / recovery verification).
  Status ReadLatest(uint64_t row, std::string* out) const;

  bool Contains(uint64_t row) const;
  size_t NumRows() const;

 private:
  static constexpr int kShardBits = 6;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;

  struct Slot {
    uint64_t row = 0;
    std::unique_ptr<VersionedRecord> record;  // null: the slot is empty
  };

  struct Shard {
    // Shards never nest: every operation touches exactly one shard at a
    // time (NumRows counts shard by shard).
    mutable DebugSharedMutex mu{"storage.table_shard"};
    // The *index* is guarded; records are not, and never move. Linear
    // probing over a power-of-two array that is at most half full, so
    // every probe run ends at an empty slot.
    std::vector<Slot> slots DYNAMAST_GUARDED_BY(mu);
    size_t num_rows DYNAMAST_GUARDED_BY(mu) = 0;

    VersionedRecord* Find(uint64_t row) const DYNAMAST_REQUIRES_SHARED(mu);
    // Returns the row's record, creating it if absent.
    VersionedRecord* FindOrInsert(uint64_t row, size_t max_versions)
        DYNAMAST_REQUIRES(mu);

   private:
    // The slot holding `row`, else the empty slot that ends its probe run.
    size_t Probe(uint64_t row) const DYNAMAST_REQUIRES_SHARED(mu);
    void Grow() DYNAMAST_REQUIRES(mu);
  };

  static uint64_t Hash(uint64_t row) { return row * 0x9e3779b97f4a7c15ULL; }
  Shard& ShardFor(uint64_t row) { return shards_[ShardIndex(row)]; }
  const Shard& ShardFor(uint64_t row) const { return shards_[ShardIndex(row)]; }
  static size_t ShardIndex(uint64_t row) {
    return static_cast<size_t>(Hash(row) >> (64 - kShardBits));
  }

  const VersionedRecord* Find(uint64_t row) const;

  TableId id_;
  size_t max_versions_;
  std::array<Shard, kNumShards> shards_;
};

}  // namespace dynamast::storage

#endif  // DYNAMAST_STORAGE_TABLE_H_
