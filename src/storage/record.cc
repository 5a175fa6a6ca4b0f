#include "storage/record.h"

#include "common/invariant_checker.h"

namespace dynamast::storage {

VersionedRecord::VersionedRecord(size_t max_versions)
    : capacity_(static_cast<uint8_t>(max_versions)) {
  if (max_versions == 0 || max_versions > kMaxVersions) {
    invariants::Failure(__FILE__, __LINE__,
                        "0 < max_versions <= kMaxVersions",
                        "record capacity " + std::to_string(max_versions));
  }
}

void VersionedRecord::Install(SiteId origin, uint64_t seq, std::string value,
                              InstallStats* stats) {
  MutexLock lock(mu_);
  const bool pruned = count_ == capacity_;
  // Past the newest: a free slot, or the oldest version's when full.
  RecordVersion& slot = ring_[SlotOf(count_)];
  slot.origin = origin;
  slot.seq = seq;
  slot.value = std::move(value);
  if (pruned) {
    head_ = static_cast<uint8_t>(SlotOf(1));
    ++pruned_;
  } else {
    ++count_;
  }
  if (stats != nullptr) {
    stats->chain_len = count_;
    stats->pruned = pruned;
  }
}

Status VersionedRecord::ReadAtSnapshot(const VersionVector& snapshot,
                                       std::string* out,
                                       VersionStamp* observed) const {
  MutexLock lock(mu_);
  for (size_t i = count_; i-- > 0;) {
    const RecordVersion& version = ring_[SlotOf(i)];
    const uint64_t visible_up_to =
        version.origin < snapshot.size() ? snapshot[version.origin] : 0;
    if (version.seq <= visible_up_to) {
      *out = version.value;
      if (observed != nullptr) {
        *observed = VersionStamp{version.origin, version.seq};
      }
      return Status::OK();
    }
  }
  if (pruned_ > 0) {
    return Status::SnapshotTooOld("all retained versions newer than snapshot");
  }
  return Status::NotFound("record created after snapshot");
}

Status VersionedRecord::ReadLatest(std::string* out) const {
  MutexLock lock(mu_);
  if (count_ == 0) return Status::NotFound("no versions");
  *out = ring_[SlotOf(count_ - 1)].value;
  return Status::OK();
}

size_t VersionedRecord::NumVersions() const {
  MutexLock lock(mu_);
  return count_;
}

uint64_t VersionedRecord::PrunedCount() const {
  MutexLock lock(mu_);
  return pruned_;
}

}  // namespace dynamast::storage
