#include "storage/table.h"

namespace dynamast::storage {

void Table::Install(uint64_t row, SiteId origin, uint64_t seq,
                    std::string value, InstallStats* stats) {
  Shard& shard = ShardFor(row);
  VersionedRecord* record = nullptr;
  {
    ReaderMutexLock read_lock(shard.mu);
    auto it = shard.rows.find(row);
    if (it != shard.rows.end()) record = it->second.get();
  }
  if (record == nullptr) {
    WriterMutexLock write_lock(shard.mu);
    auto& slot = shard.rows[row];
    if (!slot) slot = std::make_unique<VersionedRecord>(max_versions_);
    record = slot.get();
  }
  record->Install(origin, seq, std::move(value), stats);
}

const VersionedRecord* Table::Find(uint64_t row) const {
  const Shard& shard = ShardFor(row);
  ReaderMutexLock read_lock(shard.mu);
  auto it = shard.rows.find(row);
  return it == shard.rows.end() ? nullptr : it->second.get();
}

Status Table::Read(uint64_t row, const VersionVector& snapshot,
                   std::string* out, VersionStamp* observed) const {
  const VersionedRecord* record = Find(row);
  if (record == nullptr) return Status::NotFound("no such row");
  return record->ReadAtSnapshot(snapshot, out, observed);
}

Status Table::ReadLatest(uint64_t row, std::string* out) const {
  const VersionedRecord* record = Find(row);
  if (record == nullptr) return Status::NotFound("no such row");
  return record->ReadLatest(out);
}

bool Table::Contains(uint64_t row) const { return Find(row) != nullptr; }

size_t Table::NumRows() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    ReaderMutexLock read_lock(shard.mu);
    total += shard.rows.size();
  }
  return total;
}

}  // namespace dynamast::storage
