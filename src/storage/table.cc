#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace dynamast::storage {

namespace {
constexpr size_t kMinSlots = 16;
}  // namespace

size_t Table::Shard::Probe(uint64_t row) const {
  // Home slot: the hash bits just below the shard bits (every row in this
  // shard has the same shard bits).
  const size_t mask = slots.size() - 1;
  size_t i = static_cast<size_t>((Hash(row) << kShardBits) >>
                                 (64 - std::countr_zero(slots.size())));
  while (slots[i].record != nullptr && slots[i].row != row) i = (i + 1) & mask;
  return i;
}

VersionedRecord* Table::Shard::Find(uint64_t row) const {
  if (slots.empty()) return nullptr;
  return slots[Probe(row)].record.get();
}

VersionedRecord* Table::Shard::FindOrInsert(uint64_t row,
                                            size_t max_versions) {
  if (VersionedRecord* found = Find(row)) return found;
  if ((num_rows + 1) * 2 > slots.size()) Grow();
  Slot& slot = slots[Probe(row)];
  slot.row = row;
  slot.record = std::make_unique<VersionedRecord>(max_versions);
  ++num_rows;
  return slot.record.get();
}

void Table::Shard::Grow() {
  std::vector<Slot> old = std::exchange(
      slots, std::vector<Slot>(std::max(kMinSlots, 2 * slots.size())));
  for (Slot& slot : old) {
    if (slot.record == nullptr) continue;
    const size_t i = Probe(slot.row);
    slots[i] = std::move(slot);
  }
}

void Table::Install(uint64_t row, SiteId origin, uint64_t seq,
                    std::string value, InstallStats* stats) {
  Shard& shard = ShardFor(row);
  VersionedRecord* record = nullptr;
  {
    ReaderMutexLock read_lock(shard.mu);
    record = shard.Find(row);
  }
  if (record == nullptr) {
    WriterMutexLock write_lock(shard.mu);
    record = shard.FindOrInsert(row, max_versions_);
  }
  record->Install(origin, seq, std::move(value), stats);
}

const VersionedRecord* Table::Find(uint64_t row) const {
  const Shard& shard = ShardFor(row);
  ReaderMutexLock read_lock(shard.mu);
  return shard.Find(row);
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
    total += shard.num_rows;
  }
  return total;
}

}  // namespace dynamast::storage
