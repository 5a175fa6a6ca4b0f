#include "storage/storage_engine.h"

namespace dynamast::storage {

Status StorageEngine::CreateTable(TableId id) {
  WriterMutexLock lock(tables_mu_);
  auto [it, inserted] = tables_.emplace(
      id, std::make_unique<Table>(id, VersionedRecord::kMaxVersions));
  (void)it;
  if (!inserted) return Status::AlreadyExists("table exists");
  return Status::OK();
}

Table* StorageEngine::GetTable(TableId id) const {
  ReaderMutexLock lock(tables_mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status StorageEngine::Install(const RecordKey& key, SiteId origin,
                              uint64_t seq, std::string value,
                              InstallStats* stats) {
  Table* table = GetTable(key.table);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  table->Install(key.row, origin, seq, std::move(value), stats);
  return Status::OK();
}

Status StorageEngine::Read(const RecordKey& key, const VersionVector& snapshot,
                           std::string* out, VersionStamp* observed) const {
  Table* table = GetTable(key.table);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  return table->Read(key.row, snapshot, out, observed);
}

Status StorageEngine::ReadLatest(const RecordKey& key, std::string* out) const {
  Table* table = GetTable(key.table);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  return table->ReadLatest(key.row, out);
}

bool StorageEngine::Contains(const RecordKey& key) const {
  Table* table = GetTable(key.table);
  return table != nullptr && table->Contains(key.row);
}

size_t StorageEngine::TotalRows() const {
  ReaderMutexLock lock(tables_mu_);
  size_t total = 0;
  for (const auto& [id, table] : tables_) total += table->NumRows();
  return total;
}

}  // namespace dynamast::storage
