#include "selector/access_statistics.h"

#include <algorithm>

namespace dynamast::selector {

namespace {
// Per-client recent-transaction memory used for inter-txn detection.
constexpr size_t kClientHistoryCapacity = 8;
}  // namespace

AccessStatistics::AccessStatistics(const Options& options, uint32_t num_sites,
                                   const std::vector<SiteId>& initial_masters)
    : options_(options),
      master_of_(initial_masters),
      partition_writes_(initial_masters.size(), 0),
      site_writes_(num_sites, 0) {}

void AccessStatistics::BumpPair(
    std::unordered_map<PartitionId,
                       std::unordered_map<PartitionId, int64_t>>& m,
    PartitionId a, PartitionId b, int64_t delta) {
  auto& count = m[a][b];
  count += delta;
  if (count <= 0) {
    m[a].erase(b);
    if (m[a].empty()) m.erase(a);
  }
}

void AccessStatistics::RecordWriteSet(ClientId client,
                                      const std::vector<PartitionId>& parts,
                                      TimePoint now) {
  MutexLock guard(mu_);
  ExpireLocked(now);

  Sample sample;
  sample.client = client;
  sample.time = now;
  sample.parts = parts;

  for (PartitionId p : parts) {
    partition_writes_[p]++;
    site_writes_[master_of_[p]]++;
    total_writes_++;
  }
  // Intra-transaction pair counts (both directions, so P(d2|d1) lookups
  // are a single map probe).
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t j = 0; j < parts.size(); ++j) {
      if (i == j) continue;
      BumpPair(intra_, parts[i], parts[j], +1);
    }
  }
  // Inter-transaction co-access against this client's recent transactions
  // within the Δt window (Eq. 7).
  auto& recent = client_recent_[client];
  for (const auto& [t, prev_parts] : recent) {
    if (now - t > options_.inter_txn_window) continue;
    for (PartitionId d1 : prev_parts) {
      for (PartitionId d2 : parts) {
        if (d1 == d2) continue;
        BumpPair(inter_, d1, d2, +1);
        BumpPair(inter_, d2, d1, +1);
        sample.inter_pairs.emplace_back(d1, d2);
      }
    }
  }
  recent.emplace_back(now, parts);
  while (recent.size() > kClientHistoryCapacity) {
    recent.pop_front();
  }

  history_.push_back(std::move(sample));
  while (history_.size() > options_.history_capacity) {
    RemoveSampleLocked(history_.front());
    history_.pop_front();
  }
}

void AccessStatistics::ExpireLocked(TimePoint now) {
  while (!history_.empty() &&
         now - history_.front().time > options_.sample_ttl) {
    RemoveSampleLocked(history_.front());
    history_.pop_front();
  }
}

void AccessStatistics::RemoveSampleLocked(const Sample& sample) {
  for (PartitionId p : sample.parts) {
    partition_writes_[p]--;
    site_writes_[master_of_[p]]--;
    total_writes_--;
  }
  for (size_t i = 0; i < sample.parts.size(); ++i) {
    for (size_t j = 0; j < sample.parts.size(); ++j) {
      if (i == j) continue;
      BumpPair(intra_, sample.parts[i], sample.parts[j], -1);
    }
  }
  for (const auto& [d1, d2] : sample.inter_pairs) {
    BumpPair(inter_, d1, d2, -1);
    BumpPair(inter_, d2, d1, -1);
  }
}

void AccessStatistics::OnRemaster(PartitionId p, SiteId to) {
  MutexLock guard(mu_);
  const SiteId from = master_of_[p];
  if (from == to) return;
  site_writes_[from] -= partition_writes_[p];
  site_writes_[to] += partition_writes_[p];
  master_of_[p] = to;
}

double AccessStatistics::SiteWriteFraction(SiteId site) const {
  MutexLock guard(mu_);
  if (total_writes_ <= 0) return 0.0;
  return static_cast<double>(site_writes_[site]) /
         static_cast<double>(total_writes_);
}

uint64_t AccessStatistics::PartitionWriteCount(PartitionId p) const {
  MutexLock guard(mu_);
  return partition_writes_[p] < 0 ? 0
                                  : static_cast<uint64_t>(partition_writes_[p]);
}

uint64_t AccessStatistics::TotalWriteCount() const {
  MutexLock guard(mu_);
  return total_writes_ < 0 ? 0 : static_cast<uint64_t>(total_writes_);
}

std::vector<std::pair<PartitionId, double>> AccessStatistics::IntraCoAccess(
    PartitionId p) const {
  MutexLock guard(mu_);
  std::vector<std::pair<PartitionId, double>> out;
  auto it = intra_.find(p);
  if (it == intra_.end() || partition_writes_[p] <= 0) return out;
  const double denom = static_cast<double>(partition_writes_[p]);
  out.reserve(it->second.size());
  for (const auto& [d2, count] : it->second) {
    out.emplace_back(d2, static_cast<double>(count) / denom);
  }
  return out;
}

std::vector<std::pair<PartitionId, double>> AccessStatistics::InterCoAccess(
    PartitionId p) const {
  MutexLock guard(mu_);
  std::vector<std::pair<PartitionId, double>> out;
  auto it = inter_.find(p);
  if (it == inter_.end() || partition_writes_[p] <= 0) return out;
  const double denom = static_cast<double>(partition_writes_[p]);
  out.reserve(it->second.size());
  for (const auto& [d2, count] : it->second) {
    out.emplace_back(d2, static_cast<double>(count) / denom);
  }
  return out;
}

SiteId AccessStatistics::MasterMirror(PartitionId p) const {
  MutexLock guard(mu_);
  return master_of_[p];
}

size_t AccessStatistics::HistorySize() const {
  MutexLock guard(mu_);
  return history_.size();
}

}  // namespace dynamast::selector
