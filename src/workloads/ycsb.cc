#include "workloads/ycsb.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace dynamast::workloads {

YcsbWorkload::YcsbWorkload(const Options& options)
    : options_(options),
      num_partitions_((options.num_keys + options.keys_per_partition - 1) /
                      options.keys_per_partition),
      partitioner_(options.keys_per_partition, num_partitions_) {
  order_.resize(num_partitions_);
  position_.resize(num_partitions_);
  std::iota(order_.begin(), order_.end(), 0);
  std::iota(position_.begin(), position_.end(), 0);
  if (options_.shuffle_correlations) ShuffleCorrelations(options_.seed ^ 0x5f);
}

void YcsbWorkload::ShuffleCorrelations(uint64_t seed) {
  RawMutexLock guard(order_mu_);
  Random rng(seed);
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng.Uniform(i)]);
  }
  for (uint64_t pos = 0; pos < order_.size(); ++pos) {
    position_[order_[pos]] = pos;
  }
  order_epoch_++;
}

PartitionId YcsbWorkload::OrderedAt(uint64_t pos) const {
  RawMutexLock guard(order_mu_);
  return order_[pos];
}

uint64_t YcsbWorkload::PositionOf(PartitionId p) const {
  RawMutexLock guard(order_mu_);
  return position_[p];
}

std::string YcsbWorkload::MakeValue(uint64_t counter, size_t value_size) {
  std::string value(std::max(value_size, sizeof(uint64_t)), 'x');
  std::memcpy(value.data(), &counter, sizeof(uint64_t));
  return value;
}

uint64_t YcsbWorkload::ValueCounter(const std::string& value) {
  uint64_t counter = 0;
  if (value.size() >= sizeof(uint64_t)) {
    std::memcpy(&counter, value.data(), sizeof(uint64_t));
  }
  return counter;
}

Status YcsbWorkload::Load(core::SystemInterface& system) {
  Status s = system.CreateTable(kTable);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  for (uint64_t key = 0; key < options_.num_keys; ++key) {
    Status s = system.LoadRow(RecordKey{kTable, key},
                              MakeValue(0, options_.value_size));
    if (!s.ok()) return s;
  }
  return Status::OK();
}

namespace {

// Keys per read-modify-write transaction: the affinity base plus two
// neighbourhood companions (Appendix C).
constexpr uint32_t kKeysPerRmw = 3;
// Fewest partitions a scan reads.
constexpr uint64_t kMinScanPartitions = 2;

/// One YCSB client: an affinity region plus the Appendix C key-selection
/// machinery.
class YcsbClient final : public WorkloadClient {
 public:
  YcsbClient(YcsbWorkload* workload, uint64_t seed)
      : workload_(workload), rng_(seed) {
    if (workload_->options().zipfian) {
      if (workload_->options().scramble_zipf) {
        scrambled_zipf_ = std::make_unique<ScrambledZipfianGenerator>(
            workload_->num_partitions(), workload_->options().zipf_theta);
      } else {
        zipf_ = std::make_unique<ZipfianGenerator>(
            workload_->num_partitions(), workload_->options().zipf_theta);
      }
    }
    RenewAffinity();
  }

  WorkloadTxn Next() override {
    const auto& opt = workload_->options();
    if (txns_in_affinity_ >= opt.affinity_txns) RenewAffinity();
    txns_in_affinity_++;
    const bool rmw = rng_.Uniform(100) < opt.rmw_pct;
    return rmw ? MakeRmw() : MakeScan();
  }

 private:
  void RenewAffinity() {
    // A replaced client works against a fresh correlated region whose base
    // is drawn from the access distribution.
    if (zipf_ != nullptr) {
      affinity_position_ = zipf_->Next(rng_);
    } else if (scrambled_zipf_ != nullptr) {
      affinity_position_ = scrambled_zipf_->Next(rng_);
    } else {
      affinity_position_ = rng_.Uniform(workload_->num_partitions());
    }
    txns_in_affinity_ = 0;
  }

  uint64_t ClampPosition(int64_t pos) const {
    const int64_t max_pos =
        static_cast<int64_t>(workload_->num_partitions()) - 1;
    return static_cast<uint64_t>(std::clamp<int64_t>(pos, 0, max_pos));
  }

  uint64_t KeyIn(PartitionId partition) {
    const auto& opt = workload_->options();
    const uint64_t base = partition * opt.keys_per_partition;
    const uint64_t span =
        std::min(opt.keys_per_partition, opt.num_keys - base);
    return base + rng_.Uniform(span);
  }

  WorkloadTxn MakeRmw() {
    const auto& opt = workload_->options();
    // Base partition = the affinity region's base; companions from the
    // Bernoulli(5, 0.5) neighbourhood (offset = successes - 3, so one
    // success means two positions before the base, five means two after).
    std::vector<uint64_t> positions;
    positions.push_back(affinity_position_);
    for (uint32_t i = 1; i < kKeysPerRmw; ++i) {
      const int64_t offset =
          static_cast<int64_t>(rng_.Binomial(5, 0.5)) - 3;
      positions.push_back(
          ClampPosition(static_cast<int64_t>(affinity_position_) + offset));
    }
    std::vector<RecordKey> keys;
    keys.reserve(positions.size());
    for (uint64_t pos : positions) {
      keys.push_back(RecordKey{YcsbWorkload::kTable,
                               KeyIn(workload_->OrderedAt(pos))});
    }
    WorkloadTxn txn;
    txn.type = "rmw";
    txn.profile.write_keys = keys;
    txn.profile.read_keys = keys;
    const size_t value_size = opt.value_size;
    // The profile copies above are the last readers; the closure takes
    // ownership of the key set instead of a third copy.
    txn.logic = [keys = std::move(keys),
                 value_size](core::TxnContext& ctx) -> Status {
      for (const RecordKey& key : keys) {
        std::string value;
        Status s = ctx.Get(key, &value);
        if (!s.ok()) return s;
        s = ctx.Put(key, YcsbWorkload::MakeValue(
                             YcsbWorkload::ValueCounter(value) + 1,
                             value_size));
        if (!s.ok()) return s;
      }
      return Status::OK();
    };
    return txn;
  }

  WorkloadTxn MakeScan() {
    const auto& opt = workload_->options();
    const uint64_t k =
        rng_.UniformRange(kMinScanPartitions, opt.max_scan_partitions);
    std::vector<RecordKey> keys;
    keys.reserve(k * opt.keys_per_partition);
    for (uint64_t i = 0; i < k; ++i) {
      const PartitionId partition = workload_->OrderedAt(
          ClampPosition(static_cast<int64_t>(affinity_position_ + i)));
      const uint64_t base = partition * opt.keys_per_partition;
      const uint64_t end =
          std::min(base + opt.keys_per_partition, opt.num_keys);
      for (uint64_t key = base; key < end; ++key) {
        keys.push_back(RecordKey{YcsbWorkload::kTable, key});
      }
    }
    WorkloadTxn txn;
    txn.type = "scan";
    txn.profile.read_only = true;
    txn.profile.read_keys = keys;
    // Profile copy above is the last reader; the closure takes ownership.
    txn.logic = [keys = std::move(keys)](core::TxnContext& ctx) -> Status {
      uint64_t checksum = 0;
      std::string value;
      for (const RecordKey& key : keys) {
        Status s = ctx.Get(key, &value);
        if (!s.ok()) return s;
        checksum += YcsbWorkload::ValueCounter(value);
      }
      (void)checksum;
      return Status::OK();
    };
    return txn;
  }

  YcsbWorkload* workload_;
  Random rng_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  std::unique_ptr<ScrambledZipfianGenerator> scrambled_zipf_;
  uint64_t affinity_position_ = 0;
  uint64_t txns_in_affinity_ = 0;
};

}  // namespace

std::unique_ptr<WorkloadClient> YcsbWorkload::MakeClient(uint64_t index) {
  return std::make_unique<YcsbClient>(
      this, options_.seed * 0x9e3779b97f4a7c15ULL + index + 1);
}

}  // namespace dynamast::workloads
