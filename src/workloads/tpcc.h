#ifndef DYNAMAST_WORKLOADS_TPCC_H_
#define DYNAMAST_WORKLOADS_TPCC_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/debug_mutex.h"
#include "common/random.h"
#include "workloads/workload.h"

namespace dynamast::workloads {

/// TPC-C as evaluated in the paper (Section VI-A2): the New-Order and
/// Payment update transactions plus the read-only Stock-Level transaction,
/// at a 45/45/10 default mix, partitioned by warehouse (the placement
/// Schism selects). Cross-warehouse New-Order and Payment percentages are
/// the knobs of experiments E6 and E16.
///
/// Scaled-down cardinalities (warehouses, customers, items) keep runs
/// laptop-sized; every count is configurable (see DESIGN.md).
///
/// Partition layout (the unit of mastership / remastering / 2PC). The
/// site selector remasters *partition groups*, so granularity matters: a
/// cross-warehouse New-Order should move only the remote stock rows it
/// touches, not the whole remote warehouse. Per warehouse w:
///   * 1 warehouse partition (the warehouse row — payment YTD),
///   * D district partitions — district d plus the orders / order lines /
///     new-order / history rows of (w, d) (inserted rows stay in the
///     partition their district masters),
///   * D customer partitions — the customers of (w, d) (moved only by
///     remote payments),
///   * ceil(items/kStockGroupSize) stock partitions of contiguous items
///     (moved by cross-warehouse New-Orders).
/// One final static partition holds the read-only ITEM table.
/// Partition ids are warehouse-major, so by-warehouse placement (what
/// Schism picks) is WarehousePlacement().
class TpccWorkload final : public Workload {
 public:
  struct Options {
    uint32_t num_warehouses = 4;
    uint32_t districts_per_warehouse = 10;
    uint32_t customers_per_district = 300;
    uint32_t num_items = 2000;
    /// Initial orders per district (gives Stock-Level data on a cold run).
    uint32_t initial_orders_per_district = 10;
    /// Percentage of New-Order transactions that include remote-warehouse
    /// supply items (cross-warehouse; default ≈ TPC-C's ~10%).
    uint32_t cross_warehouse_neworder_pct = 10;
    /// Percentage of Payment transactions paying a remote customer.
    uint32_t remote_payment_pct = 15;
    /// Transaction mix percentages (must sum to 100).
    /// Transaction mix percentages (must sum to <= 100; any remainder is
    /// Order-Status). The paper evaluates the 45/45/10 three-transaction
    /// mix; Order-Status (read-only: a customer's most recent order and
    /// its lines) is provided for TPC-C completeness and defaults to 0.
    uint32_t new_order_pct = 45;
    uint32_t payment_pct = 45;
    uint32_t stock_level_pct = 10;
    uint64_t seed = 99;
  };

  /// Contiguous items per stock partition (mastership granularity). The
  /// ratio kStockGroupSize / num_items controls how often a home
  /// New-Order touches a stock group a cross-warehouse order dragged
  /// away — keep it small or remastering ping-pongs (see DESIGN.md).
  static constexpr uint32_t kStockGroupSize = 10;
  /// Contiguous customers per customer partition (moved by remote
  /// payments).
  static constexpr uint32_t kCustomerGroupSize = 30;

  // Table ids.
  static constexpr TableId kWarehouse = 10;
  static constexpr TableId kDistrict = 11;
  static constexpr TableId kCustomer = 12;
  static constexpr TableId kHistory = 13;
  static constexpr TableId kNewOrderTable = 14;
  static constexpr TableId kOrder = 15;
  static constexpr TableId kOrderLine = 16;
  static constexpr TableId kItem = 17;
  static constexpr TableId kStock = 18;

  explicit TpccWorkload(const Options& options);

  std::string name() const override { return "tpcc"; }
  const Partitioner& partitioner() const override { return *partitioner_; }
  Status Load(core::SystemInterface& system) override;
  std::unique_ptr<WorkloadClient> MakeClient(uint64_t index) override;

  const Options& options() const { return options_; }

  // ---- Partition layout --------------------------------------------------
  uint32_t StockGroupsPerWarehouse() const {
    return (options_.num_items + kStockGroupSize - 1) / kStockGroupSize;
  }
  uint32_t CustomerGroupsPerDistrict() const {
    return (options_.customers_per_district + kCustomerGroupSize - 1) /
           kCustomerGroupSize;
  }
  uint32_t PartitionsPerWarehouse() const {
    return 1 +
           options_.districts_per_warehouse *
               (1 + CustomerGroupsPerDistrict()) +
           StockGroupsPerWarehouse();
  }
  PartitionId WarehousePartition(uint32_t w) const {
    return static_cast<PartitionId>(w) * PartitionsPerWarehouse();
  }
  PartitionId DistrictPartition(uint32_t w, uint32_t d) const {
    return WarehousePartition(w) + 1 + d;
  }
  PartitionId CustomerPartition(uint32_t w, uint32_t d, uint32_t c) const {
    return WarehousePartition(w) + 1 + options_.districts_per_warehouse +
           d * CustomerGroupsPerDistrict() + c / kCustomerGroupSize;
  }
  PartitionId StockPartition(uint32_t w, uint32_t item) const {
    return WarehousePartition(w) + 1 +
           options_.districts_per_warehouse *
               (1 + CustomerGroupsPerDistrict()) +
           item / kStockGroupSize;
  }
  /// The static read-only ITEM partition (last id).
  PartitionId ItemPartition() const {
    return static_cast<PartitionId>(options_.num_warehouses) *
           PartitionsPerWarehouse();
  }
  /// Home warehouse of partition `p` (ItemPartition has no warehouse).
  uint32_t WarehouseOfPartition(PartitionId p) const {
    return static_cast<uint32_t>(p / PartitionsPerWarehouse());
  }

  /// The by-warehouse placement Schism selects for TPC-C: every partition
  /// of warehouse w at site w % num_sites; the ITEM partition (static,
  /// replicated) nominally at site 0.
  std::vector<SiteId> WarehousePlacement(uint32_t num_sites) const;

  // ---- Key encodings ---------------------------------------------------
  uint64_t WarehouseKey(uint32_t w) const { return w; }
  uint64_t DistrictKey(uint32_t w, uint32_t d) const {
    return static_cast<uint64_t>(w) * options_.districts_per_warehouse + d;
  }
  uint64_t CustomerKey(uint32_t w, uint32_t d, uint32_t c) const {
    return DistrictKey(w, d) * options_.customers_per_district + c;
  }
  uint64_t OrderKey(uint32_t w, uint32_t d, uint64_t o) const {
    return (static_cast<uint64_t>(DistrictKey(w, d)) << 32) | o;
  }
  uint64_t OrderLineKey(uint32_t w, uint32_t d, uint64_t o,
                        uint32_t line) const {
    return (static_cast<uint64_t>(DistrictKey(w, d)) << 40) | (o << 8) | line;
  }
  uint64_t ItemKey(uint32_t i) const { return i; }
  uint64_t StockKey(uint32_t w, uint32_t i) const {
    return static_cast<uint64_t>(w) * options_.num_items + i;
  }
  uint64_t HistoryKey(uint32_t w, uint32_t d, uint64_t unique) const {
    return (static_cast<uint64_t>(DistrictKey(w, d)) << 40) | unique;
  }

  /// Reconnaissance memory (stands in for the reconnaissance queries of
  /// Section II-B1): which stock partitions the recent orders of (w, d)
  /// touched — drives Stock-Level's declared read partitions.
  void RecordOrderStockPartitions(
      uint32_t w, uint32_t d, const std::vector<PartitionId>& stock_partitions)
      DYNAMAST_EXCLUDES(recon_mu_);
  std::vector<PartitionId> RecentStockPartitions(uint32_t w, uint32_t d) const
      DYNAMAST_EXCLUDES(recon_mu_);

 private:
  friend class TpccClient;

  Options options_;
  std::unique_ptr<FunctionPartitioner> partitioner_;

  mutable RawMutex recon_mu_;
  /// Per district: stock-partition sets of recent orders (bounded deque).
  std::vector<std::deque<std::vector<PartitionId>>> recent_orders_
      DYNAMAST_GUARDED_BY(recon_mu_);
  std::atomic<uint64_t> history_counter_{1};
};

}  // namespace dynamast::workloads

#endif  // DYNAMAST_WORKLOADS_TPCC_H_
