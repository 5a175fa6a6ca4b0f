#include "workloads/tpcc.h"

#include <algorithm>
#include <unordered_set>

#include "storage/row_buffer.h"

namespace dynamast::workloads {

using storage::RowBuffer;

namespace {

// Field indexes, per table.
// warehouse: 0 ytd (double), 1 tax (double)
// district:  0 ytd (double), 1 tax (double), 2 next_o_id (u64)
// customer:  0 balance (double), 1 ytd_payment (double),
//            2 payment_cnt (i64), 3 discount (double)
// order:     0 c_id (u64), 1 ol_cnt (u64), 2 carrier (u64)
// orderline: 0 i_id (u64), 1 supply_w (u64), 2 qty (u64), 3 amount (double)
// neworder:  0 flag (u64)
// item:      0 price (double), 1 data (string)
// stock:     0 quantity (u64), 1 ytd (double), 2 order_cnt (u64),
//            3 remote_cnt (u64)
// history:   0 amount (double)

std::string EncodeWarehouse(double ytd, double tax) {
  RowBuffer row;
  row.AddDouble(ytd);
  row.AddDouble(tax);
  return row.Encode();
}

std::string EncodeDistrict(double ytd, double tax, uint64_t next_o_id) {
  RowBuffer row;
  row.AddDouble(ytd);
  row.AddDouble(tax);
  row.AddUint64(next_o_id);
  return row.Encode();
}

std::string EncodeCustomer(double balance, double ytd_payment,
                           int64_t payment_cnt, double discount) {
  RowBuffer row;
  row.AddDouble(balance);
  row.AddDouble(ytd_payment);
  row.AddInt64(payment_cnt);
  row.AddDouble(discount);
  return row.Encode();
}

std::string EncodeOrder(uint64_t c_id, uint64_t ol_cnt, uint64_t carrier) {
  RowBuffer row;
  row.AddUint64(c_id);
  row.AddUint64(ol_cnt);
  row.AddUint64(carrier);
  return row.Encode();
}

std::string EncodeOrderLine(uint64_t i_id, uint64_t supply_w, uint64_t qty,
                            double amount) {
  RowBuffer row;
  row.AddUint64(i_id);
  row.AddUint64(supply_w);
  row.AddUint64(qty);
  row.AddDouble(amount);
  return row.Encode();
}

std::string EncodeNewOrder() {
  RowBuffer row;
  row.AddUint64(1);
  return row.Encode();
}

std::string EncodeItem(double price) {
  RowBuffer row;
  row.AddDouble(price);
  row.AddString("item-data-item-data-item-data");
  return row.Encode();
}

std::string EncodeStock(uint64_t quantity, double ytd, uint64_t order_cnt,
                        uint64_t remote_cnt) {
  RowBuffer row;
  row.AddUint64(quantity);
  row.AddDouble(ytd);
  row.AddUint64(order_cnt);
  row.AddUint64(remote_cnt);
  return row.Encode();
}

std::string EncodeHistory(double amount) {
  RowBuffer row;
  row.AddDouble(amount);
  return row.Encode();
}

Status ParseRow(const std::string& encoded, RowBuffer* row) {
  return RowBuffer::Parse(encoded, row);
}

}  // namespace

TpccWorkload::TpccWorkload(const Options& options) : options_(options) {
  const uint32_t dpw = options_.districts_per_warehouse;
  const uint32_t cpd = options_.customers_per_district;
  const uint32_t items = options_.num_items;
  auto fn = [this, dpw, cpd, items](const RecordKey& key) -> PartitionId {
    switch (key.table) {
      case kWarehouse:
        return WarehousePartition(static_cast<uint32_t>(key.row));
      case kDistrict: {
        const uint32_t dk = static_cast<uint32_t>(key.row);
        return DistrictPartition(dk / dpw, dk % dpw);
      }
      case kCustomer: {
        const uint32_t dk = static_cast<uint32_t>(key.row / cpd);
        const uint32_t c = static_cast<uint32_t>(key.row % cpd);
        return CustomerPartition(dk / dpw, dk % dpw, c);
      }
      case kHistory:
      case kOrderLine: {
        const uint32_t dk = static_cast<uint32_t>(key.row >> 40);
        return DistrictPartition(dk / dpw, dk % dpw);
      }
      case kOrder:
      case kNewOrderTable: {
        const uint32_t dk = static_cast<uint32_t>(key.row >> 32);
        return DistrictPartition(dk / dpw, dk % dpw);
      }
      case kStock: {
        const uint32_t w = static_cast<uint32_t>(key.row / items);
        const uint32_t item = static_cast<uint32_t>(key.row % items);
        return StockPartition(w, item);
      }
      case kItem:
        return ItemPartition();
      default:
        return 0;
    }
  };
  partitioner_ = std::make_unique<FunctionPartitioner>(
      fn, static_cast<size_t>(ItemPartition()) + 1);
  recent_orders_.resize(static_cast<size_t>(options_.num_warehouses) * dpw);
}

std::vector<SiteId> TpccWorkload::WarehousePlacement(
    uint32_t num_sites) const {
  std::vector<SiteId> placement(partitioner_->NumPartitions(), 0);
  for (PartitionId p = 0; p + 1 < placement.size(); ++p) {
    placement[p] = static_cast<SiteId>(WarehouseOfPartition(p) % num_sites);
  }
  return placement;
}

void TpccWorkload::RecordOrderStockPartitions(
    uint32_t w, uint32_t d, const std::vector<PartitionId>& stock_partitions) {
  RawMutexLock guard(recon_mu_);
  auto& ring = recent_orders_[DistrictKey(w, d)];
  ring.push_back(stock_partitions);
  while (ring.size() > 20) ring.pop_front();
}

std::vector<PartitionId> TpccWorkload::RecentStockPartitions(
    uint32_t w, uint32_t d) const {
  RawMutexLock guard(recon_mu_);
  std::unordered_set<PartitionId> set;
  for (const auto& order : recent_orders_[DistrictKey(w, d)]) {
    set.insert(order.begin(), order.end());
  }
  return std::vector<PartitionId>(set.begin(), set.end());
}

Status TpccWorkload::Load(core::SystemInterface& system) {
  for (TableId t : {kWarehouse, kDistrict, kCustomer, kHistory,
                    kNewOrderTable, kOrder, kOrderLine, kItem, kStock}) {
    Status s = system.CreateTable(t);
    if (!s.ok()) return s;
  }
  Random rng(options_.seed);
  auto check = [](Status s) { return s; };

  // ITEM is a static read-only table, replicated at every site in every
  // system (Section VI-A1: partition-store replicates static read-only
  // tables).
  for (uint32_t i = 0; i < options_.num_items; ++i) {
    const double price = 1.0 + static_cast<double>(rng.Uniform(9999)) / 100.0;
    Status s = system.LoadReplicatedRow(RecordKey{kItem, ItemKey(i)},
                                        EncodeItem(price));
    if (!s.ok()) return s;
  }

  for (uint32_t w = 0; w < options_.num_warehouses; ++w) {
    const double w_tax = static_cast<double>(rng.Uniform(2000)) / 10000.0;
    Status s = check(system.LoadRow(RecordKey{kWarehouse, WarehouseKey(w)},
                                    EncodeWarehouse(300000.0, w_tax)));
    if (!s.ok()) return s;
    for (uint32_t i = 0; i < options_.num_items; ++i) {
      s = system.LoadRow(RecordKey{kStock, StockKey(w, i)},
                         EncodeStock(50 + rng.Uniform(50), 0.0, 0, 0));
      if (!s.ok()) return s;
    }
    for (uint32_t d = 0; d < options_.districts_per_warehouse; ++d) {
      const double d_tax = static_cast<double>(rng.Uniform(2000)) / 10000.0;
      const uint64_t next_o_id = options_.initial_orders_per_district + 1;
      s = system.LoadRow(RecordKey{kDistrict, DistrictKey(w, d)},
                         EncodeDistrict(30000.0, d_tax, next_o_id));
      if (!s.ok()) return s;
      for (uint32_t c = 0; c < options_.customers_per_district; ++c) {
        const double discount =
            static_cast<double>(rng.Uniform(5000)) / 10000.0;
        s = system.LoadRow(RecordKey{kCustomer, CustomerKey(w, d, c)},
                           EncodeCustomer(-10.0, 10.0, 1, discount));
        if (!s.ok()) return s;
      }
      // Initial orders so Stock-Level has data from the first second.
      for (uint64_t o = 1; o <= options_.initial_orders_per_district; ++o) {
        const uint32_t lines = 5;
        s = system.LoadRow(
            RecordKey{kOrder, OrderKey(w, d, o)},
            EncodeOrder(rng.Uniform(options_.customers_per_district), lines,
                        0));
        if (!s.ok()) return s;
        s = system.LoadRow(RecordKey{kNewOrderTable, OrderKey(w, d, o)},
                           EncodeNewOrder());
        if (!s.ok()) return s;
        for (uint32_t line = 0; line < lines; ++line) {
          const uint32_t item = static_cast<uint32_t>(
              rng.Uniform(options_.num_items));
          s = system.LoadRow(
              RecordKey{kOrderLine, OrderLineKey(w, d, o, line)},
              EncodeOrderLine(item, w, 5, 25.0));
          if (!s.ok()) return s;
        }
        // Initial orders' lines were all supplied by the home warehouse;
        // record their stock partitions for Stock-Level reconnaissance.
        RecordOrderStockPartitions(w, d, {StockPartition(w, 0)});
      }
    }
  }
  return Status::OK();
}

namespace {

// New-Order line count, drawn uniformly from this range (TPC-C 2.4.1.3).
constexpr uint32_t kMinItemsPerOrder = 5;
constexpr uint32_t kMaxItemsPerOrder = 15;

class TpccClient final : public WorkloadClient {
 public:
  TpccClient(TpccWorkload* workload, uint64_t index, uint64_t seed)
      : workload_(workload),
        home_warehouse_(static_cast<uint32_t>(
            index % workload->options().num_warehouses)),
        client_tag_(index),
        rng_(seed) {}

  WorkloadTxn Next() override {
    const auto& opt = workload_->options();
    const uint64_t roll = rng_.Uniform(100);
    if (roll < opt.new_order_pct) return MakeNewOrder();
    if (roll < opt.new_order_pct + opt.payment_pct) return MakePayment();
    if (roll < opt.new_order_pct + opt.payment_pct + opt.stock_level_pct) {
      return MakeStockLevel();
    }
    return MakeOrderStatus();
  }

 private:
  uint32_t RandomOtherWarehouse(uint32_t w) {
    const uint32_t num = workload_->options().num_warehouses;
    if (num == 1) return w;
    uint32_t other = static_cast<uint32_t>(rng_.Uniform(num - 1));
    if (other >= w) ++other;
    return other;
  }

  WorkloadTxn MakeNewOrder();
  WorkloadTxn MakePayment();
  WorkloadTxn MakeStockLevel();
  WorkloadTxn MakeOrderStatus();

  TpccWorkload* workload_;
  uint32_t home_warehouse_;
  uint64_t client_tag_;
  uint64_t history_seq_ = 0;
  Random rng_;
};

WorkloadTxn TpccClient::MakeNewOrder() {
  TpccWorkload* wl = workload_;
  const auto& opt = wl->options();
  const uint32_t w = home_warehouse_;
  const uint32_t d =
      static_cast<uint32_t>(rng_.Uniform(opt.districts_per_warehouse));
  const uint32_t c =
      static_cast<uint32_t>(rng_.Uniform(opt.customers_per_district));
  const uint32_t n_items = static_cast<uint32_t>(
      rng_.UniformRange(kMinItemsPerOrder, kMaxItemsPerOrder));
  const bool cross =
      rng_.Uniform(100) < opt.cross_warehouse_neworder_pct &&
      opt.num_warehouses > 1;

  struct OrderItem {
    uint32_t item;
    uint32_t supply_w;
    uint32_t qty;
  };
  std::vector<OrderItem> items;
  std::unordered_set<uint32_t> used;
  items.reserve(n_items);
  for (uint32_t i = 0; i < n_items; ++i) {
    uint32_t item;
    do {
      item = static_cast<uint32_t>(rng_.Uniform(opt.num_items));
    } while (!used.insert(item).second);
    uint32_t supply = w;
    // In a cross-warehouse New-Order the first item is always remote and
    // the rest are remote with 10% probability.
    if (cross && (i == 0 || rng_.Uniform(100) < 10)) {
      supply = RandomOtherWarehouse(w);
    }
    items.push_back(
        OrderItem{item, supply, static_cast<uint32_t>(1 + rng_.Uniform(10))});
  }

  WorkloadTxn txn;
  txn.type = "new-order";
  txn.profile.write_keys.push_back(
      RecordKey{TpccWorkload::kDistrict, wl->DistrictKey(w, d)});
  for (const OrderItem& oi : items) {
    txn.profile.write_keys.push_back(
        RecordKey{TpccWorkload::kStock, wl->StockKey(oi.supply_w, oi.item)});
  }
  txn.profile.read_keys.push_back(
      RecordKey{TpccWorkload::kWarehouse, wl->WarehouseKey(w)});
  txn.profile.read_keys.push_back(
      RecordKey{TpccWorkload::kCustomer, wl->CustomerKey(w, d, c)});

  txn.logic = [wl, w, d, c, items](core::TxnContext& ctx) -> Status {
    std::string raw;
    RowBuffer row;
    // Warehouse tax.
    Status s = ctx.Get(RecordKey{TpccWorkload::kWarehouse,
                                 wl->WarehouseKey(w)}, &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    const double w_tax = row.GetDouble(1);

    // District: read and advance next_o_id.
    s = ctx.Get(RecordKey{TpccWorkload::kDistrict, wl->DistrictKey(w, d)},
                &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    const double d_tax = row.GetDouble(1);
    const uint64_t o_id = row.GetUint64(2);
    row.SetUint64(2, o_id + 1);
    s = ctx.Put(RecordKey{TpccWorkload::kDistrict, wl->DistrictKey(w, d)},
                row.Encode());
    if (!s.ok()) return s;

    // Customer discount.
    s = ctx.Get(RecordKey{TpccWorkload::kCustomer, wl->CustomerKey(w, d, c)},
                &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    const double discount = row.GetDouble(3);

    // Insert ORDER and NEW-ORDER rows.
    s = ctx.Insert(RecordKey{TpccWorkload::kOrder, wl->OrderKey(w, d, o_id)},
                   EncodeOrder(c, items.size(), 0));
    if (!s.ok()) return s;
    s = ctx.Insert(RecordKey{TpccWorkload::kNewOrderTable,
                             wl->OrderKey(w, d, o_id)},
                   EncodeNewOrder());
    if (!s.ok()) return s;

    std::vector<PartitionId> stock_partitions;
    for (uint32_t line = 0; line < items.size(); ++line) {
      const auto& oi = items[line];
      stock_partitions.push_back(wl->StockPartition(oi.supply_w, oi.item));
      // Item price (static read-only table).
      s = ctx.Get(RecordKey{TpccWorkload::kItem, wl->ItemKey(oi.item)}, &raw);
      if (!s.ok()) return s;
      if (Status p = ParseRow(raw, &row); !p.ok()) return p;
      const double price = row.GetDouble(0);

      // Stock update at the supply warehouse.
      const RecordKey stock_key{TpccWorkload::kStock,
                                wl->StockKey(oi.supply_w, oi.item)};
      s = ctx.Get(stock_key, &raw);
      if (!s.ok()) return s;
      if (Status p = ParseRow(raw, &row); !p.ok()) return p;
      uint64_t quantity = row.GetUint64(0);
      quantity = quantity >= oi.qty + 10 ? quantity - oi.qty
                                         : quantity - oi.qty + 91;
      row.SetUint64(0, quantity);
      row.SetDouble(1, row.GetDouble(1) + oi.qty);
      row.SetUint64(2, row.GetUint64(2) + 1);
      if (oi.supply_w != w) row.SetUint64(3, row.GetUint64(3) + 1);
      s = ctx.Put(stock_key, row.Encode());
      if (!s.ok()) return s;

      const double amount =
          oi.qty * price * (1.0 + w_tax + d_tax) * (1.0 - discount);
      s = ctx.Insert(RecordKey{TpccWorkload::kOrderLine,
                               wl->OrderLineKey(w, d, o_id, line)},
                     EncodeOrderLine(oi.item, oi.supply_w, oi.qty, amount));
      if (!s.ok()) return s;
    }
    // Reconnaissance memory for Stock-Level read-set declarations.
    wl->RecordOrderStockPartitions(w, d, stock_partitions);
    return Status::OK();
  };
  return txn;
}

WorkloadTxn TpccClient::MakePayment() {
  TpccWorkload* wl = workload_;
  const auto& opt = wl->options();
  const uint32_t w = home_warehouse_;
  const uint32_t d =
      static_cast<uint32_t>(rng_.Uniform(opt.districts_per_warehouse));
  const bool remote =
      rng_.Uniform(100) < opt.remote_payment_pct && opt.num_warehouses > 1;
  const uint32_t c_w = remote ? RandomOtherWarehouse(w) : w;
  const uint32_t c_d =
      static_cast<uint32_t>(rng_.Uniform(opt.districts_per_warehouse));
  const uint32_t c =
      static_cast<uint32_t>(rng_.Uniform(opt.customers_per_district));
  const double amount = 1.0 + static_cast<double>(rng_.Uniform(499900)) / 100.0;
  const uint64_t history_unique =
      (client_tag_ << 20) | (history_seq_++ & 0xfffff);

  WorkloadTxn txn;
  txn.type = "payment";
  txn.profile.write_keys = {
      RecordKey{TpccWorkload::kWarehouse, wl->WarehouseKey(w)},
      RecordKey{TpccWorkload::kDistrict, wl->DistrictKey(w, d)},
      RecordKey{TpccWorkload::kCustomer, wl->CustomerKey(c_w, c_d, c)},
  };
  txn.logic = [wl, w, d, c_w, c_d, c, amount,
               history_unique](core::TxnContext& ctx) -> Status {
    std::string raw;
    RowBuffer row;
    const RecordKey w_key{TpccWorkload::kWarehouse, wl->WarehouseKey(w)};
    Status s = ctx.Get(w_key, &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    row.SetDouble(0, row.GetDouble(0) + amount);
    s = ctx.Put(w_key, row.Encode());
    if (!s.ok()) return s;

    const RecordKey d_key{TpccWorkload::kDistrict, wl->DistrictKey(w, d)};
    s = ctx.Get(d_key, &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    row.SetDouble(0, row.GetDouble(0) + amount);
    s = ctx.Put(d_key, row.Encode());
    if (!s.ok()) return s;

    const RecordKey c_key{TpccWorkload::kCustomer,
                          wl->CustomerKey(c_w, c_d, c)};
    s = ctx.Get(c_key, &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    row.SetDouble(0, row.GetDouble(0) - amount);
    row.SetDouble(1, row.GetDouble(1) + amount);
    row.SetInt64(2, row.GetInt64(2) + 1);
    s = ctx.Put(c_key, row.Encode());
    if (!s.ok()) return s;

    return ctx.Insert(RecordKey{TpccWorkload::kHistory,
                                wl->HistoryKey(w, d, history_unique)},
                      EncodeHistory(amount));
  };
  return txn;
}

WorkloadTxn TpccClient::MakeStockLevel() {
  TpccWorkload* wl = workload_;
  const auto& opt = wl->options();
  const uint32_t w = home_warehouse_;
  const uint32_t d =
      static_cast<uint32_t>(rng_.Uniform(opt.districts_per_warehouse));
  const uint64_t threshold = rng_.UniformRange(10, 20);

  WorkloadTxn txn;
  txn.type = "stock-level";
  txn.profile.read_only = true;
  // Declared read partitions (reconnaissance; Section II-B1): the home
  // district partition (district row, orders, order lines) plus the stock
  // partitions the district's recent orders touched.
  txn.profile.read_partitions.push_back(wl->DistrictPartition(w, d));
  for (PartitionId p : wl->RecentStockPartitions(w, d)) {
    txn.profile.read_partitions.push_back(p);
  }
  txn.logic = [wl, w, d, threshold](core::TxnContext& ctx) -> Status {
    std::string raw;
    RowBuffer row;
    Status s = ctx.Get(RecordKey{TpccWorkload::kDistrict,
                                 wl->DistrictKey(w, d)}, &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    const uint64_t next_o_id = row.GetUint64(2);

    uint64_t low_stock = 0;
    const uint64_t first =
        next_o_id > 20 ? next_o_id - 20 : 1;
    for (uint64_t o = first; o < next_o_id; ++o) {
      s = ctx.Get(RecordKey{TpccWorkload::kOrder, wl->OrderKey(w, d, o)},
                  &raw);
      if (s.IsNotFound()) continue;  // not yet visible in this snapshot
      if (!s.ok()) return s;
      if (Status p = ParseRow(raw, &row); !p.ok()) return p;
      const uint64_t ol_cnt = row.GetUint64(1);
      for (uint64_t line = 0; line < ol_cnt; ++line) {
        s = ctx.Get(RecordKey{TpccWorkload::kOrderLine,
                              wl->OrderLineKey(w, d, o,
                                               static_cast<uint32_t>(line))},
                    &raw);
        if (s.IsNotFound()) continue;
        if (!s.ok()) return s;
        RowBuffer ol;
        if (Status p = ParseRow(raw, &ol); !p.ok()) return p;
        const uint32_t item = static_cast<uint32_t>(ol.GetUint64(0));
        const uint32_t supply = static_cast<uint32_t>(ol.GetUint64(1));
        s = ctx.Get(RecordKey{TpccWorkload::kStock,
                              wl->StockKey(supply, item)}, &raw);
        if (s.IsNotFound()) continue;
        if (!s.ok()) return s;
        RowBuffer stock;
        if (Status p = ParseRow(raw, &stock); !p.ok()) return p;
        if (stock.GetUint64(0) < threshold) ++low_stock;
      }
    }
    (void)low_stock;
    return Status::OK();
  };
  return txn;
}

WorkloadTxn TpccClient::MakeOrderStatus() {
  TpccWorkload* wl = workload_;
  const auto& opt = wl->options();
  const uint32_t w = home_warehouse_;
  const uint32_t d =
      static_cast<uint32_t>(rng_.Uniform(opt.districts_per_warehouse));
  const uint32_t c =
      static_cast<uint32_t>(rng_.Uniform(opt.customers_per_district));

  WorkloadTxn txn;
  txn.type = "order-status";
  txn.profile.read_only = true;
  txn.profile.read_partitions = {wl->DistrictPartition(w, d)};
  txn.profile.read_keys.push_back(
      RecordKey{TpccWorkload::kCustomer, wl->CustomerKey(w, d, c)});
  txn.logic = [wl, w, d, c](core::TxnContext& ctx) -> Status {
    std::string raw;
    RowBuffer row;
    // Customer balance.
    Status s = ctx.Get(RecordKey{TpccWorkload::kCustomer,
                                 wl->CustomerKey(w, d, c)}, &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    // Find the customer's most recent order (scan back up to 20 orders
    // from the district's order horizon).
    s = ctx.Get(RecordKey{TpccWorkload::kDistrict, wl->DistrictKey(w, d)},
                &raw);
    if (!s.ok()) return s;
    if (Status p = ParseRow(raw, &row); !p.ok()) return p;
    const uint64_t next_o_id = row.GetUint64(2);
    const uint64_t first = next_o_id > 20 ? next_o_id - 20 : 1;
    for (uint64_t o = next_o_id; o-- > first;) {
      s = ctx.Get(RecordKey{TpccWorkload::kOrder, wl->OrderKey(w, d, o)},
                  &raw);
      if (s.IsNotFound()) continue;
      if (!s.ok()) return s;
      RowBuffer order;
      if (Status p = ParseRow(raw, &order); !p.ok()) return p;
      if (order.GetUint64(0) != c) continue;
      // Read its order lines.
      const uint64_t lines = order.GetUint64(1);
      for (uint64_t line = 0; line < lines; ++line) {
        s = ctx.Get(RecordKey{TpccWorkload::kOrderLine,
                              wl->OrderLineKey(w, d, o,
                                               static_cast<uint32_t>(line))},
                    &raw);
        if (s.IsNotFound()) continue;
        if (!s.ok()) return s;
      }
      break;
    }
    return Status::OK();
  };
  return txn;
}

}  // namespace

std::unique_ptr<WorkloadClient> TpccWorkload::MakeClient(uint64_t index) {
  return std::make_unique<TpccClient>(
      this, index, options_.seed * 0x2545f4914f6cdd1dULL + index + 1);
}

}  // namespace dynamast::workloads
