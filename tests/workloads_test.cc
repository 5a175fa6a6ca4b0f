// Tests for the workload generators: YCSB key-selection machinery
// (Appendix C), TPC-C transactions and consistency conditions, SmallBank
// money conservation, and the benchmark driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "core/dynamast_system.h"
#include "storage/row_buffer.h"
#include "workloads/driver.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"
#include "workloads/ycsb.h"

namespace dynamast::workloads {
namespace {

core::DynaMastSystem::Options FastSystem(uint32_t sites) {
  core::DynaMastSystem::Options options;
  options.cluster.num_sites = sites;
  options.cluster.network.charge_delays = false;
  options.cluster.site.read_op_cost = options.cluster.site.write_op_cost =
      options.cluster.site.apply_op_cost = std::chrono::microseconds(0);
  options.cluster.site.worker_slots = 8;
  options.selector.sample_rate = 1.0;
  return options;
}

// ---- YCSB -------------------------------------------------------------------

YcsbWorkload::Options SmallYcsb() {
  YcsbWorkload::Options options;
  options.num_keys = 2000;
  options.keys_per_partition = 100;
  options.value_size = 32;
  options.affinity_txns = 10;
  return options;
}

TEST(YcsbTest, ValueCodecRoundTrip) {
  const std::string value = YcsbWorkload::MakeValue(12345, 64);
  EXPECT_EQ(value.size(), 64u);
  EXPECT_EQ(YcsbWorkload::ValueCounter(value), 12345u);
}

TEST(YcsbTest, PartitionerMatchesAppendixLayout) {
  YcsbWorkload workload(SmallYcsb());
  EXPECT_EQ(workload.num_partitions(), 20u);
  EXPECT_EQ(workload.partitioner().PartitionOf(RecordKey{0, 0}), 0u);
  EXPECT_EQ(workload.partitioner().PartitionOf(RecordKey{0, 99}), 0u);
  EXPECT_EQ(workload.partitioner().PartitionOf(RecordKey{0, 100}), 1u);
  EXPECT_EQ(workload.partitioner().PartitionOf(RecordKey{0, 1999}), 19u);
}

TEST(YcsbTest, RmwTransactionsHaveThreeKeysInNeighbourhood) {
  auto options = SmallYcsb();
  options.rmw_pct = 100;
  YcsbWorkload workload(options);
  auto client = workload.MakeClient(0);
  for (int i = 0; i < 50; ++i) {
    WorkloadTxn txn = client->Next();
    EXPECT_STREQ(txn.type, "rmw");
    EXPECT_FALSE(txn.profile.read_only);
    ASSERT_EQ(txn.profile.write_keys.size(), 3u);
    // All keys within bounds; companions within the Bernoulli(5, .5)
    // neighbourhood of the base partition (offset in [-3, 2]).
    const PartitionId base =
        workload.partitioner().PartitionOf(txn.profile.write_keys[0]);
    for (const RecordKey& key : txn.profile.write_keys) {
      EXPECT_LT(key.row, options.num_keys);
      const int64_t offset =
          static_cast<int64_t>(
              workload.partitioner().PartitionOf(key)) -
          static_cast<int64_t>(base);
      EXPECT_GE(offset, -3);
      EXPECT_LE(offset, 2);
    }
  }
}

TEST(YcsbTest, ScanTransactionsReadConsecutivePartitions) {
  auto options = SmallYcsb();
  options.rmw_pct = 0;
  YcsbWorkload workload(options);
  auto client = workload.MakeClient(0);
  for (int i = 0; i < 30; ++i) {
    WorkloadTxn txn = client->Next();
    EXPECT_STREQ(txn.type, "scan");
    EXPECT_TRUE(txn.profile.read_only);
    // 2..10 partitions of 100 keys (clamped at the keyspace edge).
    EXPECT_GE(txn.profile.read_keys.size(), 100u);
    EXPECT_LE(txn.profile.read_keys.size(), 1000u);
    std::set<PartitionId> partitions;
    for (const RecordKey& key : txn.profile.read_keys) {
      partitions.insert(workload.partitioner().PartitionOf(key));
    }
    EXPECT_LE(partitions.size(), 10u);
  }
}

// Regression for moving the key set into the transaction closure: the
// profile assignments must happen before the move, and the logic must
// still iterate the full set. A reordering that moves `keys` before the
// profile copies (or a double move) leaves one side empty.
TEST(YcsbTest, TxnLogicOperatesOnDeclaredProfileKeys) {
  class RecordingContext final : public core::TxnContext {
   public:
    Status Get(const RecordKey& key, std::string* value) override {
      touched.push_back(key);
      *value = YcsbWorkload::MakeValue(0, 8);
      return Status::OK();
    }
    Status Put(const RecordKey&, std::string) override { return Status::OK(); }
    Status Insert(const RecordKey&, std::string) override {
      return Status::OK();
    }
    std::vector<RecordKey> touched;
  };

  auto options = SmallYcsb();
  options.rmw_pct = 100;
  YcsbWorkload rmw_workload(options);
  WorkloadTxn rmw = rmw_workload.MakeClient(0)->Next();
  ASSERT_FALSE(rmw.profile.write_keys.empty());
  RecordingContext rmw_ctx;
  ASSERT_TRUE(rmw.logic(rmw_ctx).ok());
  EXPECT_EQ(rmw_ctx.touched, rmw.profile.write_keys);

  options.rmw_pct = 0;
  YcsbWorkload scan_workload(options);
  WorkloadTxn scan = scan_workload.MakeClient(0)->Next();
  ASSERT_FALSE(scan.profile.read_keys.empty());
  RecordingContext scan_ctx;
  ASSERT_TRUE(scan.logic(scan_ctx).ok());
  EXPECT_EQ(scan_ctx.touched, scan.profile.read_keys);
}

TEST(YcsbTest, MixRespectsRmwPercentage) {
  auto options = SmallYcsb();
  options.rmw_pct = 50;
  YcsbWorkload workload(options);
  auto client = workload.MakeClient(3);
  int rmw = 0;
  constexpr int kTxns = 2000;
  for (int i = 0; i < kTxns; ++i) {
    if (std::string(client->Next().type) == "rmw") ++rmw;
  }
  EXPECT_NEAR(static_cast<double>(rmw) / kTxns, 0.5, 0.05);
}

TEST(YcsbTest, AffinityRenewalChangesRegion) {
  auto options = SmallYcsb();
  options.rmw_pct = 100;
  options.affinity_txns = 5;
  YcsbWorkload workload(options);
  auto client = workload.MakeClient(1);
  std::set<PartitionId> bases;
  for (int i = 0; i < 100; ++i) {
    bases.insert(
        workload.partitioner().PartitionOf(client->Next().profile.write_keys[0]));
  }
  // 20 affinity periods over 20 partitions: several distinct regions.
  EXPECT_GE(bases.size(), 3u);
}

TEST(YcsbTest, ShuffleChangesCorrelationOrder) {
  auto options = SmallYcsb();
  YcsbWorkload workload(options);
  std::vector<PartitionId> before;
  for (uint64_t pos = 0; pos < workload.num_partitions(); ++pos) {
    before.push_back(workload.OrderedAt(pos));
  }
  workload.ShuffleCorrelations(123);
  std::vector<PartitionId> after;
  for (uint64_t pos = 0; pos < workload.num_partitions(); ++pos) {
    after.push_back(workload.OrderedAt(pos));
  }
  EXPECT_NE(before, after);
  // Still a permutation, and PositionOf is its inverse.
  std::set<PartitionId> unique(after.begin(), after.end());
  EXPECT_EQ(unique.size(), workload.num_partitions());
  for (uint64_t pos = 0; pos < workload.num_partitions(); ++pos) {
    EXPECT_EQ(workload.PositionOf(after[pos]), pos);
  }
}

TEST(YcsbTest, DeterministicClients) {
  YcsbWorkload a(SmallYcsb()), b(SmallYcsb());
  auto ca = a.MakeClient(5), cb = b.MakeClient(5);
  for (int i = 0; i < 20; ++i) {
    WorkloadTxn ta = ca->Next(), tb = cb->Next();
    ASSERT_EQ(ta.profile.write_keys.size(), tb.profile.write_keys.size());
    for (size_t k = 0; k < ta.profile.write_keys.size(); ++k) {
      EXPECT_EQ(ta.profile.write_keys[k], tb.profile.write_keys[k]);
    }
  }
}

TEST(YcsbTest, ZipfianSkewsBasePartitions) {
  auto options = SmallYcsb();
  options.rmw_pct = 100;
  options.zipfian = true;
  options.affinity_txns = 1;  // fresh base every transaction
  YcsbWorkload workload(options);
  auto client = workload.MakeClient(2);
  std::unordered_map<PartitionId, int> counts;
  for (int i = 0; i < 3000; ++i) {
    counts[workload.partitioner().PartitionOf(
        client->Next().profile.write_keys[0])]++;
  }
  int max_count = 0;
  for (const auto& [p, c] : counts) max_count = std::max(max_count, c);
  // Skewed: the hottest partition gets far more than the uniform share.
  EXPECT_GT(max_count, 3 * 3000 / 20);
}

// ---- TPC-C -------------------------------------------------------------------

TpccWorkload::Options SmallTpcc() {
  TpccWorkload::Options options;
  options.num_warehouses = 3;
  options.districts_per_warehouse = 2;
  options.customers_per_district = 20;
  options.num_items = 50;
  options.initial_orders_per_district = 3;
  return options;
}

class TpccFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = std::make_unique<TpccWorkload>(SmallTpcc());
    core::DynaMastSystem::Options options = FastSystem(3);
    options.selector.weights = selector::StrategyWeights::Tpcc();
    system_ = std::make_unique<core::DynaMastSystem>(
        options, &workload_->partitioner());
    ASSERT_TRUE(workload_->Load(*system_).ok());
    system_->Seal();
  }
  void TearDown() override { system_->Shutdown(); }

  double ReadWarehouseYtd(uint32_t w) {
    return ReadDouble(RecordKey{TpccWorkload::kWarehouse,
                                workload_->WarehouseKey(w)}, 0);
  }
  double ReadDouble(const RecordKey& key, size_t field) {
    std::string raw;
    EXPECT_TRUE(
        system_->cluster().site(0)->engine().ReadLatest(key, &raw).ok());
    storage::RowBuffer row;
    EXPECT_TRUE(storage::RowBuffer::Parse(raw, &row).ok());
    return row.GetDouble(field);
  }

  std::unique_ptr<TpccWorkload> workload_;
  std::unique_ptr<core::DynaMastSystem> system_;
};

TEST_F(TpccFixture, PartitionLayoutBySubWarehouseGroups) {
  // 3 warehouses, 2 districts, 50 items with the default 100-item stock
  // group: per warehouse 1 warehouse + 2 district + 2 customer + 1 stock
  // partitions, plus the trailing ITEM partition.
  const auto& p = workload_->partitioner();
  EXPECT_EQ(workload_->PartitionsPerWarehouse(), 10u);
  EXPECT_EQ(p.NumPartitions(), 3u * 10u + 1u);
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kWarehouse, 2}),
            workload_->WarehousePartition(2));
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kDistrict,
                                    workload_->DistrictKey(1, 1)}),
            workload_->DistrictPartition(1, 1));
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kCustomer,
                                    workload_->CustomerKey(2, 1, 19)}),
            workload_->CustomerPartition(2, 1, 19));
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kStock,
                                    workload_->StockKey(1, 49)}),
            workload_->StockPartition(1, 49));
  // Orders / order lines / new-order / history rows live in their
  // district's partition, so inserts stay inside a mastered partition.
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kOrder,
                                    workload_->OrderKey(2, 0, 55)}),
            workload_->DistrictPartition(2, 0));
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kOrderLine,
                                    workload_->OrderLineKey(2, 0, 55, 3)}),
            workload_->DistrictPartition(2, 0));
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kHistory,
                                    workload_->HistoryKey(2, 0, 99)}),
            workload_->DistrictPartition(2, 0));
  EXPECT_EQ(p.PartitionOf(RecordKey{TpccWorkload::kItem, 7}),
            workload_->ItemPartition());
  // By-warehouse placement keeps every partition of a warehouse together.
  const auto placement = workload_->WarehousePlacement(3);
  EXPECT_EQ(placement[workload_->DistrictPartition(2, 1)], 2u);
  EXPECT_EQ(placement[workload_->StockPartition(2, 10)], 2u);
}

TEST_F(TpccFixture, LoaderPopulatesInitialOrders) {
  std::string raw;
  // District 0 of warehouse 0 has next_o_id = initial + 1 = 4.
  ASSERT_TRUE(system_->cluster().site(0)->engine().ReadLatest(
      RecordKey{TpccWorkload::kDistrict, workload_->DistrictKey(0, 0)}, &raw)
                  .ok());
  storage::RowBuffer row;
  ASSERT_TRUE(storage::RowBuffer::Parse(raw, &row).ok());
  EXPECT_EQ(row.GetUint64(2), 4u);
  EXPECT_TRUE(system_->cluster().site(0)->engine().Contains(
      RecordKey{TpccWorkload::kOrder, workload_->OrderKey(0, 0, 3)}));
}

TEST_F(TpccFixture, AllTransactionTypesExecute) {
  auto client = workload_->MakeClient(0);
  core::ClientState state;
  state.id = 1;
  std::set<std::string> seen;
  for (int i = 0; i < 120 && seen.size() < 3; ++i) {
    WorkloadTxn txn = client->Next();
    core::TxnResult result;
    Status s = system_->Execute(state, txn.profile, txn.logic, &result);
    ASSERT_TRUE(s.ok()) << txn.type << ": " << s.ToString();
    seen.insert(txn.type);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST_F(TpccFixture, NewOrderAdvancesDistrictAndInsertsRows) {
  // Force a deterministic New-Order via a client and execute it.
  auto client = workload_->MakeClient(0);
  core::ClientState state;
  state.id = 1;
  for (int i = 0; i < 200; ++i) {
    WorkloadTxn txn = client->Next();
    if (std::string(txn.type) != "new-order") continue;
    core::TxnResult result;
    ASSERT_TRUE(system_->Execute(state, txn.profile, txn.logic, &result).ok());
    // The district pointed at by the write set advanced its next_o_id and
    // the order row exists.
    const RecordKey district_key = txn.profile.write_keys[0];
    std::string raw;
    ASSERT_TRUE(system_->cluster()
                    .site(result.executed_at)
                    ->engine()
                    .ReadLatest(district_key, &raw)
                    .ok());
    storage::RowBuffer row;
    ASSERT_TRUE(storage::RowBuffer::Parse(raw, &row).ok());
    const uint64_t next_o_id = row.GetUint64(2);
    EXPECT_GE(next_o_id, 5u);
    return;
  }
  FAIL() << "no new-order generated";
}

TEST_F(TpccFixture, PaymentConsistency) {
  // TPC-C consistency condition 1 (scaled): warehouse YTD grows by the sum
  // of payment amounts against it.
  const double initial_ytd = ReadWarehouseYtd(0);
  auto client = workload_->MakeClient(0);  // home warehouse 0
  core::ClientState state;
  state.id = 1;
  int payments = 0;
  for (int i = 0; i < 300 && payments < 10; ++i) {
    WorkloadTxn txn = client->Next();
    if (std::string(txn.type) != "payment") continue;
    core::TxnResult result;
    ASSERT_TRUE(system_->Execute(state, txn.profile, txn.logic, &result).ok());
    ++payments;
  }
  ASSERT_EQ(payments, 10);
  // Wait for replica convergence, then check at site 0.
  const VersionVector target =
      system_->cluster().site(0)->CurrentVersion();
  EXPECT_GT(ReadWarehouseYtd(0), initial_ytd);
  (void)target;
}

TEST_F(TpccFixture, ReconnaissanceTracksRemoteStockPartitions) {
  // After recording a remote-supply order, Stock-Level's declared read
  // partitions include the remote warehouse's stock partition.
  const PartitionId remote_stock = workload_->StockPartition(2, 7);
  workload_->RecordOrderStockPartitions(0, 0, {remote_stock});
  auto partitions = workload_->RecentStockPartitions(0, 0);
  EXPECT_NE(std::find(partitions.begin(), partitions.end(), remote_stock),
            partitions.end());
}

TEST_F(TpccFixture, OrderStatusExecutes) {
  // Enable the Order-Status class and run until one commits.
  auto options = SmallTpcc();
  options.new_order_pct = 30;
  options.payment_pct = 30;
  options.stock_level_pct = 10;  // remaining 30% = order-status
  TpccWorkload workload(options);
  core::DynaMastSystem::Options sys_options = FastSystem(3);
  sys_options.selector.weights = selector::StrategyWeights::Tpcc();
  core::DynaMastSystem system(sys_options, &workload.partitioner());
  ASSERT_TRUE(workload.Load(system).ok());
  system.Seal();
  auto client = workload.MakeClient(0);
  core::ClientState state;
  state.id = 1;
  int order_status_runs = 0;
  for (int i = 0; i < 200 && order_status_runs < 5; ++i) {
    WorkloadTxn txn = client->Next();
    core::TxnResult result;
    Status s = system.Execute(state, txn.profile, txn.logic, &result);
    ASSERT_TRUE(s.ok()) << txn.type << ": " << s.ToString();
    if (std::string(txn.type) == "order-status") {
      EXPECT_TRUE(txn.profile.read_only);
      ++order_status_runs;
    }
  }
  EXPECT_GE(order_status_runs, 5);
  system.Shutdown();
}

TEST(TpccOptionsTest, CrossWarehouseZeroMeansSingleWarehouse) {
  // Without cross-warehouse transactions, every write partition belongs
  // to the client's home warehouse — so under by-warehouse placement the
  // workload is perfectly partitionable (no 2PC, no remastering).
  auto options = SmallTpcc();
  options.cross_warehouse_neworder_pct = 0;
  options.remote_payment_pct = 0;
  TpccWorkload workload(options);
  auto client = workload.MakeClient(0);  // home warehouse 0
  for (int i = 0; i < 100; ++i) {
    WorkloadTxn txn = client->Next();
    if (txn.profile.read_only) continue;
    for (const RecordKey& key : txn.profile.write_keys) {
      const PartitionId p = workload.partitioner().PartitionOf(key);
      EXPECT_EQ(workload.WarehouseOfPartition(p), 0u) << txn.type;
    }
  }
}

// ---- SmallBank ------------------------------------------------------------

SmallBankWorkload::Options SmallSmallBank() {
  SmallBankWorkload::Options options;
  options.num_accounts = 1000;
  options.accounts_per_partition = 100;
  return options;
}

TEST(SmallBankTest, BalanceCodec) {
  const std::string v = SmallBankWorkload::MakeBalance(123.5);
  EXPECT_DOUBLE_EQ(SmallBankWorkload::BalanceOf(v), 123.5);
}

TEST(SmallBankTest, MixPercentages) {
  SmallBankWorkload workload(SmallSmallBank());
  auto client = workload.MakeClient(0);
  std::map<std::string, int> counts;
  constexpr int kTxns = 3000;
  for (int i = 0; i < kTxns; ++i) counts[client->Next().type]++;
  const double single = counts["deposit-checking"] + counts["transact-savings"];
  EXPECT_NEAR(single / kTxns, 0.45, 0.05);
  EXPECT_NEAR(static_cast<double>(counts["send-payment"]) / kTxns, 0.40, 0.05);
  EXPECT_NEAR(static_cast<double>(counts["balance"]) / kTxns, 0.15, 0.04);
}

TEST(SmallBankTest, TransactionsAreAtMostTwoRows) {
  SmallBankWorkload workload(SmallSmallBank());
  auto client = workload.MakeClient(1);
  for (int i = 0; i < 200; ++i) {
    WorkloadTxn txn = client->Next();
    EXPECT_LE(txn.profile.write_keys.size(), 2u);
    EXPECT_LE(txn.profile.read_keys.size(), 2u);
  }
}

TEST(SmallBankTest, ConservationUnderDynaMast) {
  // Deposits add money, so conservation is checked on a transfer-only
  // update mix (SendPayment moves money between accounts).
  auto conservation_options = SmallSmallBank();
  conservation_options.single_update_pct = 0;
  conservation_options.two_row_update_pct = 85;
  SmallBankWorkload workload(conservation_options);
  core::DynaMastSystem system(FastSystem(3), &workload.partitioner());
  ASSERT_TRUE(workload.Load(system).ok());
  system.Seal();

  Driver::Options driver_options;
  driver_options.num_clients = 4;
  driver_options.warmup = std::chrono::milliseconds(50);
  driver_options.measure = std::chrono::milliseconds(400);
  Driver driver(driver_options);
  Driver::Report report = driver.Run(system, workload);
  EXPECT_GT(report.committed, 0u);
  EXPECT_EQ(report.errors, 0u);

  // Total money across all checking+savings accounts is invariant: audit
  // with one consistent snapshot.
  core::ClientState auditor;
  auditor.id = 999;
  core::TxnProfile audit;
  audit.read_only = true;
  double total = 0;
  auto logic = [&total](core::TxnContext& ctx) -> Status {
    for (uint64_t account = 0; account < 1000; ++account) {
      for (TableId t : {SmallBankWorkload::kChecking,
                        SmallBankWorkload::kSavings}) {
        std::string value;
        Status s = ctx.Get(RecordKey{t, account}, &value);
        if (!s.ok()) return s;
        total += SmallBankWorkload::BalanceOf(value);
      }
    }
    return Status::OK();
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(auditor, audit, logic, &result).ok());
  EXPECT_NEAR(total, 1000 * 2 * 10000.0, 0.01);
  system.Shutdown();
}

// ---- Driver -----------------------------------------------------------------

TEST(DriverTest, ReportsThroughputAndLatency) {
  YcsbWorkload workload(SmallYcsb());
  core::DynaMastSystem system(FastSystem(2), &workload.partitioner());
  ASSERT_TRUE(system.CreateTable(YcsbWorkload::kTable).ok());
  ASSERT_TRUE(workload.Load(system).ok());
  system.Seal();

  Driver::Options options;
  options.num_clients = 4;
  options.warmup = std::chrono::milliseconds(50);
  options.measure = std::chrono::milliseconds(300);
  Driver driver(options);
  Driver::Report report = driver.Run(system, workload);

  EXPECT_GT(report.committed, 0u);
  EXPECT_GT(report.Throughput(), 0.0);
  EXPECT_FALSE(report.committed_by_type.empty());
  for (const auto& [type, count] : report.committed_by_type) {
    const LatencyRecorder* latency = report.LatencyFor(type);
    ASSERT_NE(latency, nullptr);
    EXPECT_GT(latency->count(), 0u);
  }
  EXPECT_NE(report.Summary().find("tput="), std::string::npos);
  system.Shutdown();
}

TEST(DriverTest, ScheduledActionFires) {
  YcsbWorkload workload(SmallYcsb());
  core::DynaMastSystem system(FastSystem(2), &workload.partitioner());
  ASSERT_TRUE(workload.Load(system).ok());
  system.Seal();

  std::atomic<bool> fired{false};
  Driver::Options options;
  options.num_clients = 2;
  options.warmup = std::chrono::milliseconds(0);
  options.measure = std::chrono::milliseconds(200);
  options.scheduled_actions.emplace_back(std::chrono::milliseconds(50),
                                         [&fired] { fired.store(true); });
  Driver driver(options);
  driver.Run(system, workload);
  EXPECT_TRUE(fired.load());
  system.Shutdown();
}

}  // namespace
}  // namespace dynamast::workloads
