// End-to-end tests of the DynaMast system: transaction execution across
// sites, strong-session snapshot isolation properties, concurrent-client
// invariants (money conservation), remastering adaptivity, and the
// single-master configuration.

#include "core/dynamast_system.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "common/partitioner.h"
#include "common/random.h"

namespace dynamast::core {
namespace {

constexpr TableId kTable = 0;

DynaMastSystem::Options FastOptions(uint32_t sites,
                                    metrics::Registry* registry = nullptr) {
  DynaMastSystem::Options options;
  options.cluster.num_sites = sites;
  options.cluster.metrics = registry;
  options.cluster.network.charge_delays = false;
  options.cluster.site.read_op_cost = options.cluster.site.write_op_cost =
      options.cluster.site.apply_op_cost = std::chrono::microseconds(0);
  options.cluster.site.worker_slots = 8;
  options.selector.sample_rate = 1.0;
  return options;
}

std::string Num(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint64_t AsNum(const std::string& s) {
  uint64_t v = 0;
  if (s.size() >= 8) memcpy(&v, s.data(), 8);
  return v;
}

class DynaMastFixture : public ::testing::Test {
 protected:
  void Init(uint32_t sites, uint64_t keys, uint64_t keys_per_partition) {
    partitioner_ = std::make_unique<RangePartitioner>(
        keys_per_partition, (keys + keys_per_partition - 1) / keys_per_partition);
    system_ = std::make_unique<DynaMastSystem>(FastOptions(sites, &registry_),
                                               partitioner_.get());
    ASSERT_TRUE(system_->CreateTable(kTable).ok());
    for (uint64_t key = 0; key < keys; ++key) {
      ASSERT_TRUE(system_->LoadRow(RecordKey{kTable, key}, Num(0)).ok());
    }
    system_->Seal();
  }

  void TearDown() override {
    if (system_) system_->Shutdown();
  }

  uint64_t Remastered() const {
    return registry_.CounterValue("selector_remaster_total");
  }

  Status Increment(ClientState& client, const std::vector<uint64_t>& keys,
                   TxnResult* result) {
    TxnProfile profile;
    for (uint64_t key : keys) {
      profile.write_keys.push_back(RecordKey{kTable, key});
    }
    auto logic = [keys](TxnContext& ctx) -> Status {
      for (uint64_t key : keys) {
        std::string value;
        Status s = ctx.Get(RecordKey{kTable, key}, &value);
        if (!s.ok()) return s;
        s = ctx.Put(RecordKey{kTable, key}, Num(AsNum(value) + 1));
        if (!s.ok()) return s;
      }
      return Status::OK();
    };
    return system_->Execute(client, profile, logic, result);
  }

  uint64_t ReadKey(ClientState& client, uint64_t key) {
    TxnProfile profile;
    profile.read_only = true;
    profile.read_keys = {RecordKey{kTable, key}};
    uint64_t out = 0;
    auto logic = [&out, key](TxnContext& ctx) -> Status {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      out = AsNum(value);
      return Status::OK();
    };
    TxnResult result;
    Status s = system_->Execute(client, profile, logic, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  metrics::Registry registry_;
  std::unique_ptr<RangePartitioner> partitioner_;
  std::unique_ptr<DynaMastSystem> system_;
};

TEST_F(DynaMastFixture, SingleKeyWriteAndReadBack) {
  Init(3, 100, 10);
  ClientState client;
  client.id = 1;
  TxnResult result;
  ASSERT_TRUE(Increment(client, {5}, &result).ok());
  EXPECT_EQ(ReadKey(client, 5), 1u);
}

TEST_F(DynaMastFixture, ReadYourWritesAcrossSites) {
  Init(4, 100, 10);
  ClientState client;
  client.id = 1;
  // Write then immediately read many times; SSSI guarantees the client
  // always sees its own update no matter which replica serves the read.
  for (int round = 1; round <= 20; ++round) {
    TxnResult result;
    ASSERT_TRUE(Increment(client, {42}, &result).ok());
    EXPECT_EQ(ReadKey(client, 42), static_cast<uint64_t>(round));
  }
}

TEST_F(DynaMastFixture, MonotonicReadsWithinSession) {
  Init(3, 100, 10);
  ClientState writer, reader;
  writer.id = 1;
  reader.id = 2;
  std::atomic<bool> stop{false};
  std::thread write_thread([&] {
    while (!stop.load()) {
      TxnResult result;
      (void)Increment(writer, {7}, &result);
    }
  });
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const uint64_t now = ReadKey(reader, 7);
    EXPECT_GE(now, last);  // session reads never go backwards
    last = now;
  }
  stop.store(true);
  write_thread.join();
}

TEST_F(DynaMastFixture, CrossPartitionTransactionRemastersOnce) {
  Init(3, 100, 10);
  ClientState client;
  client.id = 1;
  TxnResult first, second;
  ASSERT_TRUE(Increment(client, {5, 15, 25}, &first).ok());
  ASSERT_TRUE(Increment(client, {5, 15, 25}, &second).ok());
  EXPECT_TRUE(first.remastered);
  EXPECT_FALSE(second.remastered);
  EXPECT_EQ(first.executed_at, second.executed_at);
  EXPECT_EQ(ReadKey(client, 5), 2u);
  EXPECT_EQ(ReadKey(client, 15), 2u);
}

TEST_F(DynaMastFixture, AbortedLogicLeavesNoTrace) {
  Init(2, 100, 10);
  ClientState client;
  client.id = 1;
  TxnProfile profile;
  profile.write_keys = {RecordKey{kTable, 3}};
  auto logic = [](TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, 3}, &value);
    if (!s.ok()) return s;
    s = ctx.Put(RecordKey{kTable, 3}, Num(999));
    if (!s.ok()) return s;
    return Status::Aborted("user abort");
  };
  TxnResult result;
  EXPECT_TRUE(system_->Execute(client, profile, logic, &result).IsAborted());
  EXPECT_EQ(ReadKey(client, 3), 0u);
}

// Money-conservation property: concurrent multi-key increments/decrements
// preserve the global sum (write-write conflicts are excluded by record
// locks; snapshots are consistent).
TEST_F(DynaMastFixture, ConcurrentTransfersConserveTotal) {
  Init(3, 60, 10);
  constexpr int kClients = 6;
  constexpr int kTxnsPerClient = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientState client;
      client.id = t + 1;
      Random rng(t + 1);
      for (int i = 0; i < kTxnsPerClient; ++i) {
        const uint64_t a = rng.Uniform(60);
        uint64_t b = rng.Uniform(60);
        if (b == a) b = (b + 1) % 60;
        // Transfer: a += 1, b -= 1 (wrapping uint arithmetic still sums).
        TxnProfile profile;
        profile.write_keys = {RecordKey{kTable, a}, RecordKey{kTable, b}};
        auto logic = [a, b](TxnContext& ctx) -> Status {
          std::string value;
          Status s = ctx.Get(RecordKey{kTable, a}, &value);
          if (!s.ok()) return s;
          s = ctx.Put(RecordKey{kTable, a}, Num(AsNum(value) + 1));
          if (!s.ok()) return s;
          s = ctx.Get(RecordKey{kTable, b}, &value);
          if (!s.ok()) return s;
          return ctx.Put(RecordKey{kTable, b}, Num(AsNum(value) - 1));
        };
        TxnResult result;
        if (!system_->Execute(client, profile, logic, &result).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Audit with a single read-only transaction: its MVCC snapshot is
  // consistent, so the wrapping sum of (+1, -1) transfers must be zero —
  // even if the serving replica lags, a snapshot never shows half a
  // transfer. This is precisely the SI guarantee.
  ClientState auditor;
  auditor.id = 999;
  TxnProfile audit;
  audit.read_only = true;
  uint64_t total = 0;
  auto audit_logic = [&total](TxnContext& ctx) -> Status {
    total = 0;  // logic may rerun on a fresher snapshot
    for (uint64_t key = 0; key < 60; ++key) {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      total += AsNum(value);
    }
    return Status::OK();
  };
  TxnResult audit_result;
  ASSERT_TRUE(system_->Execute(auditor, audit, audit_logic, &audit_result).ok());
  EXPECT_EQ(total, 0u);
}

TEST_F(DynaMastFixture, WorkloadLocalityConcentratesMastership) {
  Init(4, 400, 10);  // 40 partitions round-robin over 4 sites
  // One client hammers partitions 0..3 together; the strategy should
  // co-locate them at one site.
  ClientState client;
  client.id = 1;
  for (int i = 0; i < 30; ++i) {
    TxnResult result;
    ASSERT_TRUE(Increment(client, {5, 15, 25, 35}, &result).ok());
  }
  const SiteId owner = system_->site_selector().partition_map().MasterOfLocked(0);
  for (PartitionId p = 1; p <= 3; ++p) {
    EXPECT_EQ(system_->site_selector().partition_map().MasterOfLocked(p), owner);
  }
  // And remastering stopped happening (amortized).
  EXPECT_LE(Remastered(), 2u);
}

TEST_F(DynaMastFixture, SingleMasterConfigurationNeverRemasters) {
  DynaMastSystem::Options options =
      DynaMastSystem::SingleMasterOptions(FastOptions(3, &registry_));
  partitioner_ = std::make_unique<RangePartitioner>(10, 10);
  system_ = std::make_unique<DynaMastSystem>(options, partitioner_.get());
  ASSERT_TRUE(system_->CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(system_->LoadRow(RecordKey{kTable, key}, Num(0)).ok());
  }
  system_->Seal();
  EXPECT_EQ(system_->name(), "single-master");

  ClientState client;
  client.id = 1;
  for (int i = 0; i < 10; ++i) {
    TxnResult result;
    ASSERT_TRUE(Increment(client, {5, 15, 25}, &result).ok());
    EXPECT_EQ(result.executed_at, 0u);  // all writes at the master site
    EXPECT_FALSE(result.remastered);
  }
  EXPECT_EQ(Remastered(), 0u);
  // Let replicas catch up so they qualify as session-fresh read targets.
  const VersionVector master_version =
      system_->cluster().site(0)->CurrentVersion();
  for (SiteId s = 1; s < 3; ++s) {
    ASSERT_TRUE(system_->cluster().site(s)->WaitForVersion(master_version).ok());
  }
  // Reads still spread over replicas.
  std::set<SiteId> read_sites;
  for (int i = 0; i < 40; ++i) {
    TxnProfile profile;
    profile.read_only = true;
    TxnResult result;
    auto logic = [](TxnContext& ctx) -> Status {
      std::string value;
      return ctx.Get(RecordKey{kTable, 1}, &value);
    };
    ASSERT_TRUE(system_->Execute(client, profile, logic, &result).ok());
    read_sites.insert(result.executed_at);
  }
  EXPECT_GE(read_sites.size(), 2u);
}

TEST_F(DynaMastFixture, CustomPlacementRespected) {
  DynaMastSystem::Options options = FastOptions(2, &registry_);
  options.placement = InitialPlacement::kCustom;
  options.custom_placement = {1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
  partitioner_ = std::make_unique<RangePartitioner>(10, 10);
  system_ = std::make_unique<DynaMastSystem>(options, partitioner_.get());
  ASSERT_TRUE(system_->CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(system_->LoadRow(RecordKey{kTable, key}, Num(0)).ok());
  }
  system_->Seal();
  EXPECT_EQ(system_->name(), "dynamast");
  EXPECT_EQ(system_->site_selector().partition_map().MasterOfLocked(0), 1u);
  EXPECT_EQ(system_->site_selector().partition_map().MasterOfLocked(9), 0u);
  EXPECT_TRUE(system_->cluster().site(1)->IsMasterOf(0));
  EXPECT_FALSE(system_->cluster().site(0)->IsMasterOf(0));
}

// Parameterized sweep: the core invariants hold across site counts.
class DynaMastSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DynaMastSweep, TransfersConserveAcrossSiteCounts) {
  const uint32_t sites = GetParam();
  RangePartitioner partitioner(10, 6);
  DynaMastSystem system(FastOptions(sites), &partitioner);
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 60; ++key) {
    ASSERT_TRUE(system.LoadRow(RecordKey{kTable, key}, Num(1000)).ok());
  }
  system.Seal();

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ClientState client;
      client.id = t + 1;
      Random rng(t * 7 + 1);
      for (int i = 0; i < 25; ++i) {
        const uint64_t a = rng.Uniform(60);
        uint64_t b = rng.Uniform(60);
        if (a == b) b = (b + 7) % 60;
        TxnProfile profile;
        profile.write_keys = {RecordKey{kTable, a}, RecordKey{kTable, b}};
        auto logic = [a, b](TxnContext& ctx) -> Status {
          std::string value;
          Status s = ctx.Get(RecordKey{kTable, a}, &value);
          if (!s.ok()) return s;
          s = ctx.Put(RecordKey{kTable, a}, Num(AsNum(value) - 5));
          if (!s.ok()) return s;
          s = ctx.Get(RecordKey{kTable, b}, &value);
          if (!s.ok()) return s;
          return ctx.Put(RecordKey{kTable, b}, Num(AsNum(value) + 5));
        };
        TxnResult result;
        ASSERT_TRUE(system.Execute(client, profile, logic, &result).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // One consistent snapshot over all keys (SI).
  ClientState auditor;
  auditor.id = 99;
  TxnProfile audit;
  audit.read_only = true;
  uint64_t total = 0;
  auto audit_logic = [&total](TxnContext& ctx) -> Status {
    total = 0;  // logic may rerun on a fresher snapshot
    for (uint64_t key = 0; key < 60; ++key) {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      total += AsNum(value);
    }
    return Status::OK();
  };
  TxnResult audit_result;
  ASSERT_TRUE(system.Execute(auditor, audit, audit_logic, &audit_result).ok());
  EXPECT_EQ(total, 60u * 1000u);
  system.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(SiteCounts, DynaMastSweep,
                         ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace dynamast::core
