// Tests for the baseline systems: multi-master / partition-store (static
// placement + two-phase commit) and LEAP (single-site execution via data
// shipping). Atomicity under injected 2PC aborts, replication behaviour,
// remote reads, and ownership transfer are all covered.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "baselines/leap_system.h"
#include "baselines/partitioned_system.h"
#include "baselines/static_placement.h"
#include "common/partitioner.h"
#include "common/random.h"

namespace dynamast::baselines {
namespace {

constexpr TableId kTable = 0;

std::string Num(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint64_t AsNum(const std::string& s) {
  uint64_t v = 0;
  if (s.size() >= 8) memcpy(&v, s.data(), 8);
  return v;
}

core::Cluster::Options FastCluster(uint32_t sites,
                                   metrics::Registry* registry = nullptr) {
  core::Cluster::Options options;
  options.num_sites = sites;
  options.metrics = registry;
  options.network.charge_delays = false;
  options.site.read_op_cost = options.site.write_op_cost =
      options.site.apply_op_cost = std::chrono::microseconds(0);
  options.site.worker_slots = 8;
  return options;
}

uint64_t PartitionedTxns(const metrics::Registry& registry, const char* kind) {
  return registry.CounterValue("partitioned_txns_total", {{"kind", kind}});
}

uint64_t ShippedPartitions(const metrics::Registry& registry) {
  return registry.CounterValue("leap_shipped_partitions_total");
}

template <typename System>
void LoadKeys(System& system, uint64_t keys, uint64_t initial) {
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < keys; ++key) {
    ASSERT_TRUE(system.LoadRow(RecordKey{kTable, key}, Num(initial)).ok());
  }
  system.Seal();
}

core::TxnProfile TransferProfile(uint64_t a, uint64_t b) {
  core::TxnProfile profile;
  profile.write_keys = {RecordKey{kTable, a}, RecordKey{kTable, b}};
  profile.read_keys = profile.write_keys;
  return profile;
}

core::TxnLogic TransferLogic(uint64_t a, uint64_t b, uint64_t amount) {
  return [a, b, amount](core::TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, a}, &value);
    if (!s.ok()) return s;
    s = ctx.Put(RecordKey{kTable, a}, Num(AsNum(value) - amount));
    if (!s.ok()) return s;
    s = ctx.Get(RecordKey{kTable, b}, &value);
    if (!s.ok()) return s;
    return ctx.Put(RecordKey{kTable, b}, Num(AsNum(value) + amount));
  };
}

// ---- PartitionedSystem: multi-master ----------------------------------------

TEST(MultiMasterTest, LocalWriteWhenWriteSetSingleSited) {
  RangePartitioner partitioner(10, 10);
  metrics::Registry registry;
  // Explicit chunk of 5: partitions 0-4 -> site 0, 5-9 -> site 1.
  auto options = PartitionedSystem::MultiMaster(
      FastCluster(2, &registry), RangePlacement(10, 2, /*chunk=*/5));
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 100, 100);
  core::ClientState client;
  client.id = 1;
  core::TxnResult result;
  // Keys 5 and 15: partitions 0 and 1, both owned by site 0 under range
  // placement (partitions 0-4 -> site 0).
  ASSERT_TRUE(system
                  .Execute(client, TransferProfile(5, 15),
                           TransferLogic(5, 15, 10), &result)
                  .ok());
  EXPECT_FALSE(result.distributed);
  EXPECT_EQ(PartitionedTxns(registry, "single_site"), 1u);
  EXPECT_EQ(PartitionedTxns(registry, "distributed"), 0u);
  system.Shutdown();
}

TEST(MultiMasterTest, DistributedWriteUses2pc) {
  RangePartitioner partitioner(10, 10);
  metrics::Registry registry;
  auto options = PartitionedSystem::MultiMaster(FastCluster(2, &registry),
                                                RangePlacement(10, 2));
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 100, 100);
  core::ClientState client;
  client.id = 1;
  core::TxnResult result;
  // Keys 5 (site 0) and 95 (site 1): a distributed transaction.
  ASSERT_TRUE(system
                  .Execute(client, TransferProfile(5, 95),
                           TransferLogic(5, 95, 10), &result)
                  .ok());
  EXPECT_TRUE(result.distributed);
  EXPECT_EQ(PartitionedTxns(registry, "distributed"), 1u);

  // Both writes are visible to a subsequent read-only transaction of the
  // same session (replicas + session freshness).
  core::TxnProfile read;
  read.read_only = true;
  read.read_keys = {RecordKey{kTable, 5}, RecordKey{kTable, 95}};
  uint64_t a = 0, b = 0;
  auto logic = [&](core::TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, 5}, &value);
    if (!s.ok()) return s;
    a = AsNum(value);
    s = ctx.Get(RecordKey{kTable, 95}, &value);
    if (!s.ok()) return s;
    b = AsNum(value);
    return Status::OK();
  };
  ASSERT_TRUE(system.Execute(client, read, logic, &result).ok());
  EXPECT_EQ(a, 90u);
  EXPECT_EQ(b, 110u);
  system.Shutdown();
}

TEST(MultiMasterTest, InjectedPrepareAbortIsAtomic) {
  RangePartitioner partitioner(10, 10);
  auto options = PartitionedSystem::MultiMaster(FastCluster(2),
                                                RangePlacement(10, 2));
  options.injected_abort_probability = 1.0;  // every prepare vote fails
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 100, 100);
  core::ClientState client;
  client.id = 1;
  core::TxnResult result;
  EXPECT_TRUE(system
                  .Execute(client, TransferProfile(5, 95),
                           TransferLogic(5, 95, 10), &result)
                  .IsAborted());
  // All-or-nothing: neither site shows a partial write.
  for (SiteId s = 0; s < 2; ++s) {
    std::string value;
    if (system.cluster().site(s)->engine().ReadLatest(RecordKey{kTable, 5},
                                                      &value).ok()) {
      EXPECT_EQ(AsNum(value), 100u);
    }
    if (system.cluster().site(s)->engine().ReadLatest(RecordKey{kTable, 95},
                                                      &value).ok()) {
      EXPECT_EQ(AsNum(value), 100u);
    }
  }
  system.Shutdown();
}

TEST(MultiMasterTest, ConcurrentMixConservesTotal) {
  RangePartitioner partitioner(10, 6);
  auto options = PartitionedSystem::MultiMaster(FastCluster(3),
                                                RangePlacement(6, 3));
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 60, 1000);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  // Multi-master gives strong-session SI, not atomic visibility of a 2PC
  // transfer (DESIGN.md modeling decision 7): a replica may show one
  // participant's half. The audit therefore runs under the writers'
  // merged session, which every participant's commit has folded into.
  std::vector<VersionVector> sessions(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      core::ClientState client;
      client.id = t + 1;
      Random rng(t + 11);
      for (int i = 0; i < 25; ++i) {
        const uint64_t a = rng.Uniform(60);
        uint64_t b = rng.Uniform(60);
        if (a == b) b = (b + 13) % 60;
        core::TxnResult result;
        if (!system
                 .Execute(client, TransferProfile(a, b),
                          TransferLogic(a, b, 3), &result)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
      sessions[t] = client.session;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  core::ClientState auditor;
  auditor.id = 77;
  for (const VersionVector& session : sessions) {
    auditor.session.MaxWith(session);
  }
  core::TxnProfile audit;
  audit.read_only = true;
  for (uint64_t key = 0; key < 60; ++key) {
    audit.read_keys.push_back(RecordKey{kTable, key});
  }
  uint64_t total = 0;
  auto logic = [&total](core::TxnContext& ctx) -> Status {
    total = 0;  // logic may rerun on a fresher snapshot
    for (uint64_t key = 0; key < 60; ++key) {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      total += AsNum(value);
    }
    return Status::OK();
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(auditor, audit, logic, &result).ok());
  EXPECT_EQ(total, 60u * 1000u);
  system.Shutdown();
}

// ---- PartitionedSystem: partition-store -------------------------------------

TEST(PartitionStoreTest, DataLivesOnlyAtOwner) {
  RangePartitioner partitioner(10, 10);
  auto options = PartitionedSystem::PartitionStore(FastCluster(2),
                                                   RangePlacement(10, 2));
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 100, 7);
  // Key 5 -> partition 0 -> site 0 only.
  EXPECT_TRUE(system.cluster().site(0)->engine().Contains(RecordKey{kTable, 5}));
  EXPECT_FALSE(system.cluster().site(1)->engine().Contains(RecordKey{kTable, 5}));
  system.Shutdown();
}

TEST(PartitionStoreTest, ReplicatedStaticRowsEverywhere) {
  RangePartitioner partitioner(10, 10);
  auto options = PartitionedSystem::PartitionStore(FastCluster(2),
                                                   RangePlacement(10, 2));
  PartitionedSystem system(options, &partitioner);
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  ASSERT_TRUE(system.LoadReplicatedRow(RecordKey{kTable, 5}, Num(1)).ok());
  EXPECT_TRUE(system.cluster().site(0)->engine().Contains(RecordKey{kTable, 5}));
  EXPECT_TRUE(system.cluster().site(1)->engine().Contains(RecordKey{kTable, 5}));
  system.Shutdown();
}

TEST(PartitionStoreTest, MultiSiteReadGathers) {
  RangePartitioner partitioner(10, 10);
  auto options = PartitionedSystem::PartitionStore(FastCluster(2),
                                                   RangePlacement(10, 2));
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 100, 5);
  core::ClientState client;
  client.id = 1;
  core::TxnProfile read;
  read.read_only = true;
  read.read_keys = {RecordKey{kTable, 5}, RecordKey{kTable, 95}};
  uint64_t total = 0;
  auto logic = [&total](core::TxnContext& ctx) -> Status {
    total = 0;  // logic may rerun on a fresher snapshot
    for (uint64_t key : {5ull, 95ull}) {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      total += AsNum(value);
    }
    return Status::OK();
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(client, read, logic, &result).ok());
  EXPECT_EQ(total, 10u);
  EXPECT_TRUE(result.distributed);
  system.Shutdown();
}

TEST(PartitionStoreTest, DistributedWriteCommitsAtomically) {
  RangePartitioner partitioner(10, 10);
  auto options = PartitionedSystem::PartitionStore(FastCluster(2),
                                                   RangePlacement(10, 2));
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 100, 100);
  core::ClientState client;
  client.id = 1;
  core::TxnResult result;
  ASSERT_TRUE(system
                  .Execute(client, TransferProfile(5, 95),
                           TransferLogic(5, 95, 25), &result)
                  .ok());
  std::string value;
  ASSERT_TRUE(system.cluster().site(0)->engine().ReadLatest(
      RecordKey{kTable, 5}, &value).ok());
  EXPECT_EQ(AsNum(value), 75u);
  ASSERT_TRUE(system.cluster().site(1)->engine().ReadLatest(
      RecordKey{kTable, 95}, &value).ok());
  EXPECT_EQ(AsNum(value), 125u);
  system.Shutdown();
}

// A partition-store transaction pins one snapshot per site it reads
// outside a sub-transaction: a commit that lands at that site mid-
// transaction stays invisible to every later read there.

// Commits `value` to `keys` directly at `site`, bypassing the system.
Status CommitAt(site::SiteManager* site, std::vector<uint64_t> keys,
                uint64_t value) {
  site::TxnOptions options;
  for (uint64_t key : keys) options.write_keys.push_back(RecordKey{kTable, key});
  site::Transaction txn;
  Status s = site->BeginTransaction(options, &txn);
  if (!s.ok()) return s;
  for (uint64_t key : keys) {
    s = txn.Put(RecordKey{kTable, key}, Num(value));
    if (!s.ok()) return s;
  }
  VersionVector commit_version;
  return site->Commit(&txn, &commit_version);
}

PartitionedSystem::Options FixedCoordinatorPartitionStore() {
  auto options = PartitionedSystem::PartitionStore(FastCluster(2),
                                                   RangePlacement(10, 2));
  options.random_coordinator = false;  // the coordinator owns the most keys
  return options;
}

TEST(PartitionStoreTest, WriteTxnPinsOneSnapshotPerRemoteOwner) {
  RangePartitioner partitioner(10, 10);
  PartitionedSystem system(FixedCoordinatorPartitionStore(), &partitioner);
  LoadKeys(system, 100, 7);
  core::ClientState client;
  client.id = 1;
  core::TxnProfile profile;
  profile.write_keys = {RecordKey{kTable, 5}};  // site 0 coordinates alone
  uint64_t a = 0, b = 0;
  auto logic = [&](core::TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, 95}, &value);  // remote, site 1
    if (!s.ok()) return s;
    a = AsNum(value);
    s = CommitAt(system.cluster().site(1), {95, 96}, 8);
    if (!s.ok()) return s;
    s = ctx.Get(RecordKey{kTable, 96}, &value);
    if (!s.ok()) return s;
    b = AsNum(value);
    return ctx.Put(RecordKey{kTable, 5}, Num(a + b));
  };
  ASSERT_TRUE(system.Execute(client, profile, logic, nullptr).ok());
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 7u) << "second read at site 1 saw a later commit";
  system.Shutdown();
}

TEST(PartitionStoreTest, ReadTxnPinsOneSnapshotPerRemoteOwner) {
  RangePartitioner partitioner(10, 10);
  PartitionedSystem system(FixedCoordinatorPartitionStore(), &partitioner);
  LoadKeys(system, 100, 7);
  core::ClientState client;
  client.id = 1;
  core::TxnProfile profile;
  profile.read_only = true;
  // Two declared keys at site 0 make it the coordinator; key 95 is
  // prefetched from site 1, key 96 is an undeclared read there.
  profile.read_keys = {RecordKey{kTable, 5}, RecordKey{kTable, 6},
                       RecordKey{kTable, 95}};
  uint64_t a = 0, b = 0;
  auto logic = [&](core::TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, 95}, &value);
    if (!s.ok()) return s;
    a = AsNum(value);
    s = CommitAt(system.cluster().site(1), {95, 96}, 8);
    if (!s.ok()) return s;
    s = ctx.Get(RecordKey{kTable, 96}, &value);
    if (!s.ok()) return s;
    b = AsNum(value);
    return Status::OK();
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(client, profile, logic, &result).ok());
  EXPECT_TRUE(result.distributed);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 7u) << "undeclared read at site 1 saw a later commit";
  system.Shutdown();
}

TEST(PartitionStoreTest, ReadTxnBatchesOneSubReadPerRemoteOwner) {
  // Three sites, one partition each: keys 0-9 at site 0, 10-19 at site 1,
  // 20-29 at site 2.
  RangePartitioner partitioner(10, 3);
  metrics::Registry registry;
  auto options = PartitionedSystem::PartitionStore(FastCluster(3, &registry),
                                                   RangePlacement(3, 3));
  options.random_coordinator = false;  // the coordinator owns the most keys
  PartitionedSystem system(options, &partitioner);
  LoadKeys(system, 30, 1);
  auto messages = [&registry](const char* cls) {
    return registry.CounterValue("net_messages_total", {{"class", cls}});
  };
  auto bytes = [&registry](const char* cls) {
    return registry.CounterValue("net_bytes_total", {{"class", cls}});
  };
  core::ClientState client;
  client.id = 1;
  core::TxnProfile profile;
  profile.read_only = true;
  // Three keys at site 0 (the coordinator), k=2 at site 1 and k=1 at site 2.
  profile.read_keys = {RecordKey{kTable, 0},  RecordKey{kTable, 1},
                       RecordKey{kTable, 2},  RecordKey{kTable, 10},
                       RecordKey{kTable, 11}, RecordKey{kTable, 20}};
  uint64_t total = 0;
  auto logic = [&total](core::TxnContext& ctx) -> Status {
    total = 0;
    // Every declared key, plus key 21: an undeclared read at site 2.
    for (uint64_t key : {0, 1, 2, 10, 11, 20, 21}) {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      total += AsNum(value);
    }
    return Status::OK();
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(client, profile, logic, &result).ok());
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(result.executed_at, 0u);
  EXPECT_TRUE(result.distributed);

  // The client's two round trips: the router hop and the request.
  EXPECT_EQ(messages("client_request"), 4u);
  EXPECT_EQ(bytes("client_request"), (128u + 64u) + (256u + 128u));
  // Each remote owner: one sub-read of 256+8k / 128+64k bytes. The
  // undeclared key adds one plain 256/128 round trip.
  EXPECT_EQ(messages("coordination"), 2u + 2u + 2u);
  EXPECT_EQ(bytes("coordination"), (256u + 8 * 2 + 128u + 64 * 2) +
                                       (256u + 8 * 1 + 128u + 64 * 1) +
                                       (256u + 128u));
  for (const char* cls : {"propagation", "remastering", "data_shipping"}) {
    EXPECT_EQ(messages(cls), 0u) << cls;
  }
  // Every site read commits one read-only branch.
  for (const char* site : {"0", "1", "2"}) {
    EXPECT_EQ(registry.CounterValue("site_commits_total",
                                    {{"site", site}, {"kind", "readonly"}}),
              1u)
        << "site " << site;
  }
  system.Shutdown();
}

// ---- LEAP ---------------------------------------------------------------------

TEST(LeapTest, ShipsPartitionsToExecutionSite) {
  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2, &registry);
  options.placement = RangePlacement(10, 2);
  LeapSystem system(options, &partitioner);
  LoadKeys(system, 100, 50);

  core::ClientState client;
  client.id = 1;
  core::TxnResult result;
  // Keys 5 (partition 0, site 0) and 95 (partition 9, site 1): LEAP must
  // localize one of the partitions by shipping its data.
  ASSERT_TRUE(system
                  .Execute(client, TransferProfile(5, 95),
                           TransferLogic(5, 95, 10), &result)
                  .ok());
  EXPECT_GE(ShippedPartitions(registry), 1u);
  EXPECT_GT(registry.CounterValue("leap_shipped_bytes_total"), 0u);
  // Both partitions now owned at the execution site.
  EXPECT_EQ(system.OwnerOf(0), result.executed_at);
  EXPECT_EQ(system.OwnerOf(9), result.executed_at);

  // Values correct at the new owner.
  std::string value;
  ASSERT_TRUE(system.cluster().site(result.executed_at)->engine().ReadLatest(
      RecordKey{kTable, 5}, &value).ok());
  EXPECT_EQ(AsNum(value), 40u);
  system.Shutdown();
}

TEST(LeapTest, ReadOnlyTransactionsAlsoLocalize) {
  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2, &registry);
  options.placement = RangePlacement(10, 2);
  LeapSystem system(options, &partitioner);
  LoadKeys(system, 100, 5);

  core::ClientState client;
  client.id = 1;
  core::TxnProfile read;
  read.read_only = true;
  read.read_keys = {RecordKey{kTable, 5}, RecordKey{kTable, 95}};
  uint64_t total = 0;
  auto logic = [&total](core::TxnContext& ctx) -> Status {
    total = 0;  // logic may rerun on a fresher snapshot
    for (uint64_t key : {5ull, 95ull}) {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, key}, &value);
      if (!s.ok()) return s;
      total += AsNum(value);
    }
    return Status::OK();
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(client, read, logic, &result).ok());
  EXPECT_EQ(total, 10u);
  EXPECT_GE(ShippedPartitions(registry), 1u);  // no replicas: must ship
  system.Shutdown();
}

TEST(LeapTest, RepeatedAccessAmortizesShipping) {
  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2, &registry);
  options.placement = RangePlacement(10, 2);
  LeapSystem system(options, &partitioner);
  LoadKeys(system, 100, 50);
  core::ClientState client;
  client.id = 1;
  core::TxnResult r1, r2;
  ASSERT_TRUE(system
                  .Execute(client, TransferProfile(5, 95),
                           TransferLogic(5, 95, 1), &r1)
                  .ok());
  const uint64_t after_first = ShippedPartitions(registry);
  ASSERT_TRUE(system
                  .Execute(client, TransferProfile(5, 95),
                           TransferLogic(5, 95, 1), &r2)
                  .ok());
  EXPECT_EQ(ShippedPartitions(registry), after_first);  // already local
  system.Shutdown();
}

TEST(LeapTest, StaticPartitionsNeverShipped) {
  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2, &registry);
  options.placement = RangePlacement(10, 2);
  LeapSystem system(options, &partitioner);
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  // Partition 9 loaded as static (replicated).
  for (uint64_t key = 90; key < 100; ++key) {
    ASSERT_TRUE(system.LoadReplicatedRow(RecordKey{kTable, key}, Num(3)).ok());
  }
  for (uint64_t key = 0; key < 10; ++key) {
    ASSERT_TRUE(system.LoadRow(RecordKey{kTable, key}, Num(4)).ok());
  }
  system.Seal();
  core::ClientState client;
  client.id = 1;
  core::TxnProfile profile;
  profile.write_keys = {RecordKey{kTable, 5}};
  profile.read_keys = {RecordKey{kTable, 5}, RecordKey{kTable, 95}};
  auto logic = [](core::TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, 95}, &value);  // static row
    if (!s.ok()) return s;
    return ctx.Put(RecordKey{kTable, 5}, Num(AsNum(value) + 1));
  };
  core::TxnResult result;
  ASSERT_TRUE(system.Execute(client, profile, logic, &result).ok());
  EXPECT_EQ(ShippedPartitions(registry), 0u);
  system.Shutdown();
}

// Regression: LEAP once dropped its ownership locks right after
// localizing, so a concurrent transaction could ship a partition away
// during the exec RPC and admission wait, and BeginTransaction failed with
// NotMaster (enough of those in a row exhausted the retry budget). Four
// clients pull two hot partitions, homed on different sites, back and
// forth: each transaction writes one hot key plus two keys of partitions
// its client's site owns, so it always executes at that site.
TEST(LeapTest, LocalizedPartitionsStayUntilBegin) {
  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2, &registry);
  options.cluster.network.charge_delays = true;
  options.cluster.network.one_way_latency = std::chrono::microseconds(200);
  options.placement = RangePlacement(10, 2);  // 0-4 -> site 0, 5-9 -> site 1
  LeapSystem system(options, &partitioner);
  LoadKeys(system, 100, 0);

  // Hot partitions 0 (site 0) and 9 (site 1); home partitions per client.
  const uint64_t home[4][2] = {{1, 2}, {5, 6}, {3, 4}, {7, 8}};
  constexpr int kClients = 4;
  constexpr int kTxnsPerClient = 100;
  std::atomic<int> failed{0};
  std::atomic<uint64_t> not_master_retries{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      core::ClientState client;
      client.id = static_cast<ClientId>(c + 1);
      for (int i = 0; i < kTxnsPerClient; ++i) {
        const uint64_t hot = (i + c) % 2 == 0 ? 0 : 9;
        core::TxnProfile profile;
        profile.write_keys = {RecordKey{kTable, hot * 10 + c},
                              RecordKey{kTable, home[c][0] * 10 + c},
                              RecordKey{kTable, home[c][1] * 10 + c}};
        profile.read_keys = profile.write_keys;
        const auto keys = profile.write_keys;
        auto logic = [keys](core::TxnContext& ctx) -> Status {
          for (const RecordKey& key : keys) {
            std::string value;
            Status s = ctx.Get(key, &value);
            if (!s.ok()) return s;
            s = ctx.Put(key, Num(AsNum(value) + 1));
            if (!s.ok()) return s;
          }
          return Status::OK();
        };
        core::TxnResult result;
        if (!system.Execute(client, profile, logic, &result).ok()) ++failed;
        not_master_retries += result.retries;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(not_master_retries.load(), 0u);
  EXPECT_GT(ShippedPartitions(registry), 0u);
  system.Shutdown();
}

TEST(LeapTest, ShipsRowsInsertedAfterLoad) {
  constexpr TableId kOrders = 1;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2);
  options.placement = RangePlacement(10, 2, 5);  // 0-4 -> 0, 5-9 -> 1
  LeapSystem system(options, &partitioner);
  ASSERT_TRUE(system.CreateTable(kOrders).ok());
  LoadKeys(system, 100, 50);

  // Insert a row of partition 0 (row 7 of a table loaded empty) at its
  // owner, site 0; the partition is declared through
  // extra_write_partitions only.
  core::ClientState client;
  client.id = 1;
  core::TxnProfile insert;
  insert.extra_write_partitions = {0};
  core::TxnResult result;
  ASSERT_TRUE(system
                  .Execute(
                      client, insert,
                      [](core::TxnContext& ctx) {
                        return ctx.Insert(RecordKey{kOrders, 7}, Num(123));
                      },
                      &result)
                  .ok());
  ASSERT_EQ(result.executed_at, 0u);

  // Partitions 8 and 9 live at site 1, so this transfer executes there
  // and ships partition 0 over.
  core::TxnProfile transfer = TransferProfile(5, 95);
  transfer.read_keys.push_back(RecordKey{kTable, 85});
  ASSERT_TRUE(
      system.Execute(client, transfer, TransferLogic(5, 95, 10), &result)
          .ok());
  ASSERT_EQ(result.executed_at, 1u);
  ASSERT_EQ(system.OwnerOf(0), 1u);

  core::TxnProfile read;
  read.read_only = true;
  read.read_keys = {RecordKey{kOrders, 7}};
  uint64_t seen = 0;
  ASSERT_TRUE(system
                  .Execute(
                      client, read,
                      [&seen](core::TxnContext& ctx) -> Status {
                        std::string value;
                        Status s = ctx.Get(RecordKey{kOrders, 7}, &value);
                        if (s.ok()) seen = AsNum(value);
                        return s;
                      },
                      &result)
                  .ok());
  EXPECT_EQ(result.executed_at, 1u);
  EXPECT_EQ(seen, 123u);
  system.Shutdown();
}

// A shipment copies the shipped partition's rows and nothing else, even
// when the source also holds stale copies of partitions that shipped
// away from it earlier.
TEST(LeapTest, ShippedBytesCoverOnlyThePartition) {
  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  LeapSystem::Options options;
  options.cluster = FastCluster(2, &registry);
  options.placement = RangePlacement(10, 2, 5);  // 0-4 -> 0, 5-9 -> 1
  LeapSystem system(options, &partitioner);
  LoadKeys(system, 100, 50);
  constexpr uint64_t kPartitionBytes = 10 * (sizeof(uint64_t) + 16);

  core::ClientState client;
  client.id = 1;
  // Each read executes where two of its three partitions live and ships
  // the third: partition 0 to site 1, partition 0 back to site 0 (site 1
  // keeps a stale copy), then partition 9 from site 1 to site 0.
  const std::vector<std::pair<std::vector<uint64_t>, SiteId>> ships = {
      {{5, 85, 95}, 1}, {{5, 15, 25}, 0}, {{15, 25, 95}, 0}};
  for (const auto& [keys, dest] : ships) {
    const uint64_t partitions_before = ShippedPartitions(registry);
    const uint64_t bytes_before =
        registry.CounterValue("leap_shipped_bytes_total");
    core::TxnProfile read;
    read.read_only = true;
    for (uint64_t key : keys) read.read_keys.push_back(RecordKey{kTable, key});
    auto logic = [&read](core::TxnContext& ctx) -> Status {
      for (const RecordKey& key : read.read_keys) {
        std::string value;
        Status s = ctx.Get(key, &value);
        if (!s.ok()) return s;
      }
      return Status::OK();
    };
    core::TxnResult result;
    ASSERT_TRUE(system.Execute(client, read, logic, &result).ok());
    EXPECT_EQ(result.executed_at, dest);
    EXPECT_EQ(ShippedPartitions(registry), partitions_before + 1);
    EXPECT_EQ(registry.CounterValue("leap_shipped_bytes_total"),
              bytes_before + kPartitionBytes);
  }
  system.Shutdown();
}

// ---- Replication follows cluster.replicated ---------------------------------

// A two-site baseline of the named kind over four partitions (two per
// site), with a fixed coordinator so every write runs at its owner.
struct Baseline {
  std::unique_ptr<core::SystemInterface> system;
  core::Cluster* cluster = nullptr;
};

Baseline MakeBaseline(const std::string& name, core::Cluster::Options cluster,
                      const Partitioner* partitioner) {
  Baseline baseline;
  if (name == "leap") {
    LeapSystem::Options options;
    options.cluster = std::move(cluster);
    options.placement = RangePlacement(4, 2);
    auto system = std::make_unique<LeapSystem>(options, partitioner);
    baseline.cluster = &system->cluster();
    baseline.system = std::move(system);
    return baseline;
  }
  auto options = name == "multi-master"
                     ? PartitionedSystem::MultiMaster(std::move(cluster),
                                                      RangePlacement(4, 2))
                     : PartitionedSystem::PartitionStore(std::move(cluster),
                                                         RangePlacement(4, 2));
  options.random_coordinator = false;
  auto system = std::make_unique<PartitionedSystem>(options, partitioner);
  baseline.cluster = &system->cluster();
  baseline.system = std::move(system);
  return baseline;
}

class ReplicationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplicationTest, SiteOneAppliesSiteZeroCommitOnlyWhenReplicated) {
  // The name reports what ran, and replication comes only from the
  // cluster: multi-master replicates; partition-store and LEAP keep no
  // replicas. Regression (LEAP): LeapSystem once constructed its Cluster
  // before clearing options.cluster.replicated, so refresh appliers ran —
  // and an applier re-applying an old remote commit after a partition
  // shipped in would shadow the freshly copied rows (versions append
  // newest-at-back).
  const bool replicated = GetParam() == "multi-master";
  RangePartitioner partitioner(4, 4);
  metrics::Registry registry;
  Baseline baseline =
      MakeBaseline(GetParam(), FastCluster(2, &registry), &partitioner);
  core::SystemInterface& system = *baseline.system;
  EXPECT_EQ(system.name(), GetParam());
  LoadKeys(system, 16, 100);

  // Commit an update at site 0 (its own partitions; no shipping).
  core::ClientState client;
  client.id = 1;
  core::TxnProfile profile;
  profile.write_keys = {RecordKey{kTable, 0}};
  profile.read_keys = profile.write_keys;
  core::TxnResult result;
  ASSERT_TRUE(system
                  .Execute(
                      client, profile,
                      [](core::TxnContext& ctx) {
                        return ctx.Put(RecordKey{kTable, 0}, Num(42));
                      },
                      &result)
                  .ok());
  ASSERT_EQ(result.executed_at, 0u);

  site::SiteManager* replica = baseline.cluster->site(1);
  if (replicated) {
    // Site 1's applier picks up site 0's log record.
    ASSERT_TRUE(replica->WaitForVersion(baseline.cluster->site(0)
                                            ->CurrentVersion())
                    .ok());
    EXPECT_EQ(replica->CurrentVersion()[0], 1u);
    EXPECT_GT(
        registry.CounterValue("site_refresh_applied_total", {{"site", "1"}}),
        0u);
  } else {
    // Give a (buggy) applier ample time to pick up site 0's log record.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(
        registry.CounterValue("site_refresh_applied_total", {{"site", "1"}}),
        0u);
    EXPECT_EQ(replica->CurrentVersion()[0], 0u);
  }
  system.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, ReplicationTest,
    ::testing::Values("leap", "partition-store", "multi-master"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace dynamast::baselines
