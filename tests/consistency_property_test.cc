// Randomized consistency property tests:
//  * snapshot-isolation invariants under randomized concurrent schedules
//    across sites (wrapping-sum conservation observed from every site's
//    snapshots, not just one);
//  * write-write exclusion: per-key version sequences are gap-free and
//    every increment is preserved (no lost updates);
//  * mid-run site recovery: a fresh replica reconstructed from the redo
//    log converges to the survivors' state, including mastership;
//  * remastering fuzz: random release/grant storms never violate the
//    exactly-one-master invariant and never lose a partition.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "common/partitioner.h"
#include "common/random.h"
#include "core/dynamast_system.h"
#include "log/durable_log.h"
#include "selector/site_selector.h"
#include "site/site_manager.h"

namespace dynamast {
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

core::DynaMastSystem::Options FastOptions(uint32_t sites) {
  core::DynaMastSystem::Options options;
  options.cluster.num_sites = sites;
  options.cluster.network.charge_delays = false;
  options.cluster.site.read_op_cost = options.cluster.site.write_op_cost =
      options.cluster.site.apply_op_cost = std::chrono::microseconds(0);
  options.cluster.site.worker_slots = 16;
  options.selector.sample_rate = 1.0;
  return options;
}

// ---- SI under randomized schedules -----------------------------------------

class SiScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SiScheduleTest, EverySiteSnapshotConservesSum) {
  constexpr uint64_t kKeys = 40;
  constexpr uint64_t kInitial = 10'000;
  RangePartitioner partitioner(5, 8);  // 8 partitions of 5 keys
  core::DynaMastSystem system(FastOptions(3), &partitioner);
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(system.LoadRow(RecordKey{kTable, key}, Num(kInitial)).ok());
  }
  system.Seal();

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // Writers: random transfers between random keys (random write-set sizes
  // of 2-4 keys, so schedules exercise multi-partition remastering too).
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      core::ClientState client;
      client.id = t + 1;
      Random rng(GetParam() * 31 + t);
      while (!stop.load()) {
        const size_t n = 2 + rng.Uniform(3);
        std::vector<uint64_t> keys;
        while (keys.size() < n) {
          const uint64_t key = rng.Uniform(kKeys);
          if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
            keys.push_back(key);
          }
        }
        core::TxnProfile profile;
        for (uint64_t key : keys) {
          profile.write_keys.push_back(RecordKey{kTable, key});
        }
        const uint64_t amount = 1 + rng.Uniform(50);
        auto logic = [&keys, amount](core::TxnContext& ctx) -> Status {
          // Move `amount` from the first key, spread over the rest; the
          // wrapping sum is invariant.
          std::string value;
          Status s = ctx.Get(RecordKey{kTable, keys[0]}, &value);
          if (!s.ok()) return s;
          s = ctx.Put(RecordKey{kTable, keys[0]},
                      Num(AsNum(value) - amount * (keys.size() - 1)));
          if (!s.ok()) return s;
          for (size_t i = 1; i < keys.size(); ++i) {
            s = ctx.Get(RecordKey{kTable, keys[i]}, &value);
            if (!s.ok()) return s;
            s = ctx.Put(RecordKey{kTable, keys[i]}, Num(AsNum(value) + amount));
            if (!s.ok()) return s;
          }
          return Status::OK();
        };
        core::TxnResult result;
        // Aborts/timeouts are expected under the storm; the auditors
        // only care that committed state stays consistent.
        (void)system.Execute(client, profile, logic, &result);
      }
    });
  }

  // Auditors: read-only snapshots from every client (and thus potentially
  // every site) must always see the invariant sum — this is the SI
  // guarantee under concurrent remastering and refresh application.
  std::vector<std::thread> auditors;
  for (int t = 0; t < 2; ++t) {
    auditors.emplace_back([&, t] {
      core::ClientState client;
      client.id = 100 + t;
      for (int round = 0; round < 30; ++round) {
        core::TxnProfile audit;
        audit.read_only = true;
        uint64_t total = 0;
        auto logic = [&total](core::TxnContext& ctx) -> Status {
          total = 0;  // logic may rerun on a fresher snapshot
          for (uint64_t key = 0; key < kKeys; ++key) {
            std::string value;
            Status s = ctx.Get(RecordKey{kTable, key}, &value);
            if (!s.ok()) return s;
            total += AsNum(value);
          }
          return Status::OK();
        };
        core::TxnResult result;
        if (system.Execute(client, audit, logic, &result).ok()) {
          if (total != kKeys * kInitial) violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : auditors) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(violations.load(), 0);
  system.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiScheduleTest, ::testing::Values(1, 2, 7));

// ---- No lost updates ---------------------------------------------------------

TEST(LostUpdateTest, ConcurrentIncrementsAllSurvive) {
  RangePartitioner partitioner(5, 4);
  core::DynaMastSystem system(FastOptions(2), &partitioner);
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  ASSERT_TRUE(system.LoadRow(RecordKey{kTable, 7}, Num(0)).ok());
  system.Seal();

  constexpr int kThreads = 6;
  constexpr int kIncrementsPerThread = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::ClientState client;
      client.id = t + 1;
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        core::TxnProfile profile;
        profile.write_keys = {RecordKey{kTable, 7}};
        auto logic = [](core::TxnContext& ctx) -> Status {
          std::string value;
          Status s = ctx.Get(RecordKey{kTable, 7}, &value);
          if (!s.ok()) return s;
          return ctx.Put(RecordKey{kTable, 7}, Num(AsNum(value) + 1));
        };
        core::TxnResult result;
        if (system.Execute(client, profile, logic, &result).ok()) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every committed increment must be visible: write locks held from
  // before the read to commit exclude lost updates.
  core::ClientState auditor;
  auditor.id = 99;
  core::TxnProfile audit;
  audit.read_only = true;
  uint64_t final_value = 0;
  auto logic = [&final_value](core::TxnContext& ctx) -> Status {
    std::string value;
    Status s = ctx.Get(RecordKey{kTable, 7}, &value);
    if (!s.ok()) return s;
    final_value = AsNum(value);
    return Status::OK();
  };
  core::TxnResult result;
  // The auditor's empty session may land on a lagging replica; its own
  // session then ratchets forward. Retry until convergence.
  for (int attempt = 0; attempt < 50; ++attempt) {
    ASSERT_TRUE(system.Execute(auditor, audit, logic, &result).ok());
    if (final_value == static_cast<uint64_t>(committed.load())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(final_value, static_cast<uint64_t>(committed.load()));
  system.Shutdown();
}

// ---- Mid-run replica recovery -------------------------------------------------

TEST(RecoveryTest, FreshReplicaConvergesFromRedoLog) {
  // Run a workload against a 3-site DynaMast deployment, then build a
  // brand-new site-2 replica from the initial load plus the redo logs and
  // compare its rows to a survivor's.
  RangePartitioner partitioner(10, 10);
  core::DynaMastSystem system(FastOptions(3), &partitioner);
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(system.LoadRow(RecordKey{kTable, key}, Num(5)).ok());
  }
  system.Seal();

  core::ClientState client;
  client.id = 1;
  Random rng(1234);
  for (int i = 0; i < 120; ++i) {
    const uint64_t a = rng.Uniform(100);
    uint64_t b = rng.Uniform(100);
    if (a == b) b = (b + 11) % 100;
    core::TxnProfile profile;
    profile.write_keys = {RecordKey{kTable, a}, RecordKey{kTable, b}};
    auto logic = [a, b](core::TxnContext& ctx) -> Status {
      std::string value;
      Status s = ctx.Get(RecordKey{kTable, a}, &value);
      if (!s.ok()) return s;
      s = ctx.Put(RecordKey{kTable, a}, Num(AsNum(value) + 1));
      if (!s.ok()) return s;
      s = ctx.Get(RecordKey{kTable, b}, &value);
      if (!s.ok()) return s;
      return ctx.Put(RecordKey{kTable, b}, Num(AsNum(value) + 2));
    };
    core::TxnResult result;
    ASSERT_TRUE(system.Execute(client, profile, logic, &result).ok());
  }

  // Reconstruct a replacement replica for site 2 directly from the logs.
  site::SiteOptions options;
  options.site_id = 2;
  options.num_sites = 3;
  options.read_op_cost = options.write_op_cost = options.apply_op_cost =
      std::chrono::microseconds(0);
  site::SiteManager replacement(options, &partitioner,
                                &system.cluster().logs(), nullptr);
  ASSERT_TRUE(replacement.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(replacement.LoadRecord(RecordKey{kTable, key}, Num(5)).ok());
  }
  std::unordered_map<PartitionId, SiteId> initial;
  for (PartitionId p = 0; p < 10; ++p) {
    initial[p] = static_cast<SiteId>(p % 3);  // round-robin initial placement
  }
  std::unordered_map<PartitionId, SiteId> recovered;
  ASSERT_TRUE(replacement.RecoverFromLogs(initial, &recovered).ok());

  // Row-for-row equality with site 0's latest state.
  for (uint64_t key = 0; key < 100; ++key) {
    std::string expected, actual;
    ASSERT_TRUE(system.cluster().site(0)->engine().ReadLatest(
        RecordKey{kTable, key}, &expected).ok());
    ASSERT_TRUE(replacement.engine().ReadLatest(RecordKey{kTable, key},
                                                &actual).ok());
    EXPECT_EQ(AsNum(actual), AsNum(expected)) << "key " << key;
  }
  // Recovered mastership equals the selector's live map.
  for (PartitionId p = 0; p < 10; ++p) {
    EXPECT_EQ(recovered[p],
              system.site_selector().partition_map().MasterOfLocked(p))
        << "partition " << p;
  }
  system.Shutdown();
}

// ---- Remastering fuzz ----------------------------------------------------------

class RemasterFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RemasterFuzzTest, ExactlyOneMasterAlways) {
  RangePartitioner partitioner(10, 12);
  std::unique_ptr<log::LogManager> logs =
      std::make_unique<log::LogManager>(3);
  std::vector<std::unique_ptr<site::SiteManager>> sites;
  for (uint32_t i = 0; i < 3; ++i) {
    site::SiteOptions options;
    options.site_id = i;
    options.num_sites = 3;
    options.read_op_cost = options.write_op_cost = options.apply_op_cost =
        std::chrono::microseconds(0);
    sites.push_back(std::make_unique<site::SiteManager>(
        options, &partitioner, logs.get(), nullptr));
    ASSERT_TRUE(sites.back()->CreateTable(kTable).ok());
  }
  selector::SelectorOptions options;
  options.seed = GetParam();
  selector::SiteSelector selector(
      options,
      {sites[0].get(), sites[1].get(), sites[2].get()}, &partitioner,
      nullptr);
  std::vector<SiteId> placement(12);
  for (PartitionId p = 0; p < 12; ++p) placement[p] = p % 3;
  selector.InstallPlacement(placement);
  for (auto& s : sites) s->Start();
  for (uint64_t key = 0; key < 120; ++key) {
    for (auto& s : sites) {
      ASSERT_TRUE(s->LoadRecord(RecordKey{kTable, key}, "v").ok());
    }
  }

  // Storm of overlapping multi-partition routes from many threads.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Random rng(GetParam() * 101 + t);
      for (int i = 0; i < 40; ++i) {
        std::vector<RecordKey> keys;
        const size_t n = 1 + rng.Uniform(4);
        for (size_t k = 0; k < n; ++k) {
          keys.push_back(RecordKey{kTable, rng.Uniform(120)});
        }
        selector::RouteResult route;
        if (!selector.RouteWrite(t + 1, keys, VersionVector(3), &route).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Invariant: every partition has exactly one mastering site, agreeing
  // with the selector's map.
  for (PartitionId p = 0; p < 12; ++p) {
    const SiteId owner = selector.partition_map().MasterOfLocked(p);
    int masters = 0;
    for (SiteId s = 0; s < 3; ++s) {
      if (sites[s]->IsMasterOf(p)) {
        ++masters;
        EXPECT_EQ(s, owner) << "partition " << p;
      }
    }
    EXPECT_EQ(masters, 1) << "partition " << p;
  }
  logs->CloseAll();
  for (auto& s : sites) s->Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemasterFuzzTest,
                         ::testing::Values(3, 5, 11, 23));

}  // namespace
}  // namespace dynamast
