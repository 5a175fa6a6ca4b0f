// Multi-threaded race stress (tier2). Built for the ThreadSanitizer
// preset (scripts/check.sh runs it under `ctest --preset tsan`) but safe
// and quick in any configuration: ≥4 concurrent client threads hammer a
// small hot key set through the full system stack — routing, remastering,
// locking, commit, log propagation, refresh application — while readers
// take snapshots from every site. Correctness oracle: wrapping-sum
// conservation (transfers preserve the total) and gap-free per-key
// counters (no lost updates).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/leap_system.h"
#include "baselines/partitioned_system.h"
#include "baselines/static_placement.h"
#include "common/partitioner.h"
#include "common/random.h"
#include "core/dynamast_system.h"
#include "core/system_interface.h"

namespace dynamast {
namespace {

constexpr TableId kTable = 0;
constexpr uint64_t kKeys = 24;
constexpr uint64_t kInitial = 100'000;
constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kTxnsPerWriter = 150;

std::string Num(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
uint64_t AsNum(const std::string& s) {
  uint64_t v = 0;
  if (s.size() >= 8) memcpy(&v, s.data(), 8);
  return v;
}

core::Cluster::Options FastCluster(uint32_t sites) {
  core::Cluster::Options options;
  options.num_sites = sites;
  options.network.charge_delays = false;
  options.site.read_op_cost = options.site.write_op_cost =
      options.site.apply_op_cost = std::chrono::microseconds(0);
  options.site.worker_slots = 16;
  return options;
}

// Drives `system` with kWriters transfer threads + kReaders full-scan
// snapshot threads, then audits the final state from a client whose
// session has observed every commit (strong-session SI makes the audit
// wait for full freshness).
//
// `strict_snapshots` asserts that every concurrent reader snapshot
// conserves the sum. That holds for DynaMast (single-site execution under
// SI) but NOT for the baselines: multi-master commits each 2PC branch
// with its own per-site sequence, so a replica's vector snapshot can
// contain a transfer's debit but not its credit; LEAP ships rows as
// always-visible base versions with no cross-site snapshots at all.
// Those anomalies are the paper's motivation, not bugs — for baselines
// the readers only provide scheduling pressure (and TSan coverage).
void RunStress(core::SystemInterface& system, uint64_t seed,
               bool strict_snapshots) {
  ASSERT_TRUE(system.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(system.LoadRow(RecordKey{kTable, key}, Num(kInitial)).ok());
  }
  system.Seal();

  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::atomic<int> snapshot_violations{0};
  std::vector<VersionVector> writer_sessions(kWriters);

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      core::ClientState client;
      client.id = static_cast<ClientId>(t + 1);
      Random rng(seed * 97 + t);
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        const uint64_t a = rng.Uniform(kKeys);
        uint64_t b = rng.Uniform(kKeys);
        if (b == a) b = (b + 1) % kKeys;
        const uint64_t amount = 1 + rng.Uniform(10);
        core::TxnProfile profile;
        profile.write_keys = {RecordKey{kTable, a}, RecordKey{kTable, b}};
        profile.read_keys = profile.write_keys;
        Status s = system.Execute(
            client, profile,
            [a, b, amount](core::TxnContext& ctx) -> Status {
              std::string value;
              Status st = ctx.Get(RecordKey{kTable, a}, &value);
              if (!st.ok()) return st;
              st = ctx.Put(RecordKey{kTable, a}, Num(AsNum(value) - amount));
              if (!st.ok()) return st;
              st = ctx.Get(RecordKey{kTable, b}, &value);
              if (!st.ok()) return st;
              return ctx.Put(RecordKey{kTable, b}, Num(AsNum(value) + amount));
            },
            nullptr);
        if (s.ok()) committed.fetch_add(1, std::memory_order_relaxed);
      }
      writer_sessions[t] = client.session;
    });
  }

  // Readers: repeated full-table snapshot scans; every snapshot must
  // conserve the (wrapping) sum regardless of which site serves it.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      core::ClientState client;
      client.id = static_cast<ClientId>(100 + t);
      core::TxnProfile profile;
      profile.read_only = true;
      for (uint64_t key = 0; key < kKeys; ++key) {
        profile.read_keys.push_back(RecordKey{kTable, key});
      }
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t sum = 0;
        Status s = system.Execute(
            client, profile,
            [&sum](core::TxnContext& ctx) -> Status {
              sum = 0;
              for (uint64_t key = 0; key < kKeys; ++key) {
                std::string value;
                Status st = ctx.Get(RecordKey{kTable, key}, &value);
                if (!st.ok()) return st;
                sum += AsNum(value);
              }
              return Status::OK();
            },
            nullptr);
        if (strict_snapshots && s.ok() && sum != kKeys * kInitial) {
          snapshot_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(snapshot_violations.load(), 0)
      << system.name() << ": torn snapshot observed";
  EXPECT_GT(committed.load(), 0) << system.name() << ": nothing committed";

  // Final audit from a session that has observed every commit: strong-
  // session SI then forces the audit site to be fully fresh, so the sum
  // must be conserved in every system.
  core::ClientState auditor;
  auditor.id = 999;
  for (const VersionVector& session : writer_sessions) {
    auditor.session.MaxWith(session);
  }
  core::TxnProfile profile;
  profile.read_only = true;
  for (uint64_t key = 0; key < kKeys; ++key) {
    profile.read_keys.push_back(RecordKey{kTable, key});
  }
  uint64_t sum = 0;
  Status s = system.Execute(
      auditor, profile,
      [&sum](core::TxnContext& ctx) -> Status {
        sum = 0;  // logic may rerun on a fresher snapshot
        for (uint64_t key = 0; key < kKeys; ++key) {
          std::string value;
          Status st = ctx.Get(RecordKey{kTable, key}, &value);
          if (!st.ok()) return st;
          sum += AsNum(value);
        }
        return Status::OK();
      },
      nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sum, kKeys * kInitial) << system.name() << ": sum not conserved";
  system.Shutdown();
}

TEST(RaceStressTest, DynaMast) {
  RangePartitioner partitioner(4, 6);  // 6 partitions of 4 keys: hot transfers
  core::DynaMastSystem::Options options;
  options.cluster = FastCluster(3);
  options.selector.sample_rate = 1.0;
  core::DynaMastSystem system(options, &partitioner);
  RunStress(system, /*seed=*/1, /*strict_snapshots=*/true);
}

TEST(RaceStressTest, MultiMasterBaseline) {
  RangePartitioner partitioner(4, 6);
  auto options = baselines::PartitionedSystem::MultiMaster(
      FastCluster(3), baselines::RangePlacement(6, 3));
  baselines::PartitionedSystem system(options, &partitioner);
  RunStress(system, /*seed=*/2, /*strict_snapshots=*/false);
}

TEST(RaceStressTest, PartitionStoreBaseline) {
  // Readers fan out to every owner through the coordinated executor: one
  // batched sub-read per remote owner, each in its own read-only branch.
  RangePartitioner partitioner(4, 6);
  auto options = baselines::PartitionedSystem::PartitionStore(
      FastCluster(3), baselines::RangePlacement(6, 3));
  baselines::PartitionedSystem system(options, &partitioner);
  RunStress(system, /*seed=*/4, /*strict_snapshots=*/false);
}

TEST(RaceStressTest, LeapBaseline) {
  RangePartitioner partitioner(4, 6);
  baselines::LeapSystem::Options options;
  options.cluster = FastCluster(3);
  options.placement = baselines::RangePlacement(6, 3);
  baselines::LeapSystem system(options, &partitioner);
  RunStress(system, /*seed=*/3, /*strict_snapshots=*/false);
}

}  // namespace
}  // namespace dynamast
