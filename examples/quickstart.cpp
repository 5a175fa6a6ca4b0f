// Quickstart: bring up a 3-site DynaMast deployment, run a few
// transactions by hand, and watch the dynamic mastering protocol work —
// including the exact release/grant remastering sequence of Figure 1c and
// the version-vector bookkeeping of Figure 2.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "common/partitioner.h"
#include "core/dynamast_system.h"
#include "workloads/ycsb.h"

using namespace dynamast;

int main() {
  // A tiny key space: 1000 keys in partitions of 100 keys -> 10 partitions.
  RangePartitioner partitioner(/*keys_per_partition=*/100,
                               /*num_partitions=*/10);

  core::DynaMastSystem::Options options;
  options.cluster.num_sites = 3;
  // Keep the demo snappy: small simulated network latency.
  options.cluster.network.one_way_latency = std::chrono::microseconds(50);
  options.selector.weights = selector::StrategyWeights::Ycsb();

  core::DynaMastSystem dynamast(options, &partitioner);

  // Schema + data: one table, 1000 rows, fully replicated at every site.
  constexpr TableId kTable = 0;
  if (auto s = dynamast.CreateTable(kTable); !s.ok()) {
    std::fprintf(stderr, "create table: %s\n", s.ToString().c_str());
    return 1;
  }
  for (uint64_t key = 0; key < 1000; ++key) {
    (void)dynamast.LoadRow(RecordKey{kTable, key},
                           workloads::YcsbWorkload::MakeValue(0, 64));
  }
  dynamast.Seal();  // install round-robin mastership, start appliers

  std::printf("initial mastership (partition -> site):\n  ");
  for (PartitionId p = 0; p < 10; ++p) {
    std::printf("p%llu->s%u  ", static_cast<unsigned long long>(p),
                dynamast.site_selector().partition_map().MasterOfLocked(p));
  }
  std::printf("\n\n");

  core::ClientState client;
  client.id = 1;

  // Transaction T1 updates keys 50 (partition 0) and 150 (partition 1).
  // Partitions 0 and 1 master at different sites, so the site selector
  // remasters them to one site before execution — metadata only, no data
  // movement.
  core::TxnProfile profile;
  profile.write_keys = {RecordKey{kTable, 50}, RecordKey{kTable, 150}};
  core::TxnResult result;
  auto logic = [](core::TxnContext& ctx) -> Status {
    for (uint64_t key : {50ull, 150ull}) {
      std::string value;
      if (auto s = ctx.Get(RecordKey{kTable, key}, &value); !s.ok()) return s;
      const uint64_t counter = workloads::YcsbWorkload::ValueCounter(value);
      if (auto s = ctx.Put(RecordKey{kTable, key},
                           workloads::YcsbWorkload::MakeValue(counter + 1, 64));
          !s.ok()) {
        return s;
      }
    }
    return Status::OK();
  };

  Status s = dynamast.Execute(client, profile, logic, &result);
  std::printf("T1 (write {50, 150}): %s, executed at site %u, remastered=%s\n",
              s.ToString().c_str(), result.executed_at,
              result.remastered ? "yes" : "no");

  // T2 writes the same keys: the previous remastering is amortized —
  // everything is already co-located, no transfer needed.
  s = dynamast.Execute(client, profile, logic, &result);
  std::printf("T2 (write {50, 150}): %s, executed at site %u, remastered=%s\n",
              s.ToString().c_str(), result.executed_at,
              result.remastered ? "yes" : "no");

  // T3: a read-only scan of partition 0 runs at any session-fresh replica
  // without any remastering, and — thanks to strong-session SI — sees T1
  // and T2's writes.
  core::TxnProfile read_profile;
  read_profile.read_only = true;
  for (uint64_t key = 0; key < 100; ++key) {
    read_profile.read_keys.push_back(RecordKey{kTable, key});
  }
  uint64_t counter_of_50 = 0;
  auto read_logic = [&counter_of_50](core::TxnContext& ctx) -> Status {
    std::string value;
    if (auto s = ctx.Get(RecordKey{kTable, 50}, &value); !s.ok()) return s;
    counter_of_50 = workloads::YcsbWorkload::ValueCounter(value);
    return Status::OK();
  };
  s = dynamast.Execute(client, read_profile, read_logic, &result);
  std::printf("T3 (read-only):       %s, executed at site %u, key 50 counter=%llu"
              " (expect 2)\n",
              s.ToString().c_str(), result.executed_at,
              static_cast<unsigned long long>(counter_of_50));

  // Every count lives in the cluster's metrics registry.
  const metrics::Registry& registry = *dynamast.cluster().metrics();
  const uint64_t write_routes =
      registry.CounterValue("selector_routes_total", {{"kind", "write"}});
  const uint64_t remastered = registry.CounterValue("selector_remaster_total");
  std::printf("\nselector: %llu write routes, %llu required remastering "
              "(%.1f%%), %llu partitions moved\n",
              static_cast<unsigned long long>(write_routes),
              static_cast<unsigned long long>(remastered),
              write_routes == 0 ? 0.0 : 100.0 * remastered / write_routes,
              static_cast<unsigned long long>(
                  registry.CounterValue("selector_partitions_moved_total")));
  for (SiteId i = 0; i < 3; ++i) {
    std::printf("site %u svv=%s\n", i,
                dynamast.cluster().site(i)->CurrentVersion().ToString().c_str());
  }
  dynamast.Shutdown();
  std::printf("\nquickstart OK\n");
  return 0;
}
