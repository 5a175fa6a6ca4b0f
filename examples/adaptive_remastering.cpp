// Example: watching DynaMast adapt mastership to a workload it has never
// seen (the Section VI-B5 scenario in miniature).
//
// Mastership starts scattered round-robin; one group of clients hammers a
// set of co-accessed partitions. The site selector's statistics learn the
// co-access correlations and its strategy co-locates the masters, after
// which remastering stops — the cost was amortized. The demo prints the
// master location of the hot partitions and the remastering counters as
// the run progresses.
//
//   ./build/examples/adaptive_remastering

#include <cstdio>
#include <thread>
#include <vector>

#include "core/dynamast_system.h"
#include "workloads/ycsb.h"

using namespace dynamast;
using workloads::YcsbWorkload;

namespace {

constexpr TableId kTable = 0;

void PrintPlacement(core::DynaMastSystem& system,
                    const std::vector<PartitionId>& partitions,
                    const char* when) {
  std::printf("%-22s", when);
  for (PartitionId p : partitions) {
    std::printf("  p%llu->s%u", static_cast<unsigned long long>(p),
                system.site_selector().partition_map().MasterOfLocked(p));
  }
  std::printf("   [%llu remasterings so far]\n",
              static_cast<unsigned long long>(
                  system.cluster().metrics()->CounterValue(
                      "selector_remaster_total")));
}

}  // namespace

int main() {
  RangePartitioner partitioner(100, 40);  // 4000 keys, 40 partitions

  core::DynaMastSystem::Options options;
  options.cluster.num_sites = 4;
  options.cluster.network.one_way_latency = std::chrono::microseconds(50);
  options.cluster.site.write_op_cost = std::chrono::microseconds(50);
  // Localization-leaning weights: this demo drives 100% of the load at
  // one co-accessed group, so a strong balance weight would (correctly!)
  // keep splitting it apart. With intra-transaction co-access dominant,
  // the strategy converges to a single master site for the group.
  options.selector.weights = selector::StrategyWeights{0.5, 0.5, 3.0, 1.0};
  options.selector.sample_rate = 1.0;
  options.placement = core::InitialPlacement::kRoundRobin;
  core::DynaMastSystem dynamast(options, &partitioner);

  (void)dynamast.CreateTable(kTable);
  for (uint64_t key = 0; key < 4000; ++key) {
    (void)dynamast.LoadRow(RecordKey{kTable, key},
                           YcsbWorkload::MakeValue(0, 64));
  }
  dynamast.Seal();

  // The hot, co-accessed partition group (initially on 4 different sites).
  const std::vector<PartitionId> hot = {8, 9, 10, 11};
  PrintPlacement(dynamast, hot, "initial (round-robin)");

  core::ClientState client;
  client.id = 1;
  Random rng(7);
  for (int round = 1; round <= 60; ++round) {
    // Each transaction updates one key in each of two random hot
    // partitions — intra-transaction co-access across the group.
    const PartitionId a = hot[rng.Uniform(hot.size())];
    PartitionId b = hot[rng.Uniform(hot.size())];
    if (b == a) b = hot[(rng.Uniform(3) + 1 + (a - hot[0])) % hot.size()];
    const RecordKey ka{kTable, a * 100 + rng.Uniform(100)};
    const RecordKey kb{kTable, b * 100 + rng.Uniform(100)};
    core::TxnProfile profile;
    profile.write_keys = {ka, kb};
    auto logic = [&](core::TxnContext& ctx) -> Status {
      for (const RecordKey& key : {ka, kb}) {
        std::string value;
        Status s = ctx.Get(key, &value);
        if (!s.ok()) return s;
        s = ctx.Put(key, YcsbWorkload::MakeValue(
                             YcsbWorkload::ValueCounter(value) + 1, 64));
        if (!s.ok()) return s;
      }
      return Status::OK();
    };
    core::TxnResult result;
    if (auto s = dynamast.Execute(client, profile, logic, &result); !s.ok()) {
      std::fprintf(stderr, "txn: %s\n", s.ToString().c_str());
      return 1;
    }
    if (round == 5 || round == 20 || round == 60) {
      char label[32];
      std::snprintf(label, sizeof(label), "after %d txns", round);
      PrintPlacement(dynamast, hot, label);
    }
  }

  // All hot partitions should now master at a single site, and the
  // remastering counter should have stopped moving long ago.
  const SiteId owner =
      dynamast.site_selector().partition_map().MasterOfLocked(hot[0]);
  bool co_located = true;
  for (PartitionId p : hot) {
    co_located &=
        dynamast.site_selector().partition_map().MasterOfLocked(p) == owner;
  }
  std::printf("\nhot group co-located at one site: %s\n",
              co_located ? "yes" : "no");
  dynamast.Shutdown();
  return co_located ? 0 : 1;
}
