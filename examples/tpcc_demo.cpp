// Example: running the TPC-C workload through the benchmark driver on
// DynaMast and printing per-transaction-class latency — the paper's
// Section VI-B2 scenario in miniature.
//
//   ./build/examples/tpcc_demo

#include <cstdio>

#include "core/dynamast_system.h"
#include "workloads/driver.h"
#include "workloads/tpcc.h"

using namespace dynamast;
using namespace dynamast::workloads;

int main() {
  TpccWorkload::Options tpcc_options;
  tpcc_options.num_warehouses = 4;
  tpcc_options.num_items = 500;
  tpcc_options.customers_per_district = 100;
  TpccWorkload tpcc(tpcc_options);

  core::DynaMastSystem::Options options;
  options.cluster.num_sites = 4;
  options.cluster.network.one_way_latency = std::chrono::microseconds(100);
  options.selector.weights = selector::StrategyWeights::Tpcc();
  core::DynaMastSystem dynamast(options, &tpcc.partitioner());

  std::printf("loading %u warehouses...\n", tpcc_options.num_warehouses);
  if (auto s = tpcc.Load(dynamast); !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  dynamast.Seal();

  Driver::Options driver_options;
  driver_options.num_clients = 16;
  driver_options.warmup = std::chrono::milliseconds(1000);
  driver_options.measure = std::chrono::milliseconds(3000);
  Driver driver(driver_options);
  std::printf("running 16 clients for 3s (45/45/10 "
              "new-order/payment/stock-level)...\n\n");
  Driver::Report report = driver.Run(dynamast, tpcc);

  std::printf("%s\n\n", report.Summary().c_str());
  for (const auto& [type, count] : report.committed_by_type) {
    const LatencyRecorder* latency = report.LatencyFor(type);
    std::printf("  %-14s %6llu txns  %s\n", type.c_str(),
                static_cast<unsigned long long>(count),
                latency != nullptr ? latency->Summary().c_str() : "");
  }

  const metrics::Registry& registry = *dynamast.cluster().metrics();
  const uint64_t write_routes =
      registry.CounterValue("selector_routes_total", {{"kind", "write"}});
  std::printf("\nremastering: %.2f%% of write transactions\n",
              write_routes == 0
                  ? 0.0
                  : 100.0 * registry.CounterValue("selector_remaster_total") /
                        write_routes);
  std::printf("mastered partitions per site:");
  auto per_site =
      dynamast.site_selector().partition_map().MasterCounts(4);
  for (size_t s = 0; s < per_site.size(); ++s) {
    std::printf("  site%zu=%zu", s, per_site[s]);
  }
  std::printf("\n");
  dynamast.Shutdown();
  return 0;
}
