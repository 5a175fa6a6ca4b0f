// E10 (Figure 7 / Section VI-B7 / Appendix D): DynaMast overhead
// breakdown on the uniform 50/50 YCSB workload —
//  (a) average write-transaction time split into routing (incl.
//      remastering), network, begin, stored-procedure logic and commit;
//  (b) remastering frequency (% of transactions that required it);
//  (c) network traffic by class (propagation vs remastering metadata vs
//      client requests).
//
// Paper headline: routing <1% (amortized), network ~40%, logic ~45%,
// begin <1%, commit ~1%; <1-3% of transactions remaster; remastering
// traffic is a tiny sliver (3 MB/s) next to refresh propagation
// (155 MB/s).

#include "bench/bench_common.h"

#include "core/dynamast_system.h"
#include "workloads/ycsb.h"

using namespace dynamast;
using namespace dynamast::bench;
using namespace dynamast::workloads;

int main(int argc, char** argv) {
  BenchConfig config;
  config.clients = 48;
  config.seconds = 4.0;
  ParseFlags(argc, argv, &config);
  PrintHeader("E10 / Fig 7: DynaMast latency breakdown & overheads", config);

  YcsbWorkload::Options wopts;
  wopts.num_keys = static_cast<uint64_t>(100000 * config.scale);
  wopts.rmw_pct = 50;
  wopts.seed = config.seed;
  YcsbWorkload workload(wopts);
  DeploymentOptions deployment = Deployment(config);
  deployment.weights = selector::StrategyWeights::Ycsb();
  RunResult run = RunOne(SystemKind::kDynaMast, deployment, workload,
                         DriverOptions(config, config.clients));
  auto* system = static_cast<core::DynaMastSystem*>(run.system.get());
  const metrics::Registry& registry = *system->cluster().metrics();

  // Phase means per committed write: route and network observe once per
  // attempt and once per RPC, so their sums are divided by the commit
  // count. The slot wait is every admission's mean across the sites.
  auto phase = [&](const char* name) {
    return registry.HistogramRecorder("txn_phase_us", {{"phase", name}});
  };
  const uint64_t writes = phase("commit")->count();
  auto per_write = [&](const char* name) {
    const LatencyRecorder* r = phase(name);
    return writes == 0 ? 0.0
                       : r->MeanMicros() * static_cast<double>(r->count()) /
                             static_cast<double>(writes);
  };
  LatencyRecorder admission;
  for (SiteId s = 0; s < system->cluster().num_sites(); ++s) {
    admission.Merge(*registry.HistogramRecorder(
        "site_admission_wait_us", {{"site", std::to_string(s)}}));
  }
  const double routing = per_write("route");
  const double network = per_write("network");
  const double queueing = admission.MeanMicros();
  const double begin = per_write("begin");
  const double logic = per_write("execute");
  const double commit = per_write("commit");
  const double total = routing + network + queueing + begin + logic + commit;
  std::printf("write transaction phase breakdown (avg, n=%llu):\n",
              static_cast<unsigned long long>(writes));
  auto row = [&](const char* name, double micros) {
    std::printf("  %-24s %10.3f ms  %5.1f%%\n", name, micros / 1000.0,
                total > 0 ? 100.0 * micros / total : 0.0);
  };
  row("routing (+remastering)", routing);
  row("network", network);
  row("queueing (slot wait)", queueing);
  row("begin (locks+session)", begin);
  row("transaction logic", logic);
  row("commit", commit);

  std::printf("\nremastering: %llu of %llu routed writes (%.2f%%), "
              "%llu partitions moved\n",
              static_cast<unsigned long long>(
                  registry.CounterValue("selector_remaster_total")),
              static_cast<unsigned long long>(registry.CounterValue(
                  "selector_routes_total", {{"kind", "write"}})),
              100.0 * RemasterFraction(registry),
              static_cast<unsigned long long>(
                  registry.CounterValue("selector_partitions_moved_total")));

  std::printf("\nnetwork traffic by class:\n");
  auto traffic = [&](const char* family, net::TrafficClass c) {
    return registry.CounterValue(family, {{"class", net::TrafficClassName(c)}});
  };
  for (int i = 0; i < static_cast<int>(net::TrafficClass::kNumClasses); ++i) {
    const auto c = static_cast<net::TrafficClass>(i);
    std::printf(
        "%-16s %12llu msgs %12.3f MB\n", net::TrafficClassName(c),
        static_cast<unsigned long long>(traffic("net_messages_total", c)),
        static_cast<double>(traffic("net_bytes_total", c)) /
            (1024.0 * 1024.0));
  }
  const double propagation_bytes = static_cast<double>(
      traffic("net_bytes_total", net::TrafficClass::kPropagation));
  const double remaster_bytes = static_cast<double>(
      traffic("net_bytes_total", net::TrafficClass::kRemastering));
  std::printf("\nremastering bytes / propagation bytes = %.4f\n",
              propagation_bytes > 0 ? remaster_bytes / propagation_bytes
                                    : 0.0);
  run.system->Shutdown();
  return 0;
}
