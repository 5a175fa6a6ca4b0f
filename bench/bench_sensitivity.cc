// E9 (Figure 5a / Section VI-B6): sensitivity of DynaMast to the four
// strategy hyperparameters (w_balance, w_delay, w_intra_txn,
// w_inter_txn). Each weight in turn is scaled by {0, 0.01, 0.1, 1, 10,
// 100} of its default on a skewed YCSB workload; the routing-fraction
// table for a crippled balance weight is also reported.
//
// Paper headline: with all weights non-zero, throughput stays within a
// narrow band (~8%); w_balance = 0 costs ~40%; raising w_intra from 0 to
// its default gains ~16% (w_inter ~10%) under workload change.

#include "bench/bench_common.h"

#include "core/dynamast_system.h"
#include "workloads/ycsb.h"

using namespace dynamast;
using namespace dynamast::bench;
using namespace dynamast::workloads;

namespace {

double RunWithWeights(const BenchConfig& config,
                      const selector::StrategyWeights& weights,
                      std::vector<double>* routed_fraction) {
  YcsbWorkload::Options wopts;
  wopts.num_keys = static_cast<uint64_t>(100000 * config.scale);
  wopts.rmw_pct = 90;
  wopts.zipfian = true;
  wopts.seed = config.seed;
  YcsbWorkload workload(wopts);
  DeploymentOptions deployment = Deployment(config);
  deployment.weights = weights;
  RunResult run = RunOne(SystemKind::kDynaMast, deployment, workload,
                         DriverOptions(config, config.clients));
  if (routed_fraction != nullptr) {
    core::Cluster& cluster =
        static_cast<core::DynaMastSystem*>(run.system.get())->cluster();
    std::vector<uint64_t> routed;
    uint64_t total = 0;
    for (SiteId site = 0; site < cluster.num_sites(); ++site) {
      routed.push_back(cluster.metrics()->CounterValue(
          "selector_routed_to_site_total", {{"site", std::to_string(site)}}));
      total += routed.back();
    }
    routed_fraction->clear();
    for (uint64_t count : routed) {
      routed_fraction->push_back(
          total > 0 ? static_cast<double>(count) / static_cast<double>(total)
                    : 0.0);
    }
  }
  const double tput = run.report.Throughput();
  run.system->Shutdown();
  return tput;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  config.clients = 48;
  ParseFlags(argc, argv, &config);
  PrintHeader("E9 / Fig 5a: strategy hyperparameter sensitivity (DynaMast)",
              config);

  const selector::StrategyWeights defaults =
      selector::StrategyWeights::Ycsb();
  const std::vector<double> scales = {0.0, 0.1, 1.0, 10.0};
  struct Axis {
    const char* name;
    double selector::StrategyWeights::* member;
  };
  const std::vector<Axis> axes = {
      {"w_balance", &selector::StrategyWeights::balance},
      {"w_delay", &selector::StrategyWeights::delay},
      {"w_intra_txn", &selector::StrategyWeights::intra_txn},
      {"w_inter_txn", &selector::StrategyWeights::inter_txn},
  };

  const double baseline = RunWithWeights(config, defaults, nullptr);
  std::printf("baseline (default weights): %.1f txn/s\n\n", baseline);
  std::printf("%-14s %8s %14s %10s\n", "weight", "scale", "tput(txn/s)",
              "vs base");
  for (const Axis& axis : axes) {
    for (double scale : scales) {
      selector::StrategyWeights weights = defaults;
      weights.*(axis.member) = (defaults.*(axis.member)) * scale;
      // Scaling a zero default is a no-op; substitute an absolute value
      // so the axis is still exercised (the paper's w_inter default for
      // YCSB is 0).
      if (defaults.*(axis.member) == 0.0 && scale > 0) {
        weights.*(axis.member) = scale;
      }
      const double tput = RunWithWeights(config, weights, nullptr);
      std::printf("%-14s %8.2f %14.1f %9.1f%%\n", axis.name, scale, tput,
                  baseline > 0 ? 100.0 * tput / baseline : 0.0);
    }
  }

  // Routing-fraction table with the balance weight crippled to 1% — the
  // paper reports 34% of requests to the hottest site vs 13% to the
  // coldest (vs an even 25% with defaults).
  selector::StrategyWeights crippled = defaults;
  crippled.balance *= 0.01;
  std::vector<double> fractions;
  RunWithWeights(config, crippled, &fractions);
  std::printf("\nrouting fractions with w_balance x0.01:");
  for (size_t s = 0; s < fractions.size(); ++s) {
    std::printf("  site%zu=%.1f%%", s, 100.0 * fractions[s]);
  }
  fractions.clear();
  RunWithWeights(config, defaults, &fractions);
  std::printf("\nrouting fractions with default weights: ");
  for (size_t s = 0; s < fractions.size(); ++s) {
    std::printf("  site%zu=%.1f%%", s, 100.0 * fractions[s]);
  }
  std::printf("\n");
  return 0;
}
