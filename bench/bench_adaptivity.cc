// E8 (Figure 5b / Section VI-B5): adapting to a changed workload.
//
// Phase 1: the workload's partition correlations follow the natural range
// order and mastership starts with a matching manual range placement --
// transactions are single-sited, remastering is rare. One third into the
// run the correlation order is SHUFFLED (Appendix C's randomized
// partition access): the placement is suddenly wrong, transactions span
// sites, and DynaMast must learn the new correlations and remaster to
// recover. 100% RMW, skewed access, 25-transaction client affinity.
//
// Paper headline: throughput dips at the change, then keeps improving as
// placement is re-learned -- recovering ~1.6x from the post-change trough.

#include "bench/bench_common.h"

#include "baselines/static_placement.h"
#include "core/dynamast_system.h"
#include "workloads/ycsb.h"

using namespace dynamast;
using namespace dynamast::bench;
using namespace dynamast::workloads;

int main(int argc, char** argv) {
  BenchConfig config;
  config.clients = 48;
  config.seconds = 24.0;
  config.warmup = 0.0;
  ParseFlags(argc, argv, &config);
  PrintHeader("E8 / Fig 5b: adaptivity to workload change (DynaMast)",
              config);
  SetPoint("hotspot-shift");
  const auto change_at = std::chrono::milliseconds(
      static_cast<int64_t>(config.seconds * 1000 / 3));

  YcsbWorkload::Options wopts;
  wopts.num_keys = static_cast<uint64_t>(100000 * config.scale);
  wopts.rmw_pct = 100;
  wopts.zipfian = true;
  wopts.affinity_txns = 25;  // rapid client turnover (Appendix C)
  wopts.shuffle_correlations = false;  // natural order until the change
  wopts.seed = config.seed;
  YcsbWorkload workload(wopts);

  // Manual range placement matching the pre-change correlation order.
  core::DynaMastSystem::Options options;
  options.cluster.num_sites = config.sites;
  options.cluster.network.one_way_latency =
      std::chrono::microseconds(config.latency_us);
  options.cluster.site.read_op_cost = std::chrono::microseconds(config.read_us);
  options.cluster.site.write_op_cost =
      std::chrono::microseconds(config.write_us);
  options.cluster.site.apply_op_cost =
      std::chrono::microseconds(config.apply_us);
  options.cluster.site.worker_slots = config.slots;
  options.selector.weights = selector::StrategyWeights::Ycsb();
  options.selector.sample_rate = 0.5;
  options.placement = core::InitialPlacement::kCustom;
  options.custom_placement = baselines::RangePlacement(
      workload.num_partitions(), config.sites);
  core::DynaMastSystem system(options, &workload.partitioner());
  Status s = workload.Load(system);
  if (!s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  system.Seal();

  Driver::Options driver_options = DriverOptions(config, config.clients);
  driver_options.scheduled_actions.emplace_back(
      change_at, [&workload, &config] {
        workload.ShuffleCorrelations(config.seed ^ 0xbeef);
        std::printf("  >> correlations shuffled (workload change)\n");
      });
  // This bench drives its system directly (it needs the custom placement
  // and mid-run shuffle), so it wires the RunOne telemetry paths by hand.
  const bool metrics_on = !config.metrics_out.empty();
  const bool timeline_on = !config.timeline_out.empty();
  metrics::Registry& registry = *system.cluster().metrics();
  registry.ResetValues();
  if (metrics_on || timeline_on) driver_options.metrics = &registry;
  Driver driver(driver_options);
  std::unique_ptr<timeline::TimelineSampler> sampler;
  if (timeline_on) {
    sampler = bench::internal::MakeTimelineSampler(config, system.name());
    sampler->Start();
  }
  // The per-second throughput series: commits summed over the sites. Each
  // committed DynaMast transaction commits once, at one site.
  timeline::TimelineSampler::Options per_second;
  per_second.registry = &registry;
  per_second.period = std::chrono::milliseconds(1000);
  timeline::TimelineSampler commits(per_second);
  commits.Start();
  Driver::Report report = driver.Run(system, workload);
  commits.Stop();
  std::vector<uint64_t> tput;
  uint64_t previous = 0;
  for (const timeline::TimelineSampler::Row& row : commits.Rows()) {
    uint64_t committed = 0;
    for (const metrics::Registry::SampledValue& v : row.values) {
      if (v.key.starts_with("site_commits_total{")) {
        committed += static_cast<uint64_t>(v.value);
      }
    }
    tput.push_back(committed - previous);
    previous = committed;
  }

  // End of run: every surviving mastership transition is final, so close
  // all convergence episodes before reporting/snapshotting.
  selector::ConvergenceTracker& convergence =
      system.site_selector().convergence();
  convergence.Flush(metrics::NowMicros(), /*force=*/true);
  if (sampler != nullptr) {
    sampler->Stop();
    bench::internal::AppendTimelineRun(config, *sampler);
  }

  const size_t change_bucket =
      static_cast<size_t>(change_at / std::chrono::milliseconds(1000));
  std::printf("%8s %14s\n", "second", "tput(txn/s)");
  for (size_t i = 0; i < tput.size(); ++i) {
    std::printf("%8zu %14llu%s\n", i,
                static_cast<unsigned long long>(tput[i]),
                i == change_bucket ? "   <- workload change" : "");
  }
  // The adaptivity headline: post-change trough vs the end of the run.
  if (tput.size() > change_bucket + 4) {
    uint64_t trough = UINT64_MAX;
    for (size_t i = change_bucket; i < change_bucket + 3; ++i) {
      trough = std::min(trough, tput[i]);
    }
    const size_t n = tput.size();
    const double late = static_cast<double>(tput[n - 3] + tput[n - 2]) / 2.0;
    std::printf("\npost-change trough=%llu txn/s late=%.0f txn/s "
                "recovery=%.2fx\n",
                static_cast<unsigned long long>(trough), late,
                trough > 0 ? late / static_cast<double>(trough) : 0.0);
  }
  std::printf("remastered txns: %llu (%.2f%% of routed writes)\n",
              static_cast<unsigned long long>(
                  registry.CounterValue("selector_remaster_total")),
              100.0 * RemasterFraction(registry));

  // The ROADMAP's time-to-relocalize metric: first remote burst on a
  // partition -> its mastership stabilizing at the accessing site.
  const LatencyRecorder* relocalize =
      registry.HistogramRecorder("selector_time_to_relocalize_us");
  std::printf("time-to-relocalize: episodes=%llu",
              static_cast<unsigned long long>(convergence.relocalized()));
  if (relocalize != nullptr && relocalize->count() > 0) {
    std::printf(" p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms",
                relocalize->PercentileMicros(0.5) / 1000.0,
                relocalize->PercentileMicros(0.9) / 1000.0,
                relocalize->PercentileMicros(0.99) / 1000.0,
                relocalize->MaxMicros() / 1000.0);
  }
  std::printf("\n");

  if (metrics_on) {
    bench::internal::AppendMetricsRow(config, system.name(), report);
  }
  system.Shutdown();
  return 0;
}
