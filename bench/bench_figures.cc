// The paper's evaluation (Section VI, Appendices D-G) as one table: each
// figure is a workload, the five systems or DynaMast alone, and a list of
// points along one axis. A generic runner walks systems x points and
// prints the figure's table; E8-E10 (time series, weight sweep, latency
// breakdown) keep a reporter function of their own. EXPERIMENTS.md
// records the measured values against the paper's.
//
//   bench_figures --figure=E7[,E13,...|all] [flags]   (--help lists both)

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_placement.h"
#include "bench/harness.h"
#include "common/timeline.h"
#include "core/dynamast_system.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"
#include "workloads/ycsb.h"

namespace dynamast::bench {
namespace {

using workloads::SystemKind;

enum class WorkloadKind { kYcsb, kTpcc, kSmallBank };

/// Everything one run is built from; a point's delta edits it.
struct Run {
  workloads::DeploymentOptions deployment;
  workloads::Driver::Options driver;
  double scale = 1.0;  // data-size multiplier of the workload
  workloads::YcsbWorkload::Options ycsb = {};
  workloads::TpccWorkload::Options tpcc = {};
  workloads::SmallBankWorkload::Options smallbank = {};
};

struct Point {
  std::string label;               // the metrics row's point
  std::vector<std::string> keys;   // cells of the table's Key() columns
  std::function<void(Run&)> delta;  // null: the figure's base run
};

/// What a table row can show: the run that happened and its report.
struct Row {
  const std::string& system;
  const Point& point;
  const Run& run;
  const workloads::Driver::Report& report;
  const LatencyRecorder* latency;  // of the figure's first latency type
  double first_tput;               // this system's first point
};

struct Column {
  const char* header;
  int width;  // printf field width; negative left-aligns
  std::function<std::string(const Row&)> cell;
};

struct Figure;
using Reporter =
    std::function<void(const Figure&, const BenchConfig&, Outputs&)>;

struct Figure {
  const char* id = nullptr;
  const char* title = nullptr;
  std::function<void(BenchConfig&)> defaults = nullptr;
  bool dynamast_only = false;
  WorkloadKind workload = WorkloadKind::kYcsb;
  std::vector<Point> points = {};
  /// A table with one row per run; with no columns, one PrintLatencyRow
  /// per latency type per run (a blank line follows when there are
  /// several types).
  std::vector<Column> columns = {};
  /// Table rows of runs with no sample of the first type are skipped.
  std::vector<std::string> latency_types = {};
  /// E8-E10 only: replaces the generic runner.
  Reporter custom = nullptr;
};

template <typename... Args>
std::string Format(const char* format, Args... args) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// ---- Runs -------------------------------------------------------------------

Run BaseRun(const Figure& figure, const BenchConfig& config) {
  Run run{Deployment(config), DriverOptions(config), config.scale};
  run.ycsb.seed = run.tpcc.seed = run.smallbank.seed = config.seed;
  run.deployment.weights =
      figure.workload == WorkloadKind::kYcsb
          ? selector::StrategyWeights::Ycsb()
          : figure.workload == WorkloadKind::kTpcc
                ? selector::StrategyWeights::Tpcc()
                : selector::StrategyWeights::SmallBank();
  return run;
}

/// Sizes the workload by `run.scale` and builds it; TPC-C gets one
/// warehouse per site and warehouse placement for the static systems.
std::unique_ptr<workloads::Workload> MakeWorkload(WorkloadKind kind, Run& run) {
  switch (kind) {
    case WorkloadKind::kYcsb:
      run.ycsb.num_keys = static_cast<uint64_t>(100000 * run.scale);
      return std::make_unique<workloads::YcsbWorkload>(run.ycsb);
    case WorkloadKind::kTpcc: {
      run.tpcc.num_warehouses = run.deployment.num_sites;
      run.tpcc.num_items = static_cast<uint32_t>(1000 * run.scale);
      run.tpcc.customers_per_district = static_cast<uint32_t>(300 * run.scale);
      auto workload = std::make_unique<workloads::TpccWorkload>(run.tpcc);
      run.deployment.static_placement =
          workload->WarehousePlacement(run.deployment.num_sites);
      return workload;
    }
    case WorkloadKind::kSmallBank:
      run.smallbank.num_accounts = static_cast<uint64_t>(100000 * run.scale);
      return std::make_unique<workloads::SmallBankWorkload>(run.smallbank);
  }
  return nullptr;
}

RunTag Tag(const Figure& figure, const std::string& point, const Run& run) {
  return {figure.id, figure.title, point, run.scale};
}

/// Prints the header (row == nullptr) or one row of a figure's table.
void PrintColumns(const std::vector<Column>& columns, const Row* row) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string text =
        row == nullptr ? columns[i].header : columns[i].cell(*row);
    std::printf(i == 0 ? "%*s" : " %*s", columns[i].width, text.c_str());
  }
  std::printf("\n");
}

/// The generic runner: systems x points, one report per run.
void RunSweep(const Figure& figure, const BenchConfig& config,
              Outputs& outputs) {
  if (!figure.columns.empty()) PrintColumns(figure.columns, nullptr);
  const std::vector<SystemKind> systems =
      figure.dynamast_only ? std::vector<SystemKind>{SystemKind::kDynaMast}
                           : config.systems;
  for (SystemKind kind : systems) {
    double first_tput = 0;
    for (const Point& point : figure.points) {
      Run run = BaseRun(figure, config);
      if (point.delta) point.delta(run);
      std::unique_ptr<workloads::Workload> workload =
          MakeWorkload(figure.workload, run);
      RunResult result = RunOne(kind, *workload, run.deployment, run.driver,
                                Tag(figure, point.label, run), outputs);
      const std::string name = result.system->name();
      const workloads::Driver::Report& report = result.report;
      if (&point == &figure.points.front()) first_tput = report.Throughput();
      if (figure.columns.empty()) {
        for (const std::string& type : figure.latency_types) {
          PrintLatencyRow(name, type, report.LatencyFor(type));
        }
        if (figure.latency_types.size() > 1) std::printf("\n");
      } else {
        const LatencyRecorder* latency =
            figure.latency_types.empty()
                ? nullptr
                : report.LatencyFor(figure.latency_types.front());
        if (figure.latency_types.empty() || latency != nullptr) {
          const Row row{name, point, run, report, latency, first_tput};
          PrintColumns(figure.columns, &row);
        }
      }
      result.system->Shutdown();
    }
  }
}

// ---- Columns ----------------------------------------------------------------

const Column kSystem{"system", -16, [](const Row& r) { return r.system; }};
const Column kSites{"sites", 8, [](const Row& r) {
                      return std::to_string(r.run.deployment.num_sites);
                    }};
const Column kClients{"clients", 8, [](const Row& r) {
                        return std::to_string(r.run.driver.num_clients);
                      }};
const Column kTput{"tput(txn/s)", 14, [](const Row& r) {
                     return Format("%.1f", r.report.Throughput());
                   }};
const Column kErrors{"errors", 10, [](const Row& r) {
                       return std::to_string(r.report.errors);
                     }};
const Column kRemaster2pc{"remaster/2pc", 12, [](const Row& r) {
                            return std::to_string(r.report.remastered_txns +
                                                  r.report.distributed_txns);
                          }};
// `num / den`, or 0 for an empty denominator.
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const Column kRemasterPct{"remaster%", 12, [](const Row& r) {
                            return Format(
                                "%.2f%%",
                                100.0 * Ratio(static_cast<double>(
                                                  r.report.remastered_txns),
                                              static_cast<double>(
                                                  r.report.committed)));
                          }};
const Column kVsFirst{"vs 4 sites", 14, [](const Row& r) {
                        return Format("%.2fx", Ratio(r.report.Throughput(),
                                                     r.first_tput));
                      }};

Column Key(const char* header, int width, size_t index) {
  return {header, width, [index](const Row& r) { return r.point.keys[index]; }};
}

/// Latency of the figure's first type in ms: mean (quantile < 0) or a
/// percentile.
Column LatencyMs(const char* header, double quantile) {
  return {header, 12, [quantile](const Row& r) {
            return Format("%.2f", (quantile < 0
                                       ? r.latency->MeanMicros()
                                       : r.latency->PercentileMicros(quantile)) /
                                      1000.0);
          }};
}

const std::vector<Column> kThroughputTable = {kSystem, kTput, kErrors,
                                              kRemaster2pc};

// ---- Defaults and points ------------------------------------------------------

std::function<void(BenchConfig&)> Clients(uint32_t clients) {
  return [clients](BenchConfig& c) { c.clients = clients; };
}

void TpccDefaults(BenchConfig& c) {
  c.sites = 8;
  c.clients = 32;
  c.warmup = 3.0;  // mastership placement converges during warmup
}

Point ClientShare(const char* label, uint32_t divisor) {
  return {label, {}, [divisor](Run& r) {
            r.driver.num_clients = std::max(1u, r.driver.num_clients / divisor);
          }};
}

Point NewOrderShare(uint32_t pct) {
  return {"neworder=" + std::to_string(pct), {std::to_string(pct)},
          [pct](Run& r) {
            r.tpcc.new_order_pct = pct;
            r.tpcc.stock_level_pct = 10;
            r.tpcc.payment_pct = 90 - pct;
          }};
}

Point CrossNewOrder(uint32_t pct) {
  return {"cross=" + std::to_string(pct), {std::to_string(pct)},
          [pct](Run& r) { r.tpcc.cross_warehouse_neworder_pct = pct; }};
}

Point RemotePayment(uint32_t pct) {
  return {"remote=" + std::to_string(pct), {std::to_string(pct)},
          [pct](Run& r) { r.tpcc.remote_payment_pct = pct; }};
}

/// E11: one YCSB variant at 1x or 6x the data size.
Point DbSize(const char* variant, uint32_t rmw_pct, bool zipfian,
             double size) {
  const std::string size_key = Format("%.0fx", size);
  return {std::string(variant) + "/" + size_key, {variant, size_key},
          [rmw_pct, zipfian, size](Run& r) {
            r.ycsb.rmw_pct = rmw_pct;
            r.ycsb.zipfian = zipfian;
            r.scale *= size;
          }};
}

/// E12: `sites` data sites, the --clients count per site.
Point Sites(uint32_t sites) {
  return {"sites=" + std::to_string(sites), {}, [sites](Run& r) {
            r.deployment.num_sites = sites;
            r.driver.num_clients *= sites;
          }};
}

const Point kSkewed90{"zipf0.75", {}, [](Run& r) {
                        r.ycsb.rmw_pct = 90;
                        r.ycsb.zipfian = true;
                        r.ycsb.zipf_theta = 0.75;
                      }};
const Point kTpccMix{"mix=45/45/10", {}, nullptr};
const Point kSmallBankMix{"smallbank", {}, nullptr};

// ---- E8-E10 -------------------------------------------------------------------

// E8 (Figure 5b / Section VI-B5): adapting to a changed workload.
//
// Phase 1: the workload's partition correlations follow the natural range
// order and mastership starts with a matching manual range placement --
// transactions are single-sited, remastering is rare. One third into the
// run the correlation order is SHUFFLED (Appendix C's randomized
// partition access): the placement is suddenly wrong, transactions span
// sites, and DynaMast must learn the new correlations and remaster to
// recover. 100% RMW, skewed access, 25-transaction client affinity.
void Adaptivity(const Figure& figure, const BenchConfig& config,
                Outputs& outputs) {
  Run run = BaseRun(figure, config);
  run.ycsb.rmw_pct = 100;
  run.ycsb.zipfian = true;
  run.ycsb.affinity_txns = 25;  // rapid client turnover (Appendix C)
  run.ycsb.shuffle_correlations = false;  // natural order until the change
  run.deployment.sample_rate = 0.5;
  std::unique_ptr<workloads::Workload> built =
      MakeWorkload(figure.workload, run);
  auto& workload = static_cast<workloads::YcsbWorkload&>(*built);

  // DynaMast with a manual range placement matching the pre-change
  // correlation order (a placement the system factory does not offer).
  const workloads::DeploymentOptions d = outputs.Instrument(run.deployment);
  core::DynaMastSystem::Options options;
  options.cluster.num_sites = d.num_sites;
  options.cluster.record_history = d.record_history;
  options.cluster.trace = d.trace;
  options.cluster.network.one_way_latency = d.one_way_latency;
  options.cluster.site.read_op_cost = d.read_op_cost;
  options.cluster.site.write_op_cost = d.write_op_cost;
  options.cluster.site.apply_op_cost = d.apply_op_cost;
  options.cluster.site.worker_slots = d.worker_slots;
  options.selector.weights = d.weights;
  options.selector.sample_rate = d.sample_rate;
  options.placement = core::InitialPlacement::kCustom;
  options.custom_placement =
      baselines::RangePlacement(workload.num_partitions(), d.num_sites);
  core::DynaMastSystem system(options, &workload.partitioner());
  const Status s = workload.Load(system);
  if (!s.ok()) Die("load: " + s.ToString());
  system.Seal();

  const auto change_at = std::chrono::milliseconds(
      static_cast<int64_t>(config.seconds * 1000 / 3));
  run.driver.scheduled_actions.emplace_back(change_at, [&workload, &config] {
    workload.ShuffleCorrelations(config.seed ^ 0xbeef);
    std::printf("  >> correlations shuffled (workload change)\n");
  });
  metrics::Registry& registry = *system.cluster().metrics();
  registry.ResetValues();
  // The per-second throughput series: commits summed over the sites. Each
  // committed DynaMast transaction commits once, at one site.
  timeline::TimelineSampler::Options per_second;
  per_second.registry = &registry;
  per_second.period = std::chrono::milliseconds(1000);
  timeline::TimelineSampler commits(per_second);
  selector::ConvergenceTracker& convergence =
      system.site_selector().convergence();
  commits.Start();
  outputs.Measure(system, workload, run.deployment, run.driver,
                  Tag(figure, "hotspot-shift", run), [&] {
                    commits.Stop();
                    // Every surviving mastership transition is final: close
                    // all convergence episodes before the snapshot.
                    convergence.Flush(metrics::NowMicros(), /*force=*/true);
                  });
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
                Ratio(late, trough));
  }
  std::printf("remastered txns: %llu (%.2f%% of routed writes)\n",
              static_cast<unsigned long long>(
                  registry.CounterValue("selector_remaster_total")),
              100.0 * RemasterFraction(registry));

  // Time to relocalize: first remote burst on a partition -> its
  // mastership stabilizing at the accessing site.
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
  system.Shutdown();
}

// E9 (Figure 5a / Section VI-B6): each of the four strategy weights in
// turn scaled by {0, 0.1, 1, 10} of its default on skewed YCSB, plus the
// routing fractions with a crippled and with the default balance weight.
void Sensitivity(const Figure& figure, const BenchConfig& config,
                 Outputs& outputs) {
  // Throughput with `weights`; fills `routed_fraction` (per site) if set.
  const auto measure = [&](const std::string& point,
                           const selector::StrategyWeights& weights,
                           std::vector<double>* routed_fraction) {
    Run run = BaseRun(figure, config);
    run.ycsb.rmw_pct = 90;
    run.ycsb.zipfian = true;
    run.deployment.weights = weights;
    std::unique_ptr<workloads::Workload> workload =
        MakeWorkload(figure.workload, run);
    RunResult result = RunOne(SystemKind::kDynaMast, *workload,
                              run.deployment, run.driver,
                              Tag(figure, point, run), outputs);
    if (routed_fraction != nullptr) {
      const metrics::Registry& registry = metrics::Registry::Global();
      std::vector<uint64_t> routed;
      uint64_t total = 0;
      for (SiteId site = 0; site < run.deployment.num_sites; ++site) {
        routed.push_back(
            registry.CounterValue("selector_routed_to_site_total",
                                  {{"site", std::to_string(site)}}));
        total += routed.back();
      }
      routed_fraction->clear();
      for (uint64_t count : routed) {
        routed_fraction->push_back(Ratio(count, total));
      }
    }
    result.system->Shutdown();
    return result.report.Throughput();
  };

  const selector::StrategyWeights defaults = selector::StrategyWeights::Ycsb();
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
  const double baseline = measure("default", defaults, nullptr);
  std::printf("baseline (default weights): %.1f txn/s\n\n", baseline);
  std::printf("%-14s %8s %14s %10s\n", "weight", "scale", "tput(txn/s)",
              "vs base");
  for (const Axis& axis : axes) {
    for (double scale : {0.0, 0.1, 1.0, 10.0}) {
      selector::StrategyWeights weights = defaults;
      weights.*(axis.member) = (defaults.*(axis.member)) * scale;
      // Scaling a zero default is a no-op; substitute an absolute value
      // so the axis is still exercised (the paper's w_inter default for
      // YCSB is 0).
      if (defaults.*(axis.member) == 0.0 && scale > 0) {
        weights.*(axis.member) = scale;
      }
      const double tput =
          measure(Format("%s*%g", axis.name, scale), weights, nullptr);
      std::printf("%-14s %8.2f %14.1f %9.1f%%\n", axis.name, scale, tput,
                  100.0 * Ratio(tput, baseline));
    }
  }

  // Routing fractions with the balance weight crippled to 1% — the paper
  // reports 34% of requests to the hottest site vs 13% to the coldest (vs
  // an even 25% with defaults).
  const auto print_fractions = [](const std::vector<double>& fractions) {
    for (size_t s = 0; s < fractions.size(); ++s) {
      std::printf("  site%zu=%.1f%%", s, 100.0 * fractions[s]);
    }
  };
  selector::StrategyWeights crippled = defaults;
  crippled.balance *= 0.01;
  std::vector<double> fractions;
  measure("routing/w_balance*0.01", crippled, &fractions);
  std::printf("\nrouting fractions with w_balance x0.01:");
  print_fractions(fractions);
  measure("routing/default", defaults, &fractions);
  std::printf("\nrouting fractions with default weights: ");
  print_fractions(fractions);
  std::printf("\n");
}

// E10 (Figure 7 / Section VI-B7 / Appendix D): DynaMast overhead breakdown
// on uniform 50/50 YCSB — (a) the average write transaction split into
// routing (incl. remastering), network, queueing, begin, logic and
// commit; (b) remastering frequency; (c) network traffic by class.
void Breakdown(const Figure& figure, const BenchConfig& config,
               Outputs& outputs) {
  Run run = BaseRun(figure, config);
  std::unique_ptr<workloads::Workload> workload =
      MakeWorkload(figure.workload, run);
  RunResult result = RunOne(SystemKind::kDynaMast, *workload, run.deployment,
                            run.driver, Tag(figure, "rmw50", run), outputs);
  const metrics::Registry& registry = metrics::Registry::Global();

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
  for (SiteId s = 0; s < run.deployment.num_sites; ++s) {
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
                100.0 * Ratio(micros, total));
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
              Ratio(remaster_bytes, propagation_bytes));
  result.system->Shutdown();
}

// ---- The figure table -----------------------------------------------------------
//
// Paper headlines per figure are in DESIGN.md's experiment table.

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> figures = {
      {.id = "E1",
       .title = "E1 / Fig 4a: YCSB uniform 50/50 RMW-scan, throughput vs "
                "clients",
       .defaults = Clients(48),
       .points = {ClientShare("clients/4", 4), ClientShare("clients/2", 2),
                  ClientShare("clients", 1)},
       .columns = {kSystem, kClients, kTput, kErrors, kRemaster2pc}},
      {.id = "E2",
       .title = "E2 / Fig 4b: YCSB uniform 90/10 RMW-scan (write-intensive)",
       .defaults = Clients(64),
       .points = {{"rmw90", {}, [](Run& r) { r.ycsb.rmw_pct = 90; }}},
       .columns = kThroughputTable},
      {.id = "E3",
       .title = "E3 / Fig 4c: TPC-C New-Order latency",
       .defaults = TpccDefaults,
       .workload = WorkloadKind::kTpcc,
       .points = {kTpccMix},
       .latency_types = {"new-order"}},
      {.id = "E4",
       .title = "E4 / Fig 4d: TPC-C Stock-Level latency",
       .defaults = TpccDefaults,
       .workload = WorkloadKind::kTpcc,
       .points = {kTpccMix},
       .latency_types = {"stock-level"}},
      {.id = "E5",
       .title = "E5: TPC-C throughput vs %New-Order in the mix",
       .defaults = TpccDefaults,
       .workload = WorkloadKind::kTpcc,
       .points = {NewOrderShare(15), NewOrderShare(45), NewOrderShare(90)},
       .columns = {kSystem, Key("new-order%", 12, 0), kTput, kErrors}},
      {.id = "E6",
       .title = "E6: New-Order latency vs %cross-warehouse",
       .defaults = TpccDefaults,
       .workload = WorkloadKind::kTpcc,
       .points = {CrossNewOrder(0), CrossNewOrder(15), CrossNewOrder(33)},
       .columns = {kSystem, Key("cross%", 10, 0), LatencyMs("avg(ms)", -1),
                   LatencyMs("p90(ms)", 0.9), LatencyMs("p99(ms)", 0.99)},
       .latency_types = {"new-order"}},
      {.id = "E7",
       .title = "E7: YCSB Zipfian(0.75) 90/10 RMW-scan (skew)",
       .defaults = Clients(64),
       .points = {kSkewed90},
       .columns = kThroughputTable},
      {.id = "E8",
       .title = "E8 / Fig 5b: adaptivity to workload change (DynaMast)",
       .defaults =
           [](BenchConfig& c) {
             c.clients = 48;
             c.seconds = 24.0;
             c.warmup = 0.0;
           },
       .dynamast_only = true,
       .custom = Adaptivity},
      {.id = "E9",
       .title = "E9 / Fig 5a: strategy hyperparameter sensitivity (DynaMast)",
       .defaults = Clients(48),
       .dynamast_only = true,
       .custom = Sensitivity},
      {.id = "E10",
       .title = "E10 / Fig 7: DynaMast latency breakdown & overheads",
       .defaults =
           [](BenchConfig& c) {
             c.clients = 48;
             c.seconds = 4.0;
           },
       .dynamast_only = true,
       .custom = Breakdown},
      {.id = "E11",
       .title = "E11 / Fig 6b: DynaMast throughput vs database size",
       .defaults = Clients(48),
       .dynamast_only = true,
       .points = {DbSize("50-50U", 50, false, 1), DbSize("50-50U", 50, false, 6),
                  DbSize("90-10U", 90, false, 1), DbSize("90-10U", 90, false, 6),
                  DbSize("100-0U", 100, false, 1),
                  DbSize("100-0U", 100, false, 6),
                  DbSize("90-10S", 90, true, 1), DbSize("90-10S", 90, true, 6)},
       .columns = {Key("variant", -10, 0), Key("size", 10, 1), kTput,
                   kRemasterPct}},
      {.id = "E12",
       .title = "E12 / Fig 6c: DynaMast scalability with data sites",
       // Heavier simulated costs keep the *real* host below saturation
       // even at 16 simulated sites; otherwise the host, not the simulated
       // cluster, is the bottleneck (DESIGN.md, single-core substitution).
       .defaults =
           [](BenchConfig& c) {
             c.clients = 6;  // per site
             c.write_us = 1500;
             c.read_us = 20;
           },
       .dynamast_only = true,
       .points = {Sites(4), Sites(8), Sites(12), Sites(16)},
       .columns = {kSites, kClients, kTput, kVsFirst}},
      {.id = "E13",
       .title = "E13 / Fig 8a: SmallBank throughput",
       .defaults = Clients(48),
       .workload = WorkloadKind::kSmallBank,
       .points = {kSmallBankMix},
       .columns = kThroughputTable},
      {.id = "E14",
       .title = "E14 / Fig 8b-d: SmallBank tail latency by transaction class",
       .defaults = Clients(48),
       .workload = WorkloadKind::kSmallBank,
       .points = {kSmallBankMix},
       .latency_types = {"send-payment", "deposit-checking",
                         "transact-savings", "balance"}},
      {.id = "E15",
       .title = "E15 / Fig 8e-f: TPC-C Payment latency",
       .defaults = TpccDefaults,
       .workload = WorkloadKind::kTpcc,
       .points = {kTpccMix},
       .latency_types = {"payment"}},
      {.id = "E16",
       .title = "E16 / Fig 8g: Payment latency vs %cross-warehouse",
       .defaults = TpccDefaults,
       .workload = WorkloadKind::kTpcc,
       .points = {RemotePayment(0), RemotePayment(15)},
       .columns = {kSystem, Key("remote%", 10, 0), LatencyMs("avg(ms)", -1),
                   LatencyMs("p99(ms)", 0.99)},
       .latency_types = {"payment"}},
  };
  return figures;
}

std::vector<std::string> FigureIds() {
  std::vector<std::string> ids;
  for (const Figure& figure : Figures()) ids.push_back(figure.id);
  return ids;
}

}  // namespace
}  // namespace dynamast::bench

int main(int argc, char** argv) {
  using namespace dynamast::bench;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const auto parse = [&](BenchConfig* config) {
    const dynamast::Status s = ParseFlags(args, FigureIds(), config);
    if (!s.ok()) {
      std::fprintf(stderr, "bench_figures: %s\n", s.ToString().c_str());
    }
    return s.ok();
  };
  BenchConfig flags;
  if (!parse(&flags)) return 2;
  if (flags.help) {
    std::printf("%s\nfigures:\n", kFlagHelp);
    for (const Figure& figure : Figures()) {
      std::printf("  %-4s %s\n", figure.id, figure.title);
    }
    return 0;
  }
  Outputs outputs(flags);
  for (size_t i = 0; i < flags.figures.size(); ++i) {
    const Figure& figure = *std::find_if(
        Figures().begin(), Figures().end(),
        [&](const Figure& f) { return flags.figures[i] == f.id; });
    // The figure's defaults, then the same flags over them.
    BenchConfig config;
    if (figure.defaults) figure.defaults(config);
    if (!parse(&config)) return 2;
    if (i > 0) std::printf("\n");
    PrintHeader(figure.title, config);
    if (figure.custom) {
      figure.custom(figure, config, outputs);
    } else {
      RunSweep(figure, config, outputs);
    }
  }
  return 0;
}
