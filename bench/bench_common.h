#ifndef DYNAMAST_BENCH_BENCH_COMMON_H_
#define DYNAMAST_BENCH_BENCH_COMMON_H_

// Shared harness for the per-figure benchmark binaries. Every binary
// accepts the same flags and prints the rows/series of its paper figure;
// EXPERIMENTS.md records the measured values against the paper's.
//
// Flags (all optional):
//   --seconds=N     measurement window per point      (default 2)
//   --warmup=N      warmup seconds per point          (default 1)
//   --clients=N     concurrent clients                (default per bench)
//   --sites=N       data sites                        (default per bench)
//   --scale=F       data-size multiplier              (default 1.0)
//   --latency_us=N  one-way simulated network latency (default 250)
//   --read_us=N     per-read service time             (default 10)
//   --write_us=N    per-write service time            (default 500)
//   --apply_us=N    per-applied-write refresh cost    (default 100)
//   --slots=N       worker slots per site             (default 4)
//   --systems=a,b   comma-separated subset of systems (default: all)
//   --seed=N        RNG seed                          (default 31)
//   --metrics-out=F append one machine-readable JSON row per (system,
//                   point) to F: bench/config identity, the driver report
//                   and a full metrics-registry snapshot (the registry is
//                   reset before each run so a row covers exactly one run)
//   --trace-out=F   enable per-transaction tracing and write a Chrome
//                   trace-event JSON file (load in Perfetto); each run's
//                   spans get their own pid lane group
//   --history-out=F enable history recording and dump each run's event
//                   log to F (last run wins — combine with --systems=<one>
//                   to audit it: si_checker --metrics=<metrics row> F)
//   --timeline-out=F        sample the metrics registry every
//                           --timeline-period-ms during each run and append
//                           the rows to F as JSONL (one run label per
//                           (system, point); summarize with
//                           metrics_dump --timeline F)
//   --timeline-period-ms=N  timeline sampling cadence (default 100)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/timeline.h"
#include "common/trace.h"
#include "workloads/driver.h"
#include "workloads/system_factory.h"
#include "workloads/workload.h"

namespace dynamast::bench {

struct BenchConfig {
  double seconds = 2.0;
  double warmup = 1.0;
  uint32_t clients = 24;
  uint32_t sites = 4;
  double scale = 1.0;
  uint32_t latency_us = 250;
  uint32_t read_us = 10;
  uint32_t write_us = 500;
  uint32_t apply_us = 100;
  uint32_t slots = 4;
  uint64_t seed = 31;
  std::vector<workloads::SystemKind> systems = workloads::AllSystems();
  /// When non-empty, RunOne appends one JSON row per run to this file.
  std::string metrics_out;
  /// When non-empty, RunOne enables tracing and (re)writes this Chrome
  /// trace-event file after every run.
  std::string trace_out;
  /// When non-empty, RunOne records history and dumps it here (each run
  /// overwrites the file, so the dump always covers one coherent run).
  std::string history_out;
  /// When non-empty, RunOne samples the global registry during each run
  /// and appends the timeline rows here as JSONL.
  std::string timeline_out;
  uint32_t timeline_period_ms = 100;
};

// Telemetry surface state shared by the inline harness functions
// (benchmark binaries are single-threaded drivers of RunOne).
namespace internal {
inline const BenchConfig* g_config = nullptr;
inline std::string g_bench_title = "bench";
inline std::string g_point;
inline bool g_metrics_file_started = false;
inline bool g_timeline_file_started = false;
inline std::vector<trace::TraceEvent> g_trace_events;
inline std::map<uint32_t, std::string> g_trace_names;
inline uint32_t g_trace_runs = 0;
}  // namespace internal

/// Labels the current measurement point (e.g. "theta=0.95" or
/// "clients=64") for the metrics/trace output of subsequent RunOne calls.
inline void SetPoint(const std::string& label) { internal::g_point = label; }

inline workloads::SystemKind ParseSystem(const std::string& name) {
  for (workloads::SystemKind kind : workloads::AllSystems()) {
    if (name == workloads::SystemKindName(kind)) return kind;
  }
  std::fprintf(stderr, "unknown system '%s'\n", name.c_str());
  std::exit(2);
}

/// Parses the common flags; exits on malformed input. Bench-specific
/// defaults should be set on `config` before calling.
inline void ParseFlags(int argc, char** argv, BenchConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--seconds=")) {
      config->seconds = std::atof(v);
    } else if (const char* v = value("--warmup=")) {
      config->warmup = std::atof(v);
    } else if (const char* v = value("--clients=")) {
      config->clients = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--sites=")) {
      config->sites = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--scale=")) {
      config->scale = std::atof(v);
    } else if (const char* v = value("--latency_us=")) {
      config->latency_us = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--read_us=")) {
      config->read_us = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--write_us=")) {
      config->write_us = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--apply_us=")) {
      config->apply_us = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--slots=")) {
      config->slots = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--seed=")) {
      config->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--metrics-out=")) {
      config->metrics_out = v;
    } else if (const char* v = value("--trace-out=")) {
      config->trace_out = v;
    } else if (const char* v = value("--history-out=")) {
      config->history_out = v;
    } else if (const char* v = value("--timeline-out=")) {
      config->timeline_out = v;
    } else if (const char* v = value("--timeline-period-ms=")) {
      config->timeline_period_ms = static_cast<uint32_t>(std::atoi(v));
    } else if (const char* v = value("--systems=")) {
      config->systems.clear();
      std::string list = v;
      size_t pos = 0;
      while (pos != std::string::npos) {
        const size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!name.empty()) config->systems.push_back(ParseSystem(name));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("see bench/bench_common.h for flags\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
  // RunOne reads the telemetry flags through this pointer so existing
  // bench mains need no signature changes.
  internal::g_config = config;
}

inline workloads::DeploymentOptions Deployment(const BenchConfig& config) {
  workloads::DeploymentOptions options;
  options.num_sites = config.sites;
  options.worker_slots = config.slots;
  options.read_op_cost = std::chrono::microseconds(config.read_us);
  options.write_op_cost = std::chrono::microseconds(config.write_us);
  options.apply_op_cost = std::chrono::microseconds(config.apply_us);
  options.one_way_latency = std::chrono::microseconds(config.latency_us);
  options.charge_network = true;
  options.seed = config.seed;
  return options;
}

inline workloads::Driver::Options DriverOptions(const BenchConfig& config,
                                                uint32_t clients) {
  workloads::Driver::Options options;
  options.num_clients = clients;
  options.warmup = std::chrono::milliseconds(
      static_cast<int64_t>(config.warmup * 1000));
  options.measure = std::chrono::milliseconds(
      static_cast<int64_t>(config.seconds * 1000));
  options.seed = config.seed;
  return options;
}

/// Loads `workload` into a freshly built `kind` system and runs the
/// driver. The returned report plus the system pointer (for counters).
struct RunResult {
  workloads::Driver::Report report;
  std::unique_ptr<core::SystemInterface> system;
};

namespace internal {

/// One JSON row: bench/point/system identity, deployment config, driver
/// report, and a full snapshot of the process-global metrics registry.
inline void AppendMetricsRow(const BenchConfig& config,
                             const std::string& system_name,
                             const workloads::Driver::Report& report) {
  std::FILE* f = std::fopen(config.metrics_out.c_str(),
                            g_metrics_file_started ? "a" : "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", config.metrics_out.c_str());
    std::exit(1);
  }
  g_metrics_file_started = true;
  std::string row = "{\"bench\":\"" + metrics::JsonEscape(g_bench_title) +
                    "\",\"point\":\"" + metrics::JsonEscape(g_point) +
                    "\",\"system\":\"" + metrics::JsonEscape(system_name) +
                    "\",";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"config\":{\"sites\":%u,\"clients\":%u,\"seconds\":%g,"
                "\"warmup\":%g,\"scale\":%g,\"latency_us\":%u,\"read_us\":%u,"
                "\"write_us\":%u,\"apply_us\":%u,\"slots\":%u,\"seed\":%llu},",
                config.sites, config.clients, config.seconds, config.warmup,
                config.scale, config.latency_us, config.read_us,
                config.write_us, config.apply_us, config.slots,
                static_cast<unsigned long long>(config.seed));
  row += buf;
  std::snprintf(buf, sizeof(buf),
                "\"report\":{\"committed\":%llu,\"errors\":%llu,"
                "\"seconds\":%g,\"throughput\":%g,\"remastered_txns\":%llu,"
                "\"distributed_txns\":%llu,\"retries\":%llu,",
                static_cast<unsigned long long>(report.committed),
                static_cast<unsigned long long>(report.errors),
                report.seconds, report.Throughput(),
                static_cast<unsigned long long>(report.remastered_txns),
                static_cast<unsigned long long>(report.distributed_txns),
                static_cast<unsigned long long>(report.retries));
  row += buf;
  // Overall latency distribution, merged across transaction types, so a
  // metrics row carries the percentile trajectory (BENCH_*.json) without
  // needing the human-readable stdout tables.
  LatencyRecorder overall;
  for (const auto& [type, recorder] : report.latency_by_type) {
    if (recorder) overall.Merge(*recorder);
  }
  if (overall.count() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\"latency_us\":{\"count\":%llu,\"mean\":%g,\"p50\":%g,"
                  "\"p90\":%g,\"p99\":%g},",
                  static_cast<unsigned long long>(overall.count()),
                  overall.MeanMicros(), overall.PercentileMicros(0.5),
                  overall.PercentileMicros(0.9),
                  overall.PercentileMicros(0.99));
    row += buf;
  }
  row += "\"aborted_by_reason\":{";
  bool first = true;
  for (const auto& [reason, count] : report.aborted_by_reason) {
    if (!first) row += ",";
    first = false;
    row += "\"" + metrics::JsonEscape(reason) +
           "\":" + std::to_string(count);
  }
  row += "},\"committed_by_type\":{";
  first = true;
  for (const auto& [type, count] : report.committed_by_type) {
    if (!first) row += ",";
    first = false;
    row += "\"" + metrics::JsonEscape(type) + "\":" + std::to_string(count);
  }
  row += "}},\"metrics\":" + metrics::Registry::Global().SnapshotJson() + "}\n";
  std::fputs(row.c_str(), f);
  std::fclose(f);
}

/// Truncates the timeline file on first use, then appends the sampler's
/// rows (each RunOne call contributes one run label).
inline void AppendTimelineRun(const BenchConfig& config,
                              const timeline::TimelineSampler& sampler) {
  if (!g_timeline_file_started) {
    std::FILE* f = std::fopen(config.timeline_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", config.timeline_out.c_str());
      std::exit(1);
    }
    std::fclose(f);
    g_timeline_file_started = true;
  }
  const Status s = sampler.AppendJsonl(config.timeline_out);
  if (!s.ok()) {
    std::fprintf(stderr, "timeline dump failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  if (sampler.dropped_rows() > 0) {
    std::fprintf(stderr, "timeline: %llu samples dropped (row bound)\n",
                 static_cast<unsigned long long>(sampler.dropped_rows()));
  }
}

/// Builds the run's timeline sampler (caller Start()s it around the
/// measured region). Label convention: "<system>[/<point>]".
inline std::unique_ptr<timeline::TimelineSampler> MakeTimelineSampler(
    const BenchConfig& config, const std::string& system_name) {
  timeline::TimelineSampler::Options options;
  options.period = std::chrono::milliseconds(
      config.timeline_period_ms == 0 ? 100 : config.timeline_period_ms);
  options.run_label =
      system_name + (g_point.empty() ? "" : "/" + g_point);
  return std::make_unique<timeline::TimelineSampler>(std::move(options));
}

/// Folds one run's spans into the accumulated trace and rewrites the
/// whole file: each run gets a pid block of its own (offset 100 per run)
/// so lanes from different (system, point) runs do not collide.
inline void AppendTraceRun(const BenchConfig& config,
                           const std::string& system_name,
                           trace::Tracer& tracer) {
  const uint32_t offset = g_trace_runs * 100;
  ++g_trace_runs;
  const std::string prefix =
      system_name + (g_point.empty() ? "" : "/" + g_point) + "/";
  for (const auto& [pid, name] : tracer.process_names()) {
    g_trace_names[pid + offset] = prefix + name;
  }
  for (trace::TraceEvent event : tracer.Snapshot()) {
    event.pid += offset;
    g_trace_events.push_back(std::move(event));
  }
  std::FILE* f = std::fopen(config.trace_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", config.trace_out.c_str());
    std::exit(1);
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : g_trace_names) {
    if (!first) out += ",";
    first = false;
    out += trace::ProcessNameEvent(pid, name).ToJson();
  }
  for (const trace::TraceEvent& event : g_trace_events) {
    if (!first) out += ",";
    first = false;
    out += event.ToJson();
  }
  out += "]}\n";
  std::fputs(out.c_str(), f);
  std::fclose(f);
}

}  // namespace internal

inline RunResult RunOne(workloads::SystemKind kind,
                        const workloads::DeploymentOptions& deployment,
                        workloads::Workload& workload,
                        const workloads::Driver::Options& driver_options) {
  const BenchConfig* config = internal::g_config;
  const bool metrics_on = config != nullptr && !config->metrics_out.empty();
  const bool trace_on = config != nullptr && !config->trace_out.empty();
  const bool history_on = config != nullptr && !config->history_out.empty();
  const bool timeline_on = config != nullptr && !config->timeline_out.empty();

  workloads::DeploymentOptions effective_deployment = deployment;
  if (trace_on) effective_deployment.trace = true;
  if (history_on) effective_deployment.record_history = true;
  workloads::Driver::Options effective_driver = driver_options;
  // Zero every series the process has registered so each run's readers
  // (the bench's own tables, the metrics row, the timeline) see exactly
  // this run.
  metrics::Registry::Global().ResetValues();
  if (metrics_on || timeline_on) {
    effective_driver.metrics = &metrics::Registry::Global();
  }

  RunResult result;
  result.system = workloads::MakeSystem(kind, effective_deployment,
                                        workload.partitioner());
  Status s = workload.Load(*result.system);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed for %s: %s\n", result.system->name().c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }
  result.system->Seal();
  workloads::Driver driver(effective_driver);
  std::unique_ptr<timeline::TimelineSampler> sampler;
  if (timeline_on) {
    sampler = internal::MakeTimelineSampler(*config, result.system->name());
    sampler->Start();
  }
  result.report = driver.Run(*result.system, workload);
  if (sampler != nullptr) {
    sampler->Stop();
    internal::AppendTimelineRun(*config, *sampler);
  }
  if (metrics_on) {
    internal::AppendMetricsRow(*config, result.system->name(), result.report);
  }
  if (trace_on && result.system->tracer() != nullptr) {
    internal::AppendTraceRun(*config, result.system->name(),
                             *result.system->tracer());
  }
  if (history_on && result.system->history() != nullptr) {
    Status dump = result.system->history()->DumpToFile(config->history_out);
    if (!dump.ok()) {
      std::fprintf(stderr, "history dump failed: %s\n",
                   dump.ToString().c_str());
      std::exit(1);
    }
  }
  return result;
}

/// Share of routed write transactions that remastered, from the selector
/// families in `registry`.
inline double RemasterFraction(const metrics::Registry& registry) {
  const uint64_t routes =
      registry.CounterValue("selector_routes_total", {{"kind", "write"}});
  return routes == 0 ? 0.0
                     : static_cast<double>(registry.CounterValue(
                           "selector_remaster_total")) /
                           static_cast<double>(routes);
}

inline void PrintHeader(const char* title, const BenchConfig& config) {
  internal::g_bench_title = title;
  std::printf("=== %s ===\n", title);
  std::printf(
      "sites=%u clients=%u measure=%.1fs warmup=%.1fs scale=%.2f "
      "latency=%uus read=%uus write=%uus apply=%uus slots=%u\n\n",
      config.sites, config.clients, config.seconds, config.warmup,
      config.scale, config.latency_us, config.read_us, config.write_us,
      config.apply_us, config.slots);
}

inline void PrintLatencyRow(const char* system, const char* txn_type,
                            const LatencyRecorder* latency) {
  if (latency == nullptr || latency->count() == 0) {
    std::printf("%-16s %-14s (no samples)\n", system, txn_type);
    return;
  }
  std::printf("%-16s %-14s avg=%8.2fms p50=%8.2fms p90=%8.2fms p99=%8.2fms "
              "n=%llu\n",
              system, txn_type, latency->MeanMicros() / 1000.0,
              latency->PercentileMicros(0.5) / 1000.0,
              latency->PercentileMicros(0.9) / 1000.0,
              latency->PercentileMicros(0.99) / 1000.0,
              static_cast<unsigned long long>(latency->count()));
}

}  // namespace dynamast::bench

#endif  // DYNAMAST_BENCH_BENCH_COMMON_H_
