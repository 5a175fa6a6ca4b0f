#ifndef DYNAMAST_BENCH_HARNESS_H_
#define DYNAMAST_BENCH_HARNESS_H_

// The figure harness: the bench flags, one measured run (RunOne /
// Measure) and the telemetry files each run appends to. bench_figures.cc
// holds the figure table that drives it; `bench_figures --help` lists the
// flags and the figures.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "workloads/driver.h"
#include "workloads/system_factory.h"
#include "workloads/workload.h"

namespace dynamast::bench {

/// The bench flags. A figure's defaults are applied first and the flags
/// then override them, so every field reads as "what this figure runs".
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
  /// Figure ids to run, in order ("all" expands to the whole table).
  std::vector<std::string> figures;
  /// When non-empty, each run appends one JSON row here.
  std::string metrics_out;
  /// When non-empty, runs are traced and this Chrome trace-event file is
  /// rewritten after every run.
  std::string trace_out;
  /// When non-empty, runs record history and dump it here (each run
  /// overwrites the file, so the dump always covers one coherent run).
  std::string history_out;
  /// When non-empty, the global registry is sampled during each run and
  /// the timeline rows are appended here as JSONL.
  std::string timeline_out;
  uint32_t timeline_period_ms = 100;
  bool help = false;
};

/// The flag reference printed by --help.
extern const char kFlagHelp[];

/// Parses `args` (argv without the program name) over `config`.
/// `figure_ids` are the ids --figure accepts besides "all". Returns
/// InvalidArgument naming the bad flag on malformed input: a non-numeric
/// value or trailing garbage, zero sites/clients/slots/timeline period,
/// non-positive seconds or scale, negative warmup, an empty or unknown
/// --systems or --figure entry, an unknown flag, or no --figure.
Status ParseFlags(const std::vector<std::string>& args,
                  const std::vector<std::string>& figure_ids,
                  BenchConfig* config);

/// The deployment and driver options a config describes.
workloads::DeploymentOptions Deployment(const BenchConfig& config);
workloads::Driver::Options DriverOptions(const BenchConfig& config);

/// Identity of one measured run in the telemetry files.
struct RunTag {
  std::string figure;  // "E7"
  std::string bench;   // the figure's title
  std::string point;   // unique within the figure
  double scale = 1.0;  // the run's effective data-size multiplier
};

/// The telemetry files named by --metrics-out, --trace-out, --history-out
/// and --timeline-out. Every run appends to them; files are truncated on
/// their first write in the process.
class Outputs {
 public:
  explicit Outputs(const BenchConfig& flags);

  /// `deployment` with tracing / history recording turned on as asked.
  workloads::DeploymentOptions Instrument(
      workloads::DeploymentOptions deployment) const;

  /// Drives the loaded, sealed `system` and appends the run's telemetry:
  /// the metrics row's config is read from `deployment` and `driver`.
  /// `settle` runs after the driver returns and before anything is
  /// written.
  workloads::Driver::Report Measure(
      core::SystemInterface& system, workloads::Workload& workload,
      const workloads::DeploymentOptions& deployment,
      workloads::Driver::Options driver, const RunTag& tag,
      const std::function<void()>& settle = nullptr);

 private:
  void AppendMetricsRow(const std::string& system,
                        const workloads::DeploymentOptions& deployment,
                        const workloads::Driver::Options& driver,
                        const RunTag& tag,
                        const workloads::Driver::Report& report);
  void AppendTraceRun(const std::string& label, trace::Tracer& tracer);

  const BenchConfig flags_;
  bool metrics_started_ = false;
  bool timeline_started_ = false;
  std::vector<trace::TraceEvent> trace_events_;
  std::map<uint32_t, std::string> trace_names_;
  uint32_t trace_runs_ = 0;
};

struct RunResult {
  workloads::Driver::Report report;
  std::unique_ptr<core::SystemInterface> system;
};

/// Builds a `kind` system, loads `workload` and measures it. The metrics
/// registry is reset first, so the bench's tables and the telemetry see
/// exactly this run.
RunResult RunOne(workloads::SystemKind kind, workloads::Workload& workload,
                 const workloads::DeploymentOptions& deployment,
                 const workloads::Driver::Options& driver, const RunTag& tag,
                 Outputs& outputs);

/// Share of routed write transactions that remastered.
double RemasterFraction(const metrics::Registry& registry);

void PrintHeader(const std::string& title, const BenchConfig& config);
void PrintLatencyRow(const std::string& system, const std::string& txn_type,
                     const LatencyRecorder* latency);

/// Prints `message` to stderr and exits 1 (unwritable output, failed load).
[[noreturn]] void Die(const std::string& message);

}  // namespace dynamast::bench

#endif  // DYNAMAST_BENCH_HARNESS_H_
