#include "bench/harness.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/timeline.h"

namespace dynamast::bench {

const char kFlagHelp[] =
    "usage: bench_figures --figure=E7[,E13,...|all] [flags]\n"
    "\n"
    "  --figure=ids     figures to run, in order; 'all' runs the table\n"
    "  --seconds=F      measurement window per point  (default 2)\n"
    "  --warmup=F       warmup seconds per point      (default 1)\n"
    "  --clients=N      concurrent clients            (default per figure)\n"
    "  --sites=N        data sites                    (default per figure)\n"
    "  --scale=F        data-size multiplier          (default 1.0)\n"
    "  --latency_us=N   one-way simulated network latency (default 250)\n"
    "  --read_us=N      per-read service time         (default 10)\n"
    "  --write_us=N     per-write service time        (default 500)\n"
    "  --apply_us=N     per-applied-write refresh cost (default 100)\n"
    "  --slots=N        worker slots per site         (default 4)\n"
    "  --systems=a,b    systems of the five-system figures (default: all)\n"
    "  --seed=N         RNG seed                      (default 31)\n"
    "  --metrics-out=F  append one JSON row per run: bench/figure/point/\n"
    "                   system identity, the config that ran, the driver\n"
    "                   report and a metrics-registry snapshot (the\n"
    "                   registry is reset before each run)\n"
    "  --trace-out=F    trace every transaction; write a Chrome trace-event\n"
    "                   file (load in Perfetto), one pid block per run\n"
    "  --history-out=F  record history and dump each run's event log to F\n"
    "                   (last run wins: audit one run with\n"
    "                   si_checker --metrics=<metrics row> F)\n"
    "  --timeline-out=F sample the metrics registry during each run and\n"
    "                   append the rows to F as JSONL (one run label per\n"
    "                   system/point; metrics_dump --timeline F)\n"
    "  --timeline-period-ms=N  timeline sampling cadence (default 100)\n";

namespace {

// The entries of a comma-separated list; "" yields one empty entry.
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> entries;
  size_t pos = 0;
  while (true) {
    const size_t comma = list.find(',', pos);
    entries.push_back(list.substr(pos, comma - pos));
    if (comma == std::string::npos) return entries;
    pos = comma + 1;
  }
}

bool ParseCount(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  *out = value;
  return true;
}

bool ParseReal(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

Status SetFlag(const std::string& name, const std::string& value,
               const std::vector<std::string>& figure_ids,
               BenchConfig* config) {
  const auto checked = [&](bool good) {
    return good ? Status::OK()
                : Status::InvalidArgument("bad value '" + value +
                                          "' for --" + name);
  };
  const auto count32 = [&](uint32_t* field, bool nonzero) {
    uint64_t parsed = 0;
    const bool good =
        ParseCount(value, std::numeric_limits<uint32_t>::max(), &parsed) &&
        (!nonzero || parsed > 0);
    if (good) *field = static_cast<uint32_t>(parsed);
    return checked(good);
  };
  const auto real = [&](double* field, bool positive) {
    double parsed = 0;
    const bool good =
        ParseReal(value, &parsed) && (positive ? parsed > 0 : parsed >= 0);
    if (good) *field = parsed;
    return checked(good);
  };
  if (name == "seconds") return real(&config->seconds, true);
  if (name == "warmup") return real(&config->warmup, false);
  if (name == "scale") return real(&config->scale, true);
  if (name == "clients") return count32(&config->clients, true);
  if (name == "sites") return count32(&config->sites, true);
  if (name == "slots") return count32(&config->slots, true);
  if (name == "latency_us") return count32(&config->latency_us, false);
  if (name == "read_us") return count32(&config->read_us, false);
  if (name == "write_us") return count32(&config->write_us, false);
  if (name == "apply_us") return count32(&config->apply_us, false);
  if (name == "timeline-period-ms") {
    return count32(&config->timeline_period_ms, true);
  }
  if (name == "seed") {
    return checked(ParseCount(value, std::numeric_limits<uint64_t>::max(),
                              &config->seed));
  }
  const std::map<std::string, std::string*> paths = {
      {"metrics-out", &config->metrics_out},
      {"trace-out", &config->trace_out},
      {"history-out", &config->history_out},
      {"timeline-out", &config->timeline_out}};
  if (auto it = paths.find(name); it != paths.end()) {
    *it->second = value;
    return Status::OK();
  }
  if (name == "systems") {
    config->systems.clear();
    for (const std::string& entry : SplitList(value)) {
      const std::vector<workloads::SystemKind> all = workloads::AllSystems();
      auto it = std::find_if(all.begin(), all.end(), [&](auto kind) {
        return entry == workloads::SystemKindName(kind);
      });
      if (it == all.end()) {
        return Status::InvalidArgument("empty or unknown --systems entry '" +
                                        entry + "'");
      }
      config->systems.push_back(*it);
    }
    return Status::OK();
  }
  if (name == "figure") {
    config->figures.clear();
    for (const std::string& entry : SplitList(value)) {
      if (entry == "all") {
        config->figures.insert(config->figures.end(), figure_ids.begin(),
                               figure_ids.end());
      } else if (std::find(figure_ids.begin(), figure_ids.end(), entry) !=
                 figure_ids.end()) {
        config->figures.push_back(entry);
      } else {
        return Status::InvalidArgument("empty or unknown --figure entry '" +
                                       entry + "'");
      }
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown flag '--" + name + "'");
}

}  // namespace

Status ParseFlags(const std::vector<std::string>& args,
                  const std::vector<std::string>& figure_ids,
                  BenchConfig* config) {
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      config->help = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    Status s =
        SetFlag(arg.substr(2, eq - 2), arg.substr(eq + 1), figure_ids, config);
    if (!s.ok()) return s;
  }
  if (config->figures.empty() && !config->help) {
    return Status::InvalidArgument("--figure is required (see --help)");
  }
  return Status::OK();
}

workloads::DeploymentOptions Deployment(const BenchConfig& config) {
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

workloads::Driver::Options DriverOptions(const BenchConfig& config) {
  workloads::Driver::Options options;
  options.num_clients = config.clients;
  options.warmup = std::chrono::milliseconds(
      static_cast<int64_t>(config.warmup * 1000));
  options.measure = std::chrono::milliseconds(
      static_cast<int64_t>(config.seconds * 1000));
  options.seed = config.seed;
  return options;
}

Outputs::Outputs(const BenchConfig& flags) : flags_(flags) {}

workloads::DeploymentOptions Outputs::Instrument(
    workloads::DeploymentOptions deployment) const {
  if (!flags_.trace_out.empty()) deployment.trace = true;
  if (!flags_.history_out.empty()) deployment.record_history = true;
  return deployment;
}

workloads::Driver::Report Outputs::Measure(
    core::SystemInterface& system, workloads::Workload& workload,
    const workloads::DeploymentOptions& deployment,
    workloads::Driver::Options driver, const RunTag& tag,
    const std::function<void()>& settle) {
  const std::string label =
      system.name() + (tag.point.empty() ? "" : "/" + tag.point);
  if (!flags_.metrics_out.empty() || !flags_.timeline_out.empty()) {
    driver.metrics = &metrics::Registry::Global();
  }
  std::unique_ptr<timeline::TimelineSampler> sampler;
  if (!flags_.timeline_out.empty()) {
    timeline::TimelineSampler::Options options;
    options.period = std::chrono::milliseconds(flags_.timeline_period_ms);
    options.run_label = label;
    sampler = std::make_unique<timeline::TimelineSampler>(std::move(options));
    sampler->Start();
  }
  workloads::Driver::Report report =
      workloads::Driver(driver).Run(system, workload);
  if (settle) settle();

  if (sampler != nullptr) {
    sampler->Stop();
    if (!timeline_started_) {
      std::FILE* f = std::fopen(flags_.timeline_out.c_str(), "w");
      if (f == nullptr) Die("cannot open " + flags_.timeline_out);
      std::fclose(f);
      timeline_started_ = true;
    }
    const Status s = sampler->AppendJsonl(flags_.timeline_out);
    if (!s.ok()) Die("timeline dump failed: " + s.ToString());
    if (sampler->dropped_rows() > 0) {
      std::fprintf(stderr, "timeline: %llu samples dropped (row bound)\n",
                   static_cast<unsigned long long>(sampler->dropped_rows()));
    }
  }
  if (!flags_.metrics_out.empty()) {
    AppendMetricsRow(system.name(), deployment, driver, tag, report);
  }
  if (!flags_.trace_out.empty() && system.tracer() != nullptr) {
    AppendTraceRun(label, *system.tracer());
  }
  if (!flags_.history_out.empty() && system.history() != nullptr) {
    const Status s = system.history()->DumpToFile(flags_.history_out);
    if (!s.ok()) Die("history dump failed: " + s.ToString());
  }
  return report;
}

// One JSON row: figure/point/system identity, the deployment and driver
// config that ran, the driver report, and a snapshot of the global
// metrics registry.
void Outputs::AppendMetricsRow(const std::string& system,
                               const workloads::DeploymentOptions& deployment,
                               const workloads::Driver::Options& driver,
                               const RunTag& tag,
                               const workloads::Driver::Report& report) {
  std::FILE* f =
      std::fopen(flags_.metrics_out.c_str(), metrics_started_ ? "a" : "w");
  if (f == nullptr) Die("cannot open " + flags_.metrics_out);
  metrics_started_ = true;
  std::string row = "{\"bench\":\"" + metrics::JsonEscape(tag.bench) +
                    "\",\"figure\":\"" + metrics::JsonEscape(tag.figure) +
                    "\",\"point\":\"" + metrics::JsonEscape(tag.point) +
                    "\",\"system\":\"" + metrics::JsonEscape(system) + "\",";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"config\":{\"sites\":%u,\"clients\":%u,\"seconds\":%g,"
      "\"warmup\":%g,\"scale\":%g,\"latency_us\":%lld,\"read_us\":%lld,"
      "\"write_us\":%lld,\"apply_us\":%lld,\"slots\":%zu,\"seed\":%llu},",
      deployment.num_sites, driver.num_clients,
      static_cast<double>(driver.measure.count()) / 1000.0,
      static_cast<double>(driver.warmup.count()) / 1000.0, tag.scale,
      static_cast<long long>(deployment.one_way_latency.count()),
      static_cast<long long>(deployment.read_op_cost.count()),
      static_cast<long long>(deployment.write_op_cost.count()),
      static_cast<long long>(deployment.apply_op_cost.count()),
      deployment.worker_slots,
      static_cast<unsigned long long>(deployment.seed));
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
  // row carries the percentile trajectory without the stdout tables.
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
  const auto json_counts = [](const std::map<std::string, uint64_t>& counts) {
    std::string out = "{";
    for (const auto& [name, count] : counts) {
      if (out.size() > 1) out += ",";
      out += "\"" + metrics::JsonEscape(name) + "\":" + std::to_string(count);
    }
    return out + "}";
  };
  row += "\"aborted_by_reason\":" + json_counts(report.aborted_by_reason) +
         ",\"committed_by_type\":" + json_counts(report.committed_by_type) +
         "},\"metrics\":" + metrics::Registry::Global().SnapshotJson() + "}\n";
  std::fputs(row.c_str(), f);
  std::fclose(f);
}

// Folds one run's spans into the accumulated trace and rewrites the whole
// file: each run gets a pid block of its own (offset 100 per run) so lanes
// from different runs do not collide.
void Outputs::AppendTraceRun(const std::string& label, trace::Tracer& tracer) {
  const uint32_t offset = trace_runs_ * 100;
  ++trace_runs_;
  for (const auto& [pid, name] : tracer.process_names()) {
    trace_names_[pid + offset] = label + "/" + name;
  }
  for (trace::TraceEvent event : tracer.Snapshot()) {
    event.pid += offset;
    trace_events_.push_back(std::move(event));
  }
  std::FILE* f = std::fopen(flags_.trace_out.c_str(), "w");
  if (f == nullptr) Die("cannot open " + flags_.trace_out);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto add = [&](const trace::TraceEvent& event) {
    if (!first) out += ",";
    first = false;
    out += event.ToJson();
  };
  for (const auto& [pid, name] : trace_names_) {
    add(trace::ProcessNameEvent(pid, name));
  }
  for (const trace::TraceEvent& event : trace_events_) add(event);
  out += "]}\n";
  std::fputs(out.c_str(), f);
  std::fclose(f);
}

RunResult RunOne(workloads::SystemKind kind, workloads::Workload& workload,
                 const workloads::DeploymentOptions& deployment,
                 const workloads::Driver::Options& driver, const RunTag& tag,
                 Outputs& outputs) {
  metrics::Registry::Global().ResetValues();
  RunResult result;
  result.system = workloads::MakeSystem(kind, outputs.Instrument(deployment),
                                        workload.partitioner());
  const Status s = workload.Load(*result.system);
  if (!s.ok()) {
    Die("load failed for " + result.system->name() + ": " + s.ToString());
  }
  result.system->Seal();
  result.report = outputs.Measure(*result.system, workload, deployment,
                                  driver, tag);
  return result;
}

double RemasterFraction(const metrics::Registry& registry) {
  const uint64_t routes =
      registry.CounterValue("selector_routes_total", {{"kind", "write"}});
  return routes == 0 ? 0.0
                     : static_cast<double>(registry.CounterValue(
                           "selector_remaster_total")) /
                           static_cast<double>(routes);
}

void PrintHeader(const std::string& title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "sites=%u clients=%u measure=%.1fs warmup=%.1fs scale=%.2f "
      "latency=%uus read=%uus write=%uus apply=%uus slots=%u\n\n",
      config.sites, config.clients, config.seconds, config.warmup,
      config.scale, config.latency_us, config.read_us, config.write_us,
      config.apply_us, config.slots);
}

void PrintLatencyRow(const std::string& system, const std::string& txn_type,
                     const LatencyRecorder* latency) {
  if (latency == nullptr || latency->count() == 0) {
    std::printf("%-16s %-14s (no samples)\n", system.c_str(),
                txn_type.c_str());
    return;
  }
  std::printf("%-16s %-14s avg=%8.2fms p50=%8.2fms p90=%8.2fms p99=%8.2fms "
              "n=%llu\n",
              system.c_str(), txn_type.c_str(), latency->MeanMicros() / 1000.0,
              latency->PercentileMicros(0.5) / 1000.0,
              latency->PercentileMicros(0.9) / 1000.0,
              latency->PercentileMicros(0.99) / 1000.0,
              static_cast<unsigned long long>(latency->count()));
}

void Die(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(1);
}

}  // namespace dynamast::bench
