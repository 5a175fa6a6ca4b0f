// perfbench: the repository's benchmark. One invocation runs one workload
// on all five systems with kClients closed-loop clients and prints every
// metric by name and unit, then one JSON result line (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// --trace 0 reports the end-to-end metrics (tput, exact p99, CPU per
// transaction, set-up time); --trace 1 reports the per-layer metrics from a
// traced run plus layer probes. Exit code 1 when an output check fails.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "harness.h"
#include "net/sim_network.h"
#include "probes.h"
#include "process_stats.h"
#include "tracing.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

struct Metric {
  double value;
  const char* unit;
};

// Run shape: each system gets an equal share of --seconds, measured in
// kRounds slices; set-up and warmup come on top.
constexpr int kSetupReps = 3;
constexpr int kRounds = 12;
constexpr double kWarmupShare = 0.25;

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
};

std::string Key(const char* family, workloads::SystemKind kind) {
  return std::string(family) + "." + workloads::SystemKindName(kind);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PerTxn(double x, uint64_t txns) {
  return txns > 0 ? x / static_cast<double>(txns) : 0;
}

uint64_t NetMessages(metrics::Registry& registry) {
  uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(net::TrafficClass::kNumClasses); ++c) {
    total += registry.CounterValue(
        "net_messages_total",
        {{"class", net::TrafficClassName(static_cast<net::TrafficClass>(c))}});
  }
  return total;
}

void CheckSystem(const WorkloadSpec& spec, workloads::SystemKind kind,
                 const workloads::DeploymentOptions& deployment,
                 workloads::Workload& workload, Deployed& deployed,
                 const TimedSystem& timed, Outcome* outcome) {
  std::string detail;
  Stopwatch watch;
  const bool ok = CheckOutputs(spec, kind, deployment, workload,
                               *deployed.system, timed, &detail);
  std::printf("check.%s = %s%s%s (%.2f s)\n", workloads::SystemKindName(kind),
              ok ? "ok" : "FAILED", ok ? "" : ": ", detail.c_str(),
              watch.ElapsedSeconds());
  if (!ok) outcome->correct = false;
}

// Rows whose writes the YCSB output check re-reads (SmallBank is audited
// from a recorded history instead).
uint64_t TrackedRows(const WorkloadSpec& spec) {
  return spec.traffic == Traffic::kYcsbSkew ? kYcsbKeys : 0;
}

// One system's deployment and what its measured slices added up to.
struct Contender {
  workloads::SystemKind kind;
  Deployed deployed;
  std::unique_ptr<TimedSystem> timed;
  // Per slice.
  std::vector<double> tput, cpu_us, p99_us, steal, seconds, cpu_s;
  std::vector<uint64_t> committed, finished;
  std::vector<std::vector<uint64_t>> latencies_ns;
  // Over all slices.
  uint64_t attempted = 0, errors = 0;
  std::map<std::string, uint64_t> aborted_by_reason;
};

// Host CPU steal as a share of this VM's CPU time over `seconds`.
double StealShare(uint64_t ticks, double seconds) {
  return static_cast<double>(ticks) /
         static_cast<double>(sysconf(_SC_CLK_TCK)) /
         (seconds * std::thread::hardware_concurrency());
}

// A slice counts as disturbed when the host stole this much more of the
// VM's CPU during it than during the least-stolen slice.
constexpr double kStealSlack = 0.02;

std::vector<size_t> QuietSlices(const std::vector<double>& steal) {
  const double least = *std::min_element(steal.begin(), steal.end());
  std::vector<size_t> kept;
  for (size_t k = 0; k < steal.size(); ++k) {
    if (steal[k] <= least + kStealSlack) kept.push_back(k);
  }
  return kept;
}

double MedianOf(const std::vector<double>& v, const std::vector<size_t>& at) {
  std::vector<double> picked;
  for (size_t k : at) picked.push_back(v[k]);
  return Median(std::move(picked));
}

// Runs one slice of `seconds` on one system, clients numbered from
// `offset`, and adds it to the system's tallies.
void MeasureSlice(Contender& c, workloads::Workload& workload,
                  uint64_t offset, double seconds, uint64_t seed) {
  ClientOffsetWorkload clients(&workload, offset);
  const uint64_t finished_before = c.timed->Finished();
  const uint64_t steal_before = HostStealTicks();
  const ProcessSample before = SampleProcess();
  c.timed->StartSampling(std::chrono::nanoseconds(
      static_cast<int64_t>(seconds * 1e9)));
  const workloads::Driver::Report report =
      RunDriver(*c.timed, clients, seconds, seed);
  c.timed->StopSampling();
  const double cpu_s = SampleProcess().cpu_s - before.cpu_s;
  c.steal.push_back(StealShare(HostStealTicks() - steal_before, seconds));
  const uint64_t finished = c.timed->Finished() - finished_before;
  std::vector<uint64_t> latencies = c.timed->TakeSamples();
  c.tput.push_back(report.Throughput());
  c.cpu_us.push_back(PerTxn(cpu_s * 1e6, finished));
  c.p99_us.push_back(ExactPercentiles(latencies).p99_us);
  c.latencies_ns.push_back(std::move(latencies));
  c.committed.push_back(report.committed);
  c.finished.push_back(finished);
  c.seconds.push_back(report.seconds);
  c.cpu_s.push_back(cpu_s);
  c.attempted += report.committed + report.errors;
  c.errors += report.errors;
  for (const auto& [reason, count] : report.aborted_by_reason) {
    c.aborted_by_reason[reason] += count;
  }
}

// All five systems are deployed side by side and measured in kRounds
// rounds of one slice each, in an order that rotates every round. A burst
// of host CPU steal then lands in a few slices of every system instead of
// in one system's whole window, and a system whose cost drifts over its
// run (DynaMast converging, LEAP's growing tables) is sampled across it.
void RunEndToEnd(const WorkloadSpec& spec, const Args& args,
                 Outcome* outcome) {
  const workloads::DeploymentOptions deployment =
      MakeDeployment(spec, args.seed);
  std::unique_ptr<workloads::Workload> workload = MakeWorkload(spec, args.seed);
  const double window = args.seconds / 5.0;
  const double slice = window / kRounds;

  Stopwatch phase;
  std::vector<Contender> systems;
  for (workloads::SystemKind kind : workloads::AllSystems()) {
    Contender& c = systems.emplace_back();
    c.kind = kind;
    c.deployed = SetUp(spec, kind, deployment, *workload, kSetupReps);
    c.timed = std::make_unique<TimedSystem>(c.deployed.system.get(),
                                            TrackedRows(spec));
  }
  const double phase_setup = phase.ElapsedSeconds();
  phase.Restart();
  for (Contender& c : systems) {
    ClientOffsetWorkload warm(workload.get(), 0);
    RunDriver(*c.timed, warm, window * kWarmupShare, args.seed);
  }
  const double phase_warmup = phase.ElapsedSeconds();
  phase.Restart();
  const uint64_t steal_before = HostStealTicks();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < systems.size(); ++i) {
      MeasureSlice(systems[(i + round) % systems.size()], *workload,
                   kClients * (1 + round), slice, args.seed);
    }
  }
  const double phase_rounds = phase.ElapsedSeconds();
  const double steal_share =
      StealShare(HostStealTicks() - steal_before, phase_rounds);
  phase.Restart();

  std::printf("%-16s %9s %12s %10s %10s %9s %8s %11s %9s %6s\n", "system",
              "setup_s", "tput_txn/s", "p50_us", "p99_us", "samples",
              "beyond", "cpu_us/txn", "attempted", "failed");
  double setup_total = 0;
  for (Contender& c : systems) {
    const char* name = workloads::SystemKindName(c.kind);
    const uint64_t attempted = c.attempted;
    // Every figure comes from the slices whose host steal is within
    // kStealSlack of the least-stolen slice: all of them on a quiet host.
    // While the host steals CPU, sleeps wake late and the model workloads'
    // tails stretch with them. The model workloads have a few hundred
    // transactions per slice, so they pool the kept slices. The zero
    // workloads are CPU-bound and lose far more than the stolen CPU, so
    // they take the median of the kept slices' values.
    const bool by_slice = spec.zero_cost;
    const std::vector<size_t> kept = QuietSlices(c.steal);
    std::vector<uint64_t> kept_latencies;
    uint64_t committed = 0, finished = 0;
    double seconds = 0, cpu_s = 0;
    for (size_t k : kept) {
      kept_latencies.insert(kept_latencies.end(), c.latencies_ns[k].begin(),
                            c.latencies_ns[k].end());
      committed += c.committed[k];
      finished += c.finished[k];
      seconds += c.seconds[k];
      cpu_s += c.cpu_s[k];
    }
    const Percentiles pooled = ExactPercentiles(std::move(kept_latencies));
    const double tput =
        by_slice ? MedianOf(c.tput, kept) : committed / seconds;
    const double cpu_us =
        by_slice ? MedianOf(c.cpu_us, kept) : PerTxn(cpu_s * 1e6, finished);
    const double p99_us = by_slice ? MedianOf(c.p99_us, kept) : pooled.p99_us;
    setup_total += c.deployed.setup_s;
    outcome->attempted += attempted;
    outcome->failed += c.errors;
    std::printf("%-16s %9.3f %12.1f %10.1f %10.1f %9llu %8llu %11.2f %9llu "
                "%6llu\n",
                name, c.deployed.setup_s, tput, pooled.p50_us, p99_us,
                static_cast<unsigned long long>(pooled.count),
                static_cast<unsigned long long>(pooled.beyond_p99), cpu_us,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(c.errors));
    std::printf("  slices.%s (%zu of %zu quiet): tput", name, kept.size(),
                c.steal.size());
    for (double v : c.tput) std::printf(" %.0f", v);
    std::printf("; cpu_us/txn");
    for (double v : c.cpu_us) std::printf(" %.1f", v);
    std::printf("; p99_us");
    for (double v : c.p99_us) std::printf(" %.0f", v);
    std::printf("; steal %%");
    for (double v : c.steal) std::printf(" %.0f", 100 * v);
    std::printf("\n");
    if (pooled.beyond_p99 < 10) {
      std::printf("  warning: only %llu samples beyond p99 for %s\n",
                  static_cast<unsigned long long>(pooled.beyond_p99), name);
    }
    for (const auto& [reason, count] : c.aborted_by_reason) {
      std::printf("  failed.%s.%s = %llu of %llu\n", name, reason.c_str(),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(attempted));
    }
    outcome->metrics[Key("tput", c.kind)] = {tput, "txn/s"};
    outcome->metrics[Key("p99_us", c.kind)] = {p99_us, "us"};
    // LEAP's CPU per transaction is printed but not reported: its tables
    // only grow, so its shipping cost depends on how far a run has come
    // and no two runs agree on it (README, "Noise").
    if (c.kind != workloads::SystemKind::kLeap) {
      outcome->metrics[Key("cpu_us_per_txn", c.kind)] = {cpu_us, "us"};
    }
    CheckSystem(spec, c.kind, deployment, *workload, c.deployed, *c.timed,
                outcome);
  }
  for (Contender& c : systems) c.deployed.system->Shutdown();
  std::printf("phases: setup %.1f s, warmup %.1f s, rounds %.1f s (host "
              "steal %.1f %% of CPU), check+teardown %.1f s\n",
              phase_setup, phase_warmup, phase_rounds, 100 * steal_share,
              phase.ElapsedSeconds());
  outcome->metrics["setup_s"] = {setup_total, "s"};
}

void RunTraced(const WorkloadSpec& spec, const Args& args, Outcome* outcome) {
  const workloads::DeploymentOptions deployment =
      MakeDeployment(spec, args.seed);
  std::unique_ptr<workloads::Workload> workload = MakeWorkload(spec, args.seed);
  const double window = args.seconds / 5.0;
  const double user_bytes = UserBytes(spec, *workload);
  auto& m = outcome->metrics;
  std::array<SpanTotals, kNumSpans> all{};
  for (workloads::SystemKind kind : workloads::AllSystems()) {
    Deployed deployed = SetUp(spec, kind, deployment, *workload, 1);
    TimedSystem timed(deployed.system.get(), TrackedRows(spec));
    ClientOffsetWorkload warm(workload.get(), 0);
    RunDriver(timed, warm, window * kWarmupShare, args.seed);

    // Untraced quarter-windows before and after the traced half-window:
    // the process counters and the tracing-overhead base, which their mean
    // keeps free of drift over the system's run.
    workloads::Driver::Report untraced;
    ProcessSample used;
    uint64_t msgs = 0, threads = 0;
    auto run_untraced = [&](uint64_t offset) {
      ClientOffsetWorkload plain(workload.get(), offset);
      const uint64_t msgs_before = NetMessages(*deployed.registry);
      const ProcessSample before = SampleProcess();
      const workloads::Driver::Report r = RunDriver(
          timed, plain, window / 4, args.seed,
          {{std::chrono::milliseconds(static_cast<int64_t>(window * 125)),
            [&threads] { threads = ThreadCount(); }}});
      const ProcessSample d = Delta(before, SampleProcess());
      msgs += NetMessages(*deployed.registry) - msgs_before;
      used.user_s += d.user_s;
      used.sys_s += d.sys_s;
      used.voluntary_switches += d.voluntary_switches;
      used.involuntary_switches += d.involuntary_switches;
      used.allocations += d.allocations;
      untraced.committed += r.committed;
      untraced.errors += r.errors;
      untraced.seconds += r.seconds;
      untraced.remastered_txns += r.remastered_txns;
      untraced.distributed_txns += r.distributed_txns;
      untraced.retries += r.retries;
    };
    run_untraced(kClients);

    TracedSystem traced(&timed);
    TracedWorkload spanned(workload.get(), 2 * kClients);
    const workloads::Driver::Report tr =
        RunDriver(traced, spanned, window / 2, args.seed);
    const auto spans = SpanRecorder::Get().Collect(
        workloads::SystemKindName(kind));
    for (size_t i = 0; i < kNumSpans; ++i) {
      all[i].count += spans[i].count;
      all[i].total_ns += spans[i].total_ns;
      all[i].self_ns += spans[i].self_ns;
    }
    run_untraced(3 * kClients);

    const uint64_t txns = untraced.committed + untraced.errors;
    const uint64_t commits = untraced.committed;
    outcome->attempted += txns + tr.committed + tr.errors;
    outcome->failed += untraced.errors + tr.errors;
    auto mean_us = [](const SpanTotals& t, bool self) {
      return t.count > 0 ? (self ? t.self_ns : t.total_ns) / t.count / 1e3 : 0;
    };
    m[Key("trace.overhead_tput", kind)] = {
        untraced.Throughput() - tr.Throughput(), "txn/s"};
    m[Key("core.exec_self_us", kind)] = {mean_us(spans[kExecute], true), "us"};
    m[Key("core.coord_per_txn", kind)] = {
        PerTxn(static_cast<double>(untraced.remastered_txns +
                                   untraced.distributed_txns),
               commits),
        "count"};
    m[Key("core.retries_per_txn", kind)] = {
        PerTxn(static_cast<double>(untraced.retries), commits), "count"};
    m[Key("site.logic_us", kind)] = {mean_us(spans[kLogic], false), "us"};
    m[Key("site.get_us", kind)] = {mean_us(spans[kGet], false), "us"};
    m[Key("site.put_us", kind)] = {mean_us(spans[kPut], false), "us"};
    m[Key("storage.rss_per_user_byte", kind)] = {
        static_cast<double>(deployed.load_rss_bytes) / user_bytes, "B/B"};
    m[Key("net.msgs_per_txn", kind)] = {
        PerTxn(static_cast<double>(msgs), commits), "count"};
    m[Key("process.vcsw_per_txn", kind)] = {
        PerTxn(static_cast<double>(used.voluntary_switches), txns), "count"};
    m[Key("process.ivcsw_per_txn", kind)] = {
        PerTxn(static_cast<double>(used.involuntary_switches), txns),
        "count"};
    m[Key("process.sys_cpu_share", kind)] = {
        used.user_s + used.sys_s > 0 ? used.sys_s / (used.user_s + used.sys_s) : 0, "ratio"};
    m[Key("process.allocs_per_txn", kind)] = {
        PerTxn(static_cast<double>(used.allocations), txns), "count"};
    m[Key("process.threads", kind)] = {static_cast<double>(threads), "count"};
    std::printf("%-16s untraced %.1f txn/s (before and after), traced %.1f "
                "txn/s\n",
                workloads::SystemKindName(kind), untraced.Throughput(),
                tr.Throughput());
    CheckSystem(spec, kind, deployment, *workload, deployed, timed, outcome);
    deployed.system->Shutdown();
  }
  m["workloads.next_us"] = {
      all[kNext].count > 0 ? all[kNext].self_ns / all[kNext].count / 1e3 : 0,
      "us"};
  m["site.gets_per_txn"] = {
      PerTxn(static_cast<double>(all[kGet].count), all[kExecute].count),
      "count"};
  m["site.puts_per_txn"] = {
      PerTxn(static_cast<double>(all[kPut].count), all[kExecute].count),
      "count"};

  static const std::map<std::string, const char*> kProbeUnits = {
      {"site.charge_overshoot_us", "us"}, {"site.commit_us", "us"},
      {"site.release_grant_us", "us"},    {"site.refresh_visible_us", "us"},
      {"selector.route_write_us", "us"},  {"selector.route_read_us", "us"},
      {"selector.remaster_ratio", "ratio"}, {"storage.read_ns", "ns"},
      {"storage.install_ns", "ns"},       {"storage.lock_ns", "ns"},
      {"log.append_us", "us"},            {"net.send_overshoot_us", "us"},
      {"common.counter_inc_ns", "ns"},    {"common.histogram_observe_ns", "ns"},
  };
  for (const auto& [name, value] : RunLayerProbes(spec, deployment, *workload)) {
    m[name] = {value, kProbeUnits.at(name)};
  }
  if (!args.spans_out.empty() &&
      !SpanRecorder::Get().WriteJsonl(args.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
  }
}

void PrintResult(const Outcome& outcome) {
  for (const auto& [name, metric] : outcome.metrics) {
    std::printf("%s = %.6g %s\n", name.c_str(), metric.value, metric.unit);
  }
  std::printf("attempted = %llu, failed = %llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[160];
  for (const auto& [name, metric] : outcome.metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, metric.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::printf("== %s seed=%llu seconds=%g trace=%d clients=%u ==\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, kClients);
  Outcome outcome;
  if (args.trace == 0) {
    RunEndToEnd(spec, args, &outcome);
  } else {
    RunTraced(spec, args, &outcome);
  }
  PrintResult(outcome);
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
