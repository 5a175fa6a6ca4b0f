// Schedule-exploring concurrency harness (tier 2): drives every system
// through YCSB and SmallBank under the serial explore scheduler
// (common/scheduler), one seeded, preemption-bounded schedule per seed,
// and audits each run's recorded history with tools/si_checker. A failing
// seed is printed so the same schedule can be rerun with
// DYNAMAST_SCHED_SEED=<seed>.
//
// Environment knobs:
//   DYNAMAST_SCHED_SEED   rerun exactly one seed
//   DYNAMAST_SCHED_SEEDS  number of seeds to explore (default 3; CI's
//                         weekly job uses 50)
//   DYNAMAST_SCHED_TRACE  path to a decision-stream trace dumped by a
//                         failing run: TraceReplayTest replays it instead
//                         of recording a fresh one
//
// Every audited run is an explore run, so its trace is the run's decision
// stream; a failing audit persists it next to the history dump so the
// exact interleaving — not just the seed — can be replayed by forced
// prefix (sched::ReplayOptions).
//
// In builds without -DDYNAMAST_SCHED_FUZZ=ON the sync-point hooks are
// no-ops and this degenerates to a plain multi-seed audit (still useful;
// the hooked configuration is what CI's weekly job runs). The exact
// replay and DPOR tests skip there: without hooks the engine cannot steer
// the schedule.
//
// The DYNAMAST_BREAK_SI build proves the auditor has teeth: with the
// grant-side version-vector wait compiled out, the remastering window
// opens and the auditor must catch it.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/dpor.h"
#include "common/history.h"
#include "common/partitioner.h"
#include "common/sched_trace.h"
#include "common/scheduler.h"
#include "core/cluster.h"
#include "site/site_manager.h"
#include "tools/si_checker.h"
#include "workloads/driver.h"
#include "workloads/smallbank.h"
#include "workloads/system_factory.h"
#include "workloads/ycsb.h"

namespace dynamast {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

// ::testing::TempDir() only guarantees a trailing separator for its
// built-in defaults, not for $TEST_TMPDIR (which CI points at the
// artifact-upload directory).
std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

// Context switches a seeded schedule may make away from a still-runnable
// thread: the fuzzing knob of the explore scheduler.
constexpr int kPreemptionBound = 3;

// A seeded, preemption-bounded explore run from a fresh token session, so
// one seed gives one schedule whatever ran before it in the process.
sched::ExploreOptions FuzzOptions(uint64_t seed) {
  sched::ExploreOptions options;
  options.seed = seed;
  options.preemption_bound = kPreemptionBound;
  options.fresh_session = true;
  return options;
}

std::vector<uint64_t> FuzzSeeds() {
  if (const char* one = std::getenv("DYNAMAST_SCHED_SEED");
      one != nullptr && *one != '\0') {
    return {std::strtoull(one, nullptr, 10)};
  }
  const uint64_t n = EnvU64("DYNAMAST_SCHED_SEEDS", 3);
  std::vector<uint64_t> seeds;
  seeds.reserve(n);
  for (uint64_t i = 0; i < n; ++i) seeds.push_back(0x5eedULL + i * 7919);
  return seeds;
}

workloads::DeploymentOptions FastDeployment(uint64_t seed) {
  workloads::DeploymentOptions d;
  d.num_sites = 3;
  d.charge_network = false;
  d.read_op_cost = d.write_op_cost = d.apply_op_cost =
      std::chrono::microseconds(0);
  d.record_history = true;
  d.seed = seed;
  // Strip wall-clock inputs from routing so a replayed schedule routes
  // identically to the recorded one.
  d.deterministic = true;
  return d;
}

enum class WorkloadKind { kYcsb, kSmallBank };

std::unique_ptr<workloads::Workload> MakeWorkload(WorkloadKind kind,
                                                  uint64_t seed) {
  if (kind == WorkloadKind::kYcsb) {
    workloads::YcsbWorkload::Options o;
    o.num_keys = 1200;
    o.keys_per_partition = 60;
    o.value_size = 32;
    o.rmw_pct = 80;  // scans dominate runtime otherwise
    o.max_scan_partitions = 3;
    o.affinity_txns = 40;
    o.seed = seed;
    return std::make_unique<workloads::YcsbWorkload>(o);
  }
  workloads::SmallBankWorkload::Options o;
  o.num_accounts = 600;
  o.accounts_per_partition = 30;
  o.seed = seed;
  return std::make_unique<workloads::SmallBankWorkload>(o);
}

const char* WorkloadKindName(WorkloadKind kind) {
  return kind == WorkloadKind::kYcsb ? "ycsb" : "smallbank";
}

[[maybe_unused]] WorkloadKind WorkloadKindFromName(const std::string& name) {
  return name == "smallbank" ? WorkloadKind::kSmallBank : WorkloadKind::kYcsb;
}

struct RunResult {
  workloads::Driver::Report report;
  std::vector<history::HistoryEvent> events;
  uint64_t hash = 0;
  tools::AuditReport audit;
};

// Runs one (system, workload, seed) combination in fixed-count mode —
// every client executes exactly `ops_per_client` transactions, no
// wall-clock windows — and returns the history, its hash, and the audit.
// The caller brackets it with StartExplore/StopExplore (a seeded schedule
// or a replay); fixed-count mode is what makes the run a pure function of
// the schedule.
RunResult RunOnce(workloads::SystemKind kind, WorkloadKind wkind,
                  uint64_t seed, uint64_t ops_per_client = 40) {
  RunResult r;
  std::unique_ptr<workloads::Workload> workload = MakeWorkload(wkind, seed);
  auto system =
      workloads::MakeSystem(kind, FastDeployment(seed), workload->partitioner());
  if (system == nullptr || !workload->Load(*system).ok()) {
    ADD_FAILURE() << "failed to deploy " << workloads::SystemKindName(kind);
    return r;
  }
  system->Seal();

  workloads::Driver::Options dro;
  dro.num_clients = 4;
  dro.ops_per_client = ops_per_client;
  dro.seed = seed;
  r.report = workloads::Driver(dro).Run(*system, *workload);
  system->Shutdown();

  if (system->history() != nullptr) r.events = system->history()->Snapshot();
  r.hash = history::HashEvents(r.events);
  r.audit = tools::AuditHistory(
      r.events, tools::OptionsForSystem(workloads::SystemKindName(kind)));
  return r;
}

void DumpEvents(const std::vector<history::HistoryEvent>& events,
                const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const history::HistoryEvent& e : events) {
    out << history::SerializeEvent(e) << "\n";
  }
}

// Runs one combination under one seeded schedule and audits its history.
// Any anomaly fails the test with the seed, a dump of the offending
// history, AND the run's trace — the exact interleaving. Without hooks
// the engine cannot steer the system's threads (a thread that never
// reaches a sync point would hold up every grant), so there the run is
// free and the trace empty.
void RunAndAudit(workloads::SystemKind kind, WorkloadKind wkind,
                 uint64_t seed) {
  sched::ResetIdentities();
  if (DYNAMAST_SCHED_FUZZ_ENABLED) sched::StartExplore(FuzzOptions(seed));
  const RunResult run = RunOnce(kind, wkind, seed);
  sched::Trace trace;
  if (DYNAMAST_SCHED_FUZZ_ENABLED) trace = sched::StopExplore().trace;

  EXPECT_GT(run.report.committed, 0u)
      << workloads::SystemKindName(kind) << " committed nothing (seed " << seed
      << ", errors: " << run.report.errors << ")";
  if (!run.audit.ok()) {
    const std::string base = TempPath(std::string("schedule_explore_") +
                                      workloads::SystemKindName(kind) + "_" +
                                      std::to_string(seed));
    DumpEvents(run.events, base + ".history");
    sched::Trace annotated = trace;
    annotated.meta["system"] = workloads::SystemKindName(kind);
    annotated.meta["workload"] = WorkloadKindName(wkind);
    (void)annotated.DumpToFile(base + ".trace");
    FAIL() << workloads::SystemKindName(kind)
           << " failed the SI audit; replay with DYNAMAST_SCHED_TRACE=" << base
           << ".trace (or DYNAMAST_SCHED_SEED=" << seed
           << "); history dumped to " << base << ".history\n"
           << run.audit.ToString();
  }
}

class ScheduleExploreTest
    : public ::testing::TestWithParam<workloads::SystemKind> {};

TEST_P(ScheduleExploreTest, YcsbHistoriesAuditClean) {
  for (uint64_t seed : FuzzSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunAndAudit(GetParam(), WorkloadKind::kYcsb, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(ScheduleExploreTest, SmallBankHistoriesAuditClean) {
  for (uint64_t seed : FuzzSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunAndAudit(GetParam(), WorkloadKind::kSmallBank, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ScheduleExploreTest,
    ::testing::ValuesIn(workloads::AllSystems()),
    [](const ::testing::TestParamInfo<workloads::SystemKind>& info) {
      std::string name = workloads::SystemKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ScheduleFuzzerTest, SyncPointsFireWhenEnabled) {
#if !DYNAMAST_SCHED_FUZZ_ENABLED
  GTEST_SKIP() << "built without DYNAMAST_SCHED_FUZZ";
#else
  sched::ResetIdentities();
  sched::StartExplore(FuzzOptions(12345));
  {
    RangePartitioner partitioner(10, 2);
    core::Cluster::Options copts;
    copts.num_sites = 2;
    copts.network.charge_delays = false;
    core::Cluster cluster(copts, &partitioner);
    EXPECT_TRUE(cluster.CreateTable(0).ok());
    cluster.Stop();
  }
  const sched::ExploreRun run = sched::StopExplore();
  EXPECT_FALSE(run.trace.entries.empty())
      << "mutex hooks should hit the scheduler while it explores";
#endif
}

// ---- Exact replay ----------------------------------------------------

// Replays `trace` by forced prefix around one RunOnce.
[[maybe_unused]] std::pair<RunResult, sched::ExploreRun> Replay(
    const sched::Trace& trace, workloads::SystemKind kind, WorkloadKind wkind,
    uint64_t seed) {
  sched::ResetIdentities();
  sched::StartExplore(sched::ReplayOptions(trace));
  RunResult result = RunOnce(kind, wkind, seed);
  return {std::move(result), sched::StopExplore()};
}

[[maybe_unused]] std::string ReplaySummary(const sched::ExploreRun& run,
                                           const sched::Trace& trace) {
  return "followed " + std::to_string(run.forced_consumed) + "/" +
         std::to_string(trace.entries.size()) + " forced steps, " +
         std::to_string(run.stall_grants) + " stall grants";
}

// Records one seeded run per workload, then replays its trace twice by
// forced prefix: both replays must follow the whole prefix and produce a
// history hash identical to each other and to the recorded run. This is
// the deterministic-reproducer contract for every system.
class ExactReplayTest
    : public ::testing::TestWithParam<workloads::SystemKind> {};

TEST_P(ExactReplayTest, TwoReplaysReproduceRecordedHistoryHash) {
#if !DYNAMAST_SCHED_FUZZ_ENABLED
  GTEST_SKIP() << "built without DYNAMAST_SCHED_FUZZ (no sync-point hooks)";
#else
  for (WorkloadKind wkind : {WorkloadKind::kYcsb, WorkloadKind::kSmallBank}) {
    SCOPED_TRACE(WorkloadKindName(wkind));
    const uint64_t seed = FuzzSeeds().front();
    sched::ResetIdentities();
    sched::StartExplore(FuzzOptions(seed));
    const RunResult recorded = RunOnce(GetParam(), wkind, seed);
    const sched::ExploreRun recording = sched::StopExplore();
    const sched::Trace& trace = recording.trace;
    ASSERT_GT(recorded.report.committed, 0u);
    ASSERT_FALSE(recording.hit_step_limit) << "trace covers only a prefix";
    ASSERT_FALSE(trace.entries.empty())
        << "hooks recorded no sync points; replay would be vacuous";

    uint64_t replay_hash[2] = {0, 1};
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("replay round " + std::to_string(round));
      const auto [replayed, run] = Replay(trace, GetParam(), wkind, seed);
      EXPECT_FALSE(run.diverged) << ReplaySummary(run, trace);
      EXPECT_EQ(run.forced_consumed, trace.entries.size());
      EXPECT_TRUE(replayed.audit.ok()) << replayed.audit.ToString();
      replay_hash[round] = replayed.hash;
    }
    EXPECT_EQ(replay_hash[0], replay_hash[1])
        << "two replays of one trace must produce byte-identical histories";
    EXPECT_EQ(replay_hash[0], recorded.hash)
        << "replay must reproduce the recorded history exactly";
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ExactReplayTest, ::testing::ValuesIn(workloads::AllSystems()),
    [](const ::testing::TestParamInfo<workloads::SystemKind>& info) {
      std::string name = workloads::SystemKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Golden replay path for traces persisted by failing runs: with
// DYNAMAST_SCHED_TRACE=FILE set, the trace's meta block names the system
// and workload and the test replays that exact decision stream twice;
// without it, a fresh DynaMast/YCSB trace is recorded first (so the path
// is exercised on every run, not only post-failure).
TEST(TraceReplayTest, PersistedTraceReplaysToIdenticalHashes) {
#if !DYNAMAST_SCHED_FUZZ_ENABLED
  GTEST_SKIP() << "built without DYNAMAST_SCHED_FUZZ (no sync-point hooks)";
#else
  sched::Trace trace;
  if (const char* path = std::getenv("DYNAMAST_SCHED_TRACE");
      path != nullptr && *path != '\0') {
    ASSERT_TRUE(sched::Trace::LoadFromFile(path, &trace).ok())
        << "could not load DYNAMAST_SCHED_TRACE=" << path;
  } else {
    const uint64_t seed = FuzzSeeds().front();
    sched::ResetIdentities();
    sched::StartExplore(FuzzOptions(seed));
    (void)RunOnce(workloads::SystemKind::kDynaMast, WorkloadKind::kYcsb, seed);
    trace = sched::StopExplore().trace;
    trace.meta["system"] = "dynamast";
    trace.meta["workload"] = "ycsb";
    const std::string saved = TempPath("trace_replay_golden.trace");
    ASSERT_TRUE(trace.DumpToFile(saved).ok());
    ASSERT_TRUE(sched::Trace::LoadFromFile(saved, &trace).ok());
  }
  ASSERT_FALSE(trace.entries.empty());

  workloads::SystemKind kind = workloads::SystemKind::kDynaMast;
  for (workloads::SystemKind k : workloads::AllSystems()) {
    auto it = trace.meta.find("system");
    if (it != trace.meta.end() && it->second == workloads::SystemKindName(k)) {
      kind = k;
    }
  }
  auto wit = trace.meta.find("workload");
  const WorkloadKind wkind = WorkloadKindFromName(
      wit == trace.meta.end() ? "ycsb" : wit->second);

  uint64_t hashes[2] = {0, 1};
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("replay round " + std::to_string(round));
    const auto [replayed, run] = Replay(trace, kind, wkind, trace.seed);
    EXPECT_FALSE(run.diverged) << ReplaySummary(run, trace);
    hashes[round] = replayed.hash;
  }
  EXPECT_EQ(hashes[0], hashes[1])
      << "byte-identical history hashes required across replays";
#endif
}

// ---- DPOR over a stock workload --------------------------------------

// A short DynaMast/YCSB scenario under the systematic explorer: the
// cluster spawns many threads whose operations are mostly independent
// (per-site state, per-topic logs), so partial-order reduction must prove
// some enabled alternatives equivalent and prune them. The executed vs.
// pruned counts are the measurable reduction the harness reports.
TEST(DporExploreTest, PrunesEquivalentInterleavingsOnStockWorkload) {
#if !DYNAMAST_SCHED_FUZZ_ENABLED
  GTEST_SKIP() << "built without DYNAMAST_SCHED_FUZZ (no sync-point hooks)";
#else
  sched::DporOptions opts;
  opts.max_executions = EnvU64("DYNAMAST_DPOR_EXECUTIONS", 4);
  // Budget must cover the serial setup prefix (table loads are traced
  // sync points too) plus the concurrent window, or every execution is
  // truncated before any real choice point appears.
  opts.max_steps = EnvU64("DYNAMAST_DPOR_MAX_STEPS", 400000);
  opts.seed = FuzzSeeds().front();
  opts.stop_on_failure = true;
  sched::DporExplorer explorer(opts);
  const sched::DporStats stats = explorer.Run([&] {
    sched::ResetIdentities();
    const RunResult run =
        RunOnce(workloads::SystemKind::kDynaMast, WorkloadKind::kYcsb,
                opts.seed, /*ops_per_client=*/3);
    sched::DporOutcome out;
    out.failed = !run.audit.ok();
    if (out.failed) out.note = run.audit.ToString();
    return out;
  });
  RecordProperty("dpor_executed", static_cast<int>(stats.executed));
  RecordProperty("dpor_pruned", static_cast<int>(stats.pruned));
  std::cout << "[ DPOR     ] stock workload: " << stats.ToString() << "\n";
  EXPECT_FALSE(stats.failure_found) << stats.failure;
  EXPECT_GE(stats.executed, 1u);
  EXPECT_GT(stats.pruned, 0u)
      << "partial-order reduction pruned nothing: " << stats.ToString();
#endif
}

// ---- Anomaly-injection proof (DYNAMAST_BREAK_SI builds only) ---------

// Explores for one scope and discards the run, so an ASSERT that returns
// early still stops the engine.
class ScopedExplore {
 public:
  explicit ScopedExplore(const sched::ExploreOptions& options) {
    sched::StartExplore(options);
  }
  ~ScopedExplore() { (void)sched::StopExplore(); }
  ScopedExplore(const ScopedExplore&) = delete;
  ScopedExplore& operator=(const ScopedExplore&) = delete;
};

TEST(BreakSiProofTest, AuditorCatchesSkippedGrantWait) {
#if !defined(DYNAMAST_BREAK_SI) || !DYNAMAST_BREAK_SI
  GTEST_SKIP() << "built without DYNAMAST_BREAK_SI";
#else
  // Two sites, no refresh appliers: site 1 can never catch up to site 0,
  // so a correct Grant would block on the release vector. The BREAK_SI
  // build skips that wait, letting site 1 accept a writer whose begin
  // snapshot predates the old master's final state — a lost update the
  // auditor must catch, attributed to the remastering window.
  bool caught_window = false, caught_lost_update = false;
  for (uint64_t seed : FuzzSeeds()) {
    sched::ResetIdentities();
    const ScopedExplore explore(FuzzOptions(seed));
    RangePartitioner partitioner(10, 2);
    log::LogManager logs(2);
    history::Recorder recorder;
    site::SiteOptions so;
    so.read_op_cost = so.write_op_cost = so.apply_op_cost =
        std::chrono::microseconds(0);
    so.num_sites = 2;
    so.site_id = 0;
    site::SiteManager site0(so, &partitioner, &logs, nullptr, &recorder);
    so.site_id = 1;
    site::SiteManager site1(so, &partitioner, &logs, nullptr, &recorder);
    const RecordKey key{0, 5};
    for (site::SiteManager* s : {&site0, &site1}) {
      ASSERT_TRUE(s->CreateTable(0).ok());
      ASSERT_TRUE(s->LoadRecord(key, "base").ok());
    }
    site0.SetMasterOf(0, true);

    site::TxnOptions to;
    to.write_keys = {key};
    to.client = 1;
    to.client_txn = 1;
    site::Transaction t1;
    ASSERT_TRUE(site0.BeginTransaction(to, &t1).ok());
    ASSERT_TRUE(t1.Put(key, "from-old-master").ok());
    VersionVector cv;
    ASSERT_TRUE(site0.Commit(&t1, &cv).ok());

    VersionVector release_version, grant_version;
    ASSERT_TRUE(site0.Release({0}, 1, &release_version).ok());
    // Would block forever in a correct build (no appliers); BREAK_SI
    // returns immediately with site 1 still at [0, 0].
    ASSERT_TRUE(
        site1.Grant({0}, 0, release_version, &grant_version).ok());

    to.client = 2;
    site::Transaction t2;
    ASSERT_TRUE(site1.BeginTransaction(to, &t2).ok());
    ASSERT_TRUE(t2.Put(key, "from-new-master").ok());
    ASSERT_TRUE(site1.Commit(&t2, &cv).ok());

    const tools::AuditReport audit =
        tools::AuditHistory(recorder.Snapshot());
    ASSERT_FALSE(audit.ok())
        << "seed " << seed
        << ": auditor missed the injected SI break (replay with "
           "DYNAMAST_SCHED_SEED="
        << seed << ")";
    for (const tools::Anomaly& a : audit.anomalies) {
      if (a.kind == tools::AnomalyKind::kRemasterWindow) caught_window = true;
      if (a.kind == tools::AnomalyKind::kLostUpdate) caught_lost_update = true;
    }
    logs.CloseAll();
  }
  EXPECT_TRUE(caught_window);
  EXPECT_TRUE(caught_lost_update);
#endif
}

#if defined(DYNAMAST_BREAK_SI) && DYNAMAST_BREAK_SI
// Racy variant of the scenario above: site 1's refresh appliers RUN, so
// whether the new-master writer observes the old master's final state
// depends on the schedule — the applier and the writer race on site 1's
// state. A correct build closes the race inside Grant (release-vector
// wait); the BREAK_SI build leaves it open for the explorer to find.
// Returns true when the audited history shows the violation.
bool RemasterRaceViolates() {
  RangePartitioner partitioner(10, 2);
  log::LogManager logs(2);
  history::Recorder recorder;
  site::SiteOptions so;
  so.read_op_cost = so.write_op_cost = so.apply_op_cost =
      std::chrono::microseconds(0);
  so.num_sites = 2;
  so.site_id = 0;
  site::SiteManager site0(so, &partitioner, &logs, nullptr, &recorder);
  so.site_id = 1;
  site::SiteManager site1(so, &partitioner, &logs, nullptr, &recorder);
  const RecordKey key{0, 5};
  for (site::SiteManager* s : {&site0, &site1}) {
    if (!s->CreateTable(0).ok() || !s->LoadRecord(key, "base").ok()) {
      return false;
    }
  }
  site0.SetMasterOf(0, true);
  site1.Start();  // the applier races the new-master writer below

  site::TxnOptions to;
  to.write_keys = {key};
  to.client = 1;
  to.client_txn = 1;
  site::Transaction t1;
  VersionVector cv;
  bool ok = site0.BeginTransaction(to, &t1).ok() &&
            t1.Put(key, "from-old-master").ok() &&
            site0.Commit(&t1, &cv).ok();
  VersionVector release_version, grant_version;
  ok = ok && site0.Release({0}, 1, &release_version).ok() &&
       site1.Grant({0}, 0, release_version, &grant_version).ok();
  to.client = 2;
  site::Transaction t2;
  ok = ok && site1.BeginTransaction(to, &t2).ok() &&
       t2.Put(key, "from-new-master").ok() && site1.Commit(&t2, &cv).ok();
  logs.CloseAll();
  site1.Stop();
  return ok && !tools::AuditHistory(recorder.Snapshot()).ok();
}
#endif

// Satellite proof: systematic exploration beats random search on the
// seeded violation, and its reproducer is deterministic. The random
// baseline executes 50 seeded, preemption-bounded schedules (one per
// seed); DPOR must find the violation in strictly fewer executions, then
// the minimized trace must replay the violation every single time.
TEST(BreakSiDporTest, ExplorerBeatsRandomBaselineAndMinimizes) {
#if !defined(DYNAMAST_BREAK_SI) || !DYNAMAST_BREAK_SI
  GTEST_SKIP() << "built without DYNAMAST_BREAK_SI";
#elif !DYNAMAST_SCHED_FUZZ_ENABLED
  GTEST_SKIP() << "built without DYNAMAST_SCHED_FUZZ (no sync-point hooks)";
#else
  constexpr uint64_t kBaselineSchedules = 50;
  uint64_t baseline_hits = 0;
  for (uint64_t seed = 1; seed <= kBaselineSchedules; ++seed) {
    sched::ResetIdentities();
    sched::StartExplore(FuzzOptions(seed));
    if (RemasterRaceViolates()) ++baseline_hits;
    (void)sched::StopExplore();
  }

  sched::DporOptions opts;
  opts.max_executions = kBaselineSchedules;
  opts.stop_on_failure = true;
  sched::DporExplorer explorer(opts);
  const sched::DporStats stats = explorer.Run([&] {
    sched::ResetIdentities();
    sched::DporOutcome out;
    out.failed = RemasterRaceViolates();
    if (out.failed) out.note = "remaster-window violation";
    return out;
  });
  std::cout << "[ DPOR     ] break-si: " << stats.ToString()
            << "; random baseline " << baseline_hits << "/"
            << kBaselineSchedules << " hits\n";
  ASSERT_TRUE(stats.failure_found) << stats.ToString();
  EXPECT_LT(stats.executed, kBaselineSchedules)
      << "DPOR must find the violation in strictly fewer executed "
         "schedules than the 50-seed random baseline";
  ASSERT_FALSE(stats.failure_trace.entries.empty());

  // Minimize, then prove the reproducer deterministic: every replay of
  // the minimized trace follows its whole prefix and reproduces the
  // violation.
  auto replay_fails = [&](const sched::Trace& cand) {
    sched::ResetIdentities();
    sched::StartExplore(sched::ReplayOptions(cand));
    const bool bad = RemasterRaceViolates();
    return !sched::StopExplore().diverged && bad;
  };
  const sched::Trace minimized =
      sched::MinimizeTracePrefix(stats.failure_trace, replay_fails);
  EXPECT_LE(minimized.entries.size(), stats.failure_trace.entries.size());
  const std::string repro = TempPath("break_si_minimized.trace");
  (void)minimized.DumpToFile(repro);
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(replay_fails(minimized))
        << "minimized reproducer must replay the violation "
           "deterministically (round "
        << round << "; trace at " << repro << ")";
  }
#endif
}

}  // namespace
}  // namespace dynamast
