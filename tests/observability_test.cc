// Cross-plane integration test: the metrics registry, the span tracer,
// the routing-explain ring and the history recorder all observe one run
// of DynaMast under YCSB, and their counts must agree *exactly* — the
// observability planes are different views of the same ground truth, not
// independent estimates.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/dynamast_system.h"
#include "tools/si_checker.h"
#include "workloads/driver.h"
#include "workloads/ycsb.h"

namespace dynamast {
namespace {

uint64_t SumOverSites(const metrics::Registry& registry,
                      const std::string& family, uint32_t num_sites,
                      const metrics::Labels& extra = {}) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_sites; ++s) {
    metrics::Labels labels = extra;
    labels.emplace_back("site", std::to_string(s));
    total += registry.CounterValue(family, labels);
  }
  return total;
}

TEST(ObservabilityTest, MetricsTraceAndHistoryAgreeExactly) {
  constexpr uint32_t kSites = 3;
  metrics::Registry registry;

  workloads::YcsbWorkload::Options wopts;
  wopts.num_keys = 2000;
  wopts.keys_per_partition = 100;
  wopts.value_size = 32;
  wopts.rmw_pct = 60;
  wopts.affinity_txns = 20;
  workloads::YcsbWorkload workload(wopts);

  core::DynaMastSystem::Options options;
  options.cluster.num_sites = kSites;
  options.cluster.record_history = true;
  options.cluster.metrics = &registry;
  options.cluster.trace = true;
  options.cluster.site.worker_slots = 8;
  options.cluster.site.read_op_cost = std::chrono::microseconds(0);
  options.cluster.site.write_op_cost = std::chrono::microseconds(0);
  options.cluster.site.apply_op_cost = std::chrono::microseconds(0);
  options.cluster.network.charge_delays = false;
  options.selector.weights = selector::StrategyWeights{1.0, 0.5, 3.0, 0.0};
  options.selector.sample_rate = 1.0;
  core::DynaMastSystem system(options, &workload.partitioner());
  ASSERT_TRUE(workload.Load(system).ok());
  system.Seal();

  // Fixed-count mode: the run's span volume depends on the work done, not
  // on machine speed, and stays well below the tracer's ring capacity. A
  // timed run on a fast host could wrap the ring and evict the earliest
  // spans, which are exactly the release/grant spans of the initial
  // remastering.
  workloads::Driver::Options dopts;
  dopts.num_clients = 4;
  dopts.ops_per_client = 400;
  dopts.metrics = &registry;
  workloads::Driver driver(dopts);
  workloads::Driver::Report report = driver.Run(system, workload);
  ASSERT_GT(report.committed, 10u);

  // Drain the lazy-replication pipeline: once every site's svv is
  // identical (and no writers remain), every appended record — update or
  // marker — has been applied everywhere, so the refresh counters are
  // final.
  bool converged = false;
  for (int attempt = 0; attempt < 200 && !converged; ++attempt) {
    const VersionVector v0 = system.cluster().site(0)->CurrentVersion();
    converged = true;
    for (uint32_t s = 1; s < kSites; ++s) {
      if (!(system.cluster().site(s)->CurrentVersion() == v0)) {
        converged = false;
        break;
      }
    }
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(converged) << "appliers did not drain";

  ASSERT_NE(system.history(), nullptr);
  const std::vector<history::HistoryEvent> events =
      system.history()->Snapshot();
  uint64_t update_commits = 0, readonly_commits = 0, releases = 0, grants = 0;
  uint64_t transitions = 0;
  for (const history::HistoryEvent& e : events) {
    switch (e.kind) {
      case history::EventKind::kCommit:
        (e.installed_seq > 0 ? update_commits : readonly_commits)++;
        break;
      case history::EventKind::kRelease:
        ++releases;
        break;
      case history::EventKind::kGrant:
        ++grants;
        transitions += e.partitions.size();
        break;
      case history::EventKind::kAbort:
        break;
    }
  }
  ASSERT_GT(update_commits, 0u);
  ASSERT_GT(releases, 0u) << "round-robin placement must trigger remastering";

  // Plane agreement: exported site counters vs the event log.
  EXPECT_EQ(SumOverSites(registry, "site_commits_total", kSites,
                         {{"kind", "update"}}),
            update_commits);
  EXPECT_EQ(SumOverSites(registry, "site_commits_total", kSites,
                         {{"kind", "readonly"}}),
            readonly_commits);
  EXPECT_EQ(SumOverSites(registry, "site_releases_total", kSites), releases);
  EXPECT_EQ(SumOverSites(registry, "site_grants_total", kSites), grants);
  EXPECT_EQ(releases, grants);  // markers come in release/grant pairs

  // Convergence plane: every granted partition is one mastership
  // transition, and transitions imply open relocalize windows that a
  // forced flush must close into the time_to_relocalize histogram.
  ASSERT_GT(transitions, 0u);
  EXPECT_EQ(SumOverSites(registry, "site_mastership_transitions_total",
                         kSites),
            transitions);
  system.site_selector().convergence().Flush(metrics::NowMicros(),
                                             /*force=*/true);
  EXPECT_GT(system.site_selector().convergence().relocalized(), 0u);
  const LatencyRecorder* relocalize =
      registry.HistogramRecorder("selector_time_to_relocalize_us");
  ASSERT_NE(relocalize, nullptr);
  EXPECT_EQ(relocalize->count(),
            system.site_selector().convergence().relocalized());

  // Every authored record (update commit or marker) is applied at each of
  // the other sites exactly once.
  EXPECT_EQ(SumOverSites(registry, "site_refresh_applied_total", kSites),
            (update_commits + releases + grants) * (kSites - 1));

  // Driver-plane agreement: exported driver counters equal the report.
  for (const auto& [type, count] : report.committed_by_type) {
    EXPECT_EQ(registry.CounterValue("driver_committed_total",
                                    {{"type", type}}),
              count)
        << type;
  }
  uint64_t aborted_exported = 0;
  for (const auto& [reason, count] : report.aborted_by_reason) {
    EXPECT_EQ(registry.CounterValue("driver_aborted_total",
                                    {{"reason", reason}}),
              count)
        << reason;
    aborted_exported += count;
  }
  EXPECT_EQ(aborted_exported, report.errors);

  // The si_checker reconciliation sees the same equalities through the
  // JSON surface (the exact path the CLI --metrics flag exercises).
  tools::MetricsReconciliation reconciliation;
  ASSERT_TRUE(tools::ReconcileMetrics(events, registry.SnapshotJson(),
                                      &reconciliation)
                  .ok());
  EXPECT_TRUE(reconciliation.ok()) << reconciliation.ToString();

  // Routing-explain plane: decisions were recorded with a full score row
  // per site and a winner drawn from it.
  const auto explains = system.site_selector().RecentExplains();
  ASSERT_FALSE(explains.empty());
  for (const auto& explain : explains) {
    EXPECT_EQ(explain.scores.size(), kSites);
    EXPECT_LT(explain.winner, kSites);
    EXPECT_FALSE(explain.partitions.empty());
  }
  EXPECT_GE(registry.CounterValue("routing_explain_decisions_total"),
            explains.size());

  // Trace plane: spans exist for the full route -> execute -> commit
  // chain, and remastering left release/grant spans.
  ASSERT_NE(system.tracer(), nullptr);
  uint64_t route_spans = 0, commit_spans = 0, release_spans = 0;
  for (const trace::TraceEvent& e : system.tracer()->Snapshot()) {
    if (e.name == "route") ++route_spans;
    if (e.name == "commit") ++commit_spans;
    if (e.name == "release") ++release_spans;
  }
  EXPECT_GT(route_spans, 0u);
  EXPECT_GT(commit_spans, 0u);
  EXPECT_GT(release_spans, 0u)
      << "tracer dropped " << system.tracer()->dropped()
      << " spans (ring capacity " << system.tracer()->capacity() << ")";
  EXPECT_EQ(system.tracer()->dropped(), 0u)
      << "the trace ring wrapped: size the run below its capacity";

  system.Shutdown();
}

// Disabling telemetry must disable it: no registry -> the global registry
// is used but no tracer exists, and instrumented paths stay no-ops.
TEST(ObservabilityTest, TracingOffByDefault) {
  workloads::YcsbWorkload::Options wopts;
  wopts.num_keys = 500;
  wopts.keys_per_partition = 100;
  workloads::YcsbWorkload workload(wopts);
  core::DynaMastSystem::Options options;
  options.cluster.num_sites = 2;
  options.cluster.site.read_op_cost = std::chrono::microseconds(0);
  options.cluster.site.write_op_cost = std::chrono::microseconds(0);
  options.cluster.site.apply_op_cost = std::chrono::microseconds(0);
  options.cluster.network.charge_delays = false;
  core::DynaMastSystem system(options, &workload.partitioner());
  ASSERT_TRUE(workload.Load(system).ok());
  system.Seal();
  EXPECT_EQ(system.tracer(), nullptr);
  system.Shutdown();
}

}  // namespace
}  // namespace dynamast
