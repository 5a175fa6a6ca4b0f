// Unit tests for tools/si_checker: each anomaly class is detected on a
// hand-built history and absent from a clean one; the history line format
// round-trips; and a live DynaMast run with history recording audits
// clean end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <initializer_list>
#include <vector>

#include "common/history.h"
#include "tools/si_checker.h"
#include "workloads/driver.h"
#include "workloads/smallbank.h"
#include "workloads/system_factory.h"
#include "workloads/ycsb.h"

namespace dynamast {
namespace {

using history::EventKind;
using history::HistoryEvent;
using tools::Anomaly;
using tools::AnomalyKind;
using tools::AuditHistory;
using tools::AuditReport;
using tools::SiCheckerOptions;

VersionVector VV(std::initializer_list<uint64_t> v) {
  return VersionVector(std::vector<uint64_t>(v));
}

HistoryEvent Commit(SiteId site, VersionVector begin, VersionVector commit,
                    uint64_t installed_seq,
                    std::vector<history::ReadObservation> reads,
                    std::vector<history::WriteObservation> writes,
                    ClientId client = 0, uint64_t client_txn = 0) {
  HistoryEvent e;
  e.kind = EventKind::kCommit;
  e.site = site;
  e.client = client;
  e.client_txn = client_txn;
  e.begin = std::move(begin);
  e.commit = std::move(commit);
  e.installed_seq = installed_seq;
  e.reads = std::move(reads);
  e.writes = std::move(writes);
  return e;
}

std::vector<HistoryEvent> Sequenced(std::vector<HistoryEvent> events) {
  for (size_t i = 0; i < events.size(); ++i) events[i].seq = i + 1;
  return events;
}

size_t CountKind(const AuditReport& report, AnomalyKind kind) {
  size_t n = 0;
  for (const Anomaly& a : report.anomalies) {
    if (a.kind == kind) n++;
  }
  return n;
}

constexpr RecordKey kX{0, 1};
constexpr RecordKey kY{0, 2};

TEST(SiCheckerTest, CleanHistoryPasses) {
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}, 1, 1),
      Commit(0, VV({1, 0}), VV({1, 0}), 0, {{kX, 0, 1}}, {}, 1, 2),
      Commit(0, VV({1, 0}), VV({2, 0}), 2, {{kX, 0, 1}}, {{kX, 0}}, 2, 1),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.commits, 3u);
  EXPECT_EQ(report.reads_checked, 2u);
}

TEST(SiCheckerTest, BaseVersionsAreAlwaysVisible) {
  // (0, 0) is the loader's base version: readable from any snapshot,
  // including the empty one, and never G1a even though no commit made it.
  auto events = Sequenced({
      Commit(1, VV({0, 0}), VV({0, 0}), 0, {{kX, 0, 0}}, {}),
  });
  EXPECT_TRUE(AuditHistory(events).ok());
}

TEST(SiCheckerTest, DetectsFutureRead) {
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}),
      // Reader's begin snapshot is [0, 0] but it observed version 0:1.
      Commit(0, VV({0, 0}), VV({0, 0}), 0, {{kX, 0, 1}}, {}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kFutureRead), 1u)
      << report.ToString();
}

TEST(SiCheckerTest, DetectsG1aAbortedRead) {
  auto events = Sequenced({
      // Version 0:5 was never installed by any committed transaction.
      Commit(0, VV({9, 0}), VV({9, 0}), 0, {{kX, 0, 5}}, {}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kG1aAbortedRead), 1u)
      << report.ToString();

  SiCheckerOptions partial;
  partial.complete_history = false;
  EXPECT_TRUE(AuditHistory(events, partial).ok());
}

TEST(SiCheckerTest, DetectsG1bIntermediateRead) {
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}),
      // Observes slot 0:1 for key Y, but its installer only wrote X.
      Commit(0, VV({1, 0}), VV({1, 0}), 0, {{kY, 0, 1}}, {}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kG1bIntermediateRead), 1u)
      << report.ToString();
}

TEST(SiCheckerTest, DetectsLostUpdate) {
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}),
      // Concurrent second writer: began before the first install.
      Commit(0, VV({0, 0}), VV({2, 0}), 2, {}, {{kX, 0}}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kLostUpdate), 1u)
      << report.ToString();

  // LEAP mode skips cross-origin pairs but still catches same-origin ones.
  SiCheckerOptions leap;
  leap.cross_origin_ww = false;
  EXPECT_EQ(CountKind(AuditHistory(events, leap), AnomalyKind::kLostUpdate),
            1u);
}

TEST(SiCheckerTest, CrossOriginLostUpdateRespectsOption) {
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}),
      Commit(1, VV({0, 0}), VV({0, 1}), 1, {}, {{kX, 0}}),
  });
  EXPECT_EQ(CountKind(AuditHistory(events), AnomalyKind::kLostUpdate), 1u);
  SiCheckerOptions leap;
  leap.cross_origin_ww = false;
  EXPECT_EQ(CountKind(AuditHistory(events, leap), AnomalyKind::kLostUpdate),
            0u);
}

TEST(SiCheckerTest, DetectsG1cCycle) {
  // T1 reads T2's write and vice versa: wr edges both ways.
  auto events = Sequenced({
      Commit(0, VV({1, 1}), VV({2, 1}), 2, {{kY, 1, 1}}, {{kX, 0}}),
      Commit(1, VV({2, 1}), VV({2, 1}), 1, {{kX, 0, 2}}, {{kY, 0}}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kG1cCycle), 1u)
      << report.ToString();
}

TEST(SiCheckerTest, DetectsSessionRegression) {
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}, 7, 1),
      // Same client's next transaction began below its session [1, 0].
      Commit(1, VV({0, 0}), VV({0, 1}), 1, {}, {{kY, 1}}, 7, 2),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kSessionRegression), 1u)
      << report.ToString();

  // Masked-session systems only promise per-origin monotonicity: the
  // second transaction ran at site 1, where the session slot is still 0.
  SiCheckerOptions masked;
  masked.full_session_vectors = false;
  EXPECT_EQ(
      CountKind(AuditHistory(events, masked), AnomalyKind::kSessionRegression),
      0u);
}

TEST(SiCheckerTest, FoldsTwoPhaseCommitBranches) {
  // Branches of one logical transaction (same client_txn) commit at two
  // sites; neither branch sees the other's commit, which is legal. The
  // *next* logical transaction must see both.
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}, 7, 1),
      Commit(1, VV({0, 0}), VV({0, 1}), 1, {}, {{kY, 1}}, 7, 1),
      Commit(0, VV({1, 1}), VV({2, 1}), 2, {}, {{kX, 0}}, 7, 2),
  });
  EXPECT_TRUE(AuditHistory(events).ok());

  // If the follow-up began at [1, 0] it missed the site-1 branch.
  events[2].begin = VV({1, 0});
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kSessionRegression), 1u)
      << report.ToString();
}

TEST(SiCheckerTest, DetectsRemasterWindowViolation) {
  HistoryEvent grant;
  grant.kind = EventKind::kGrant;
  grant.site = 1;
  grant.commit = VV({0, 1});
  grant.installed_seq = 1;
  grant.partitions = {0};
  grant.peer = 0;
  grant.release_version = VV({2, 0});

  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}),
      grant,
      // New master accepted a writer whose begin misses the release point.
      Commit(1, VV({0, 1}), VV({0, 2}), 2, {}, {{kX, 0}}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kRemasterWindow), 1u)
      << report.ToString();

  // With a begin that dominates the release vector the window is clean
  // (the lost-update check is satisfied by the same dominance).
  events[2].begin = VV({2, 1});
  events[2].commit = VV({2, 2});
  EXPECT_TRUE(AuditHistory(events).ok());
}

TEST(SiCheckerTest, ReleaseClosesTheWindow) {
  HistoryEvent grant;
  grant.kind = EventKind::kGrant;
  grant.site = 1;
  grant.partitions = {0};
  grant.installed_seq = 1;
  grant.commit = VV({0, 1});
  grant.release_version = VV({2, 0});
  HistoryEvent release;
  release.kind = EventKind::kRelease;
  release.site = 1;
  release.partitions = {0};
  release.installed_seq = 2;
  release.commit = VV({0, 2});
  release.peer = 0;

  // After site 1 releases the partition again, its old grant no longer
  // constrains writers there (a later grant would).
  auto events = Sequenced({
      grant,
      release,
      Commit(1, VV({0, 2}), VV({0, 3}), 3, {}, {{kX, 0}}),
  });
  EXPECT_TRUE(AuditHistory(events).ok());
}

TEST(SiCheckerTest, MarkerSlotReadIsIntermediate) {
  HistoryEvent release;
  release.kind = EventKind::kRelease;
  release.site = 0;
  release.partitions = {0};
  release.installed_seq = 1;
  release.commit = VV({1, 0});
  release.peer = 1;
  auto events = Sequenced({
      release,
      // Markers occupy a commit-order slot but install no data: a read
      // resolving to one is bogus.
      Commit(0, VV({1, 0}), VV({1, 0}), 0, {{kX, 0, 1}}, {}),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(CountKind(report, AnomalyKind::kG1bIntermediateRead), 1u)
      << report.ToString();
}

// ---- SSI certification (G2 dangerous structures) ---------------------

TEST(SiCheckerSsiTest, FlagsWriteSkew) {
  // Classic write skew: T1 reads {x, y} and writes y; T2 reads {x, y} and
  // writes x; both begin on the base snapshot. Legal under SI (disjoint
  // write sets), not serializable: T1 ->rw T2 ->rw T1.
  auto events = Sequenced({
      Commit(0, VV({0}), VV({1}), 1, {{kX, 0, 0}, {kY, 0, 0}}, {{kY, 0}}, 1,
             1),
      Commit(0, VV({0}), VV({2}), 2, {{kX, 0, 0}, {kY, 0, 0}}, {{kX, 0}}, 2,
             1),
  });
  const AuditReport report = AuditHistory(events);
  // The default audit checks the SI contract only: write skew is legal.
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.rw_antidependencies, 2u);
  EXPECT_EQ(report.dangerous_structures, 1u) << report.ToString();
  EXPECT_FALSE(report.serializable());
  ASSERT_EQ(report.ssi.size(), 1u);
  EXPECT_EQ(report.ssi[0].kind, AnomalyKind::kSsiDangerousStructure);

  // Certification mode promotes the structure into a failing anomaly.
  SiCheckerOptions certify;
  certify.certify_serializable = true;
  const AuditReport certified = AuditHistory(events, certify);
  EXPECT_FALSE(certified.ok());
  EXPECT_EQ(CountKind(certified, AnomalyKind::kSsiDangerousStructure), 1u);
}

TEST(SiCheckerSsiTest, FlagsReadOnlyAnomaly) {
  // Fekete et al.'s read-only transaction anomaly: T1 (writes x) commits;
  // read-only T3 sees T1 but not T2; T2 (read x and y on the base
  // snapshot, writes y) commits last. Serialization needs T3 < T2 < T1 <
  // T3 — a cycle through the read-only participant. Pivot is T2: in-edge
  // T3 ->rw T2, out-edge T2 ->rw T1, and T1 committed first.
  auto events = Sequenced({
      Commit(0, VV({0}), VV({1}), 1, {{kX, 0, 0}}, {{kX, 0}}, 1, 1),
      Commit(0, VV({1}), VV({1}), 0, {{kX, 0, 1}, {kY, 0, 0}}, {}, 3, 1),
      Commit(0, VV({0}), VV({2}), 2, {{kX, 0, 0}, {kY, 0, 0}}, {{kY, 0}}, 2,
             1),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_TRUE(report.ok()) << report.ToString();  // SI itself is intact
  EXPECT_EQ(report.rw_antidependencies, 2u);
  EXPECT_EQ(report.dangerous_structures, 1u) << report.ToString();
  ASSERT_EQ(report.ssi.size(), 1u);
  // The pivot is the last-committing transaction (event 3).
  EXPECT_EQ(report.ssi[0].event_seq, 3u);
}

TEST(SiCheckerSsiTest, SerialHistoryCertifies) {
  // Strictly serial execution. One rw-antidependency exists (T1 read the
  // base version of x that T2 later overwrote) — rw edges are normal in
  // serializable histories; only a pivot whose out-neighbour committed
  // first is dangerous, and serial order makes that impossible.
  auto events = Sequenced({
      Commit(0, VV({0}), VV({1}), 1, {{kX, 0, 0}, {kY, 0, 0}}, {{kY, 0}}, 1,
             1),
      Commit(0, VV({1}), VV({2}), 2, {{kX, 0, 0}, {kY, 0, 1}}, {{kX, 0}}, 2,
             1),
  });
  SiCheckerOptions certify;
  certify.certify_serializable = true;
  const AuditReport report = AuditHistory(events, certify);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.rw_antidependencies, 1u);
  EXPECT_EQ(report.dangerous_structures, 0u);
  EXPECT_TRUE(report.serializable());
}

TEST(SiCheckerSsiTest, VisibleWriteIsNotAnAntidependency) {
  // The reader observed the writer's install (wr, not rw): no edge.
  auto events = Sequenced({
      Commit(0, VV({0}), VV({1}), 1, {}, {{kX, 0}}, 1, 1),
      Commit(0, VV({1}), VV({1}), 0, {{kX, 0, 1}}, {}, 1, 2),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(report.rw_antidependencies, 0u);
  EXPECT_TRUE(report.serializable());
}

TEST(SiCheckerSsiTest, TwoPhaseCommitBranchesDoNotAntidependOnEachOther) {
  // One logical transaction's branches share (client, client_txn): the
  // site-1 branch does not "miss" the site-0 branch's write.
  auto events = Sequenced({
      Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}, 7, 1),
      Commit(1, VV({0, 0}), VV({0, 1}), 1, {{kX, 0, 0}}, {{kY, 1}}, 7, 1),
  });
  const AuditReport report = AuditHistory(events);
  EXPECT_EQ(report.rw_antidependencies, 0u) << report.ToString();
}

TEST(SiCheckerTest, OptionsForSystemPresets) {
  EXPECT_TRUE(tools::OptionsForSystem("dynamast").full_session_vectors);
  EXPECT_TRUE(tools::OptionsForSystem("multi-master").full_session_vectors);
  EXPECT_FALSE(tools::OptionsForSystem("partition-store").full_session_vectors);
  EXPECT_TRUE(tools::OptionsForSystem("partition-store").cross_origin_ww);
  EXPECT_FALSE(tools::OptionsForSystem("leap").full_session_vectors);
  EXPECT_FALSE(tools::OptionsForSystem("leap").cross_origin_ww);
}

// ---- Serialization ---------------------------------------------------

TEST(HistoryFormatTest, EventRoundTrips) {
  HistoryEvent e;
  e.seq = 42;
  e.kind = EventKind::kGrant;
  e.site = 2;
  e.client = 9;
  e.client_txn = 13;
  e.read_only = true;
  e.begin = VV({1, 2, 3});
  e.commit = VV({4, 5, 6});
  e.installed_seq = 6;
  e.reads = {{kX, 1, 5}, {kY, 0, 0}};
  e.writes = {{kX, 3}};
  e.partitions = {3, 7};
  e.peer = 0;
  e.release_version = VV({1, 1, 1});

  HistoryEvent parsed;
  ASSERT_TRUE(history::ParseEvent(history::SerializeEvent(e), &parsed).ok());
  EXPECT_EQ(parsed.seq, e.seq);
  EXPECT_EQ(parsed.kind, e.kind);
  EXPECT_EQ(parsed.site, e.site);
  EXPECT_EQ(parsed.client, e.client);
  EXPECT_EQ(parsed.client_txn, e.client_txn);
  EXPECT_EQ(parsed.read_only, e.read_only);
  EXPECT_EQ(parsed.begin, e.begin);
  EXPECT_EQ(parsed.commit, e.commit);
  EXPECT_EQ(parsed.installed_seq, e.installed_seq);
  ASSERT_EQ(parsed.reads.size(), 2u);
  EXPECT_EQ(parsed.reads[0].key, kX);
  EXPECT_EQ(parsed.reads[0].origin, 1u);
  EXPECT_EQ(parsed.reads[0].seq, 5u);
  ASSERT_EQ(parsed.writes.size(), 1u);
  EXPECT_EQ(parsed.writes[0].key, kX);
  EXPECT_EQ(parsed.writes[0].partition, 3u);
  EXPECT_EQ(parsed.partitions, e.partitions);
  EXPECT_EQ(parsed.peer, e.peer);
  EXPECT_EQ(parsed.release_version, e.release_version);
}

TEST(HistoryFormatTest, HistoryRoundTripsThroughRecorder) {
  history::Recorder recorder;
  recorder.Record(Commit(0, VV({0, 0}), VV({1, 0}), 1, {}, {{kX, 0}}, 1, 1));
  recorder.Record(Commit(0, VV({1, 0}), VV({1, 0}), 0, {{kX, 0, 1}}, {}, 1, 2));
  ASSERT_EQ(recorder.size(), 2u);

  std::vector<HistoryEvent> parsed;
  ASSERT_TRUE(history::ParseHistory(recorder.Serialize(), &parsed).ok());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq, 1u);
  EXPECT_EQ(parsed[1].seq, 2u);
  EXPECT_TRUE(AuditHistory(parsed).ok());
}

TEST(HistoryFormatTest, ParserSkipsCommentsAndRejectsGarbage) {
  std::vector<HistoryEvent> parsed;
  ASSERT_TRUE(history::ParseHistory("# comment\n\n", &parsed).ok());
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(history::ParseHistory("not a history line\n", &parsed).ok());
}

// ---- End-to-end smoke ------------------------------------------------

TEST(SiCheckerLiveTest, DynaMastSmallBankAuditsClean) {
  workloads::SmallBankWorkload::Options wo;
  wo.num_accounts = 400;
  wo.accounts_per_partition = 20;
  workloads::SmallBankWorkload workload(wo);

  workloads::DeploymentOptions d;
  d.num_sites = 3;
  d.charge_network = false;
  d.read_op_cost = d.write_op_cost = d.apply_op_cost =
      std::chrono::microseconds(0);
  d.record_history = true;
  auto system = workloads::MakeSystem(workloads::SystemKind::kDynaMast, d,
                                      workload.partitioner());
  ASSERT_TRUE(workload.Load(*system).ok());
  system->Seal();

  workloads::Driver::Options dro;
  dro.num_clients = 4;
  dro.warmup = std::chrono::milliseconds(0);
  dro.measure = std::chrono::milliseconds(150);
  const workloads::Driver::Report report =
      workloads::Driver(dro).Run(*system, workload);
  system->Shutdown();
  EXPECT_GT(report.committed, 0u);

  ASSERT_NE(system->history(), nullptr);
  const AuditReport audit = AuditHistory(system->history()->Snapshot(),
                                         tools::OptionsForSystem("dynamast"));
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_GT(audit.commits, 0u);
}

TEST(SiCheckerLiveTest, PartitionStoreSmallBankAuditsClean) {
  // Partition-store read-only transactions (SmallBank Balance) run in
  // per-site read-only branches, so they reach the audited history and
  // the site commit counters like every other transaction.
  workloads::SmallBankWorkload::Options wo;
  wo.num_accounts = 400;
  wo.accounts_per_partition = 20;
  workloads::SmallBankWorkload workload(wo);

  metrics::Registry registry;
  workloads::DeploymentOptions d;
  d.num_sites = 3;
  d.charge_network = false;
  d.read_op_cost = d.write_op_cost = d.apply_op_cost =
      std::chrono::microseconds(0);
  d.record_history = true;
  d.metrics = &registry;
  auto system = workloads::MakeSystem(workloads::SystemKind::kPartitionStore,
                                      d, workload.partitioner());
  ASSERT_TRUE(workload.Load(*system).ok());
  system->Seal();

  workloads::Driver::Options dro;
  dro.num_clients = 4;
  dro.ops_per_client = 100;  // fixed-count mode: machine-speed independent
  const workloads::Driver::Report report =
      workloads::Driver(dro).Run(*system, workload);
  system->Shutdown();
  EXPECT_GT(report.committed, 0u);

  ASSERT_NE(system->history(), nullptr);
  const std::vector<history::HistoryEvent> events =
      system->history()->Snapshot();
  const AuditReport audit =
      AuditHistory(events, tools::OptionsForSystem("partition-store"));
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  size_t read_only_commits = 0;
  for (const history::HistoryEvent& e : events) {
    if (e.kind == history::EventKind::kCommit && e.read_only) {
      ++read_only_commits;
    }
  }
  EXPECT_GT(read_only_commits, 0u);

  tools::MetricsReconciliation reconciliation;
  ASSERT_TRUE(tools::ReconcileMetrics(events, registry.SnapshotJson(),
                                      &reconciliation)
                  .ok());
  EXPECT_TRUE(reconciliation.ok()) << reconciliation.ToString();
  for (const tools::MetricsReconciliation::Line& line :
       reconciliation.lines) {
    if (line.name == "readonly_commits") {
      // Commits that installed nothing: the read-only branches plus any
      // write branch that staged no write.
      EXPECT_EQ(line.metrics, line.history);
      EXPECT_GE(line.history, read_only_commits);
    }
  }
}

TEST(SiCheckerLiveTest, DynaMastYcsbCertifiesSerializable) {
  // YCSB's update transactions are read-modify-writes (read set == write
  // set), so under correct SI every rw-antidependency out of a committed
  // writer would also be a ww conflict that first-committer-wins forbids:
  // a clean DynaMast run must certify with zero dangerous structures.
  workloads::YcsbWorkload::Options wo;
  wo.num_keys = 800;
  wo.keys_per_partition = 40;
  wo.value_size = 32;
  wo.rmw_pct = 70;
  wo.seed = 11;
  workloads::YcsbWorkload workload(wo);

  workloads::DeploymentOptions d;
  d.num_sites = 3;
  d.charge_network = false;
  d.read_op_cost = d.write_op_cost = d.apply_op_cost =
      std::chrono::microseconds(0);
  d.record_history = true;
  auto system = workloads::MakeSystem(workloads::SystemKind::kDynaMast, d,
                                      workload.partitioner());
  ASSERT_TRUE(workload.Load(*system).ok());
  system->Seal();

  workloads::Driver::Options dro;
  dro.num_clients = 4;
  dro.ops_per_client = 60;  // fixed-count mode: machine-speed independent
  const workloads::Driver::Report report =
      workloads::Driver(dro).Run(*system, workload);
  system->Shutdown();
  EXPECT_GT(report.committed, 0u);

  tools::SiCheckerOptions options = tools::OptionsForSystem("dynamast");
  options.certify_serializable = true;
  const AuditReport audit =
      AuditHistory(system->history()->Snapshot(), options);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_TRUE(audit.serializable()) << audit.ToString();
  EXPECT_EQ(audit.dangerous_structures, 0u);
  EXPECT_GT(audit.commits, 0u);
}

}  // namespace
}  // namespace dynamast
