// Tests for SiteManager: transaction lifecycle, version-vector commit
// timestamps, mastership enforcement, release/grant, the update
// application rule (Eq. 1, including the Figure 2 scenario), session
// freshness waits, and log-based recovery.

#include "site/site_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/latency_recorder.h"
#include "common/partitioner.h"
#include "log/durable_log.h"

namespace dynamast::site {
namespace {

constexpr TableId kTable = 0;

// A small fixture: m sites over a 10-partition range layout (10 keys per
// partition), zero service time, no network delays.
class SiteFixture : public ::testing::Test {
 protected:
  void SetUp() override { Init(3); }

  void Init(uint32_t num_sites) {
    partitioner_ = std::make_unique<RangePartitioner>(10, 10);
    logs_ = std::make_unique<log::LogManager>(num_sites);
    sites_.clear();
    for (uint32_t i = 0; i < num_sites; ++i) {
      SiteOptions options;
      options.site_id = i;
      options.num_sites = num_sites;
      options.read_op_cost = options.write_op_cost = options.apply_op_cost =
          std::chrono::microseconds(0);
      options.lock_timeout = std::chrono::milliseconds(200);
      options.freshness_timeout = std::chrono::milliseconds(500);
      sites_.push_back(std::make_unique<SiteManager>(
          options, partitioner_.get(), logs_.get(), nullptr, nullptr,
          &registry_));
      EXPECT_TRUE(sites_.back()->CreateTable(kTable).ok());
    }
    // Site 0 masters everything by default.
    for (PartitionId p = 0; p < 10; ++p) sites_[0]->SetMasterOf(p, true);
  }

  void StartAll() {
    for (auto& s : sites_) s->Start();
  }

  void TearDown() override {
    logs_->CloseAll();
    for (auto& s : sites_) s->Stop();
  }

  // Runs a single-key update transaction at `site`; returns commit tvv.
  VersionVector WriteKey(SiteId site, uint64_t key, const std::string& value) {
    TxnOptions options;
    options.write_keys = {RecordKey{kTable, key}};
    Transaction txn;
    EXPECT_TRUE(sites_[site]->BeginTransaction(options, &txn).ok());
    EXPECT_TRUE(txn.Put(RecordKey{kTable, key}, value).ok());
    VersionVector tvv;
    EXPECT_TRUE(sites_[site]->Commit(&txn, &tvv).ok());
    return tvv;
  }

  // Waits (bounded) until `site`'s svv dominates `target`.
  bool WaitFor(SiteId site, const VersionVector& target) {
    return sites_[site]->WaitForVersion(target).ok();
  }

  // One site's count in a `site`-labelled family of registry_.
  uint64_t SiteCount(const std::string& family, SiteId site,
                     metrics::Labels labels = {}) const {
    labels.emplace_back("site", std::to_string(site));
    return registry_.CounterValue(family, labels);
  }

  metrics::Registry registry_;
  std::unique_ptr<RangePartitioner> partitioner_;
  std::unique_ptr<log::LogManager> logs_;
  std::vector<std::unique_ptr<SiteManager>> sites_;
};

// Regression for deferred metric observation: install (version-chain /
// prune) and refresh metrics are accumulated inside the state_mu_ critical
// section but observed after it releases, and deferral must neither lose
// nor double-count observations — every installed version yields exactly
// one chain-length sample, every applied refresh record exactly one
// refresh-delay sample.
TEST(SiteMetricsTest, DeferredInstallAndRefreshMetricsMatchWorkDone) {
  constexpr uint32_t kSites = 2;
  constexpr uint64_t kKeyA = 1, kKeyB = 2;
  constexpr int kCommits = 6;  // > 4 retained versions: prunes happen

  // Pin the shared metrics epoch now: the first NowMicros() call in a
  // process returns 0, and a commit stamped 0 reads as "no append
  // timestamp" (its refresh-delay sample is skipped by design).
  metrics::NowMicros();
  std::this_thread::sleep_for(std::chrono::microseconds(10));

  metrics::Registry registry;
  RangePartitioner partitioner(10, 10);
  log::LogManager logs(kSites);
  std::vector<std::unique_ptr<SiteManager>> sites;
  for (uint32_t i = 0; i < kSites; ++i) {
    SiteOptions options;
    options.site_id = i;
    options.num_sites = kSites;
    options.read_op_cost = options.write_op_cost = options.apply_op_cost =
        std::chrono::microseconds(0);
    sites.push_back(std::make_unique<SiteManager>(options, &partitioner,
                                                  &logs, nullptr, nullptr,
                                                  &registry));
    ASSERT_TRUE(sites.back()->CreateTable(kTable).ok());
  }
  for (PartitionId p = 0; p < 10; ++p) sites[0]->SetMasterOf(p, true);
  sites[1]->Start();

  for (int i = 0; i < kCommits; ++i) {
    TxnOptions options;
    options.write_keys = {RecordKey{kTable, kKeyA}, RecordKey{kTable, kKeyB}};
    Transaction txn;
    ASSERT_TRUE(sites[0]->BeginTransaction(options, &txn).ok());
    ASSERT_TRUE(txn.Put(RecordKey{kTable, kKeyA}, "a" + std::to_string(i)).ok());
    ASSERT_TRUE(txn.Put(RecordKey{kTable, kKeyB}, "b" + std::to_string(i)).ok());
    VersionVector tvv;
    ASSERT_TRUE(sites[0]->Commit(&txn, &tvv).ok());
  }

  // One chain-length observation per installed version at the origin.
  metrics::Histogram* chain0 =
      registry.GetHistogram("storage_version_chain_len", {{"site", "0"}});
  EXPECT_EQ(chain0->recorder().count(), 2u * kCommits);
  // Each key holds 4 versions and saw kCommits installs: the overflow was
  // pruned, and every prune is counted.
  EXPECT_EQ(registry.CounterValue("storage_pruned_versions_total",
                                  {{"site", "0"}}),
            2u * (kCommits - 4));

  // Drain replication to site 1, then check the applier-side metrics.
  // Metric emission is deliberately after svv publication, so waiters can
  // observe the new version a beat before the last record's samples land:
  // poll briefly for the final counts.
  ASSERT_TRUE(sites[1]->WaitForVersion(sites[0]->CurrentVersion()).ok());
  metrics::Histogram* delay1 =
      registry.GetHistogram("site_refresh_delay_us", {{"site", "1"}});
  metrics::Histogram* chain1 =
      registry.GetHistogram("storage_version_chain_len", {{"site", "1"}});
  for (int i = 0; i < 200 && delay1->recorder().count() < kCommits; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(registry.CounterValue("site_refresh_applied_total",
                                  {{"site", "1"}}),
            static_cast<uint64_t>(kCommits));
  EXPECT_EQ(delay1->recorder().count(), static_cast<uint64_t>(kCommits));
  EXPECT_EQ(chain1->recorder().count(), 2u * kCommits);

  logs.CloseAll();
  for (auto& s : sites) s->Stop();
}

TEST_F(SiteFixture, CommitBumpsOwnSvvIndex) {
  const VersionVector tvv = WriteKey(0, 1, "v1");
  EXPECT_EQ(tvv[0], 1u);
  EXPECT_EQ(tvv[1], 0u);
  EXPECT_EQ(sites_[0]->CurrentVersion()[0], 1u);
  EXPECT_EQ(SiteCount("site_commits_total", 0, {{"kind", "update"}}), 1u);
}

TEST_F(SiteFixture, CommitTimestampEmbedsBeginSnapshot) {
  WriteKey(0, 1, "a");
  WriteKey(0, 2, "b");
  const VersionVector tvv = WriteKey(0, 3, "c");
  EXPECT_EQ(tvv[0], 3u);  // third local commit
}

TEST_F(SiteFixture, SnapshotReadSeesOnlyCommittedPrefix) {
  WriteKey(0, 1, "v1");
  WriteKey(0, 1, "v2");

  TxnOptions read_options;
  read_options.read_only = true;
  Transaction reader;
  ASSERT_TRUE(sites_[0]->BeginTransaction(read_options, &reader).ok());
  std::string value;
  ASSERT_TRUE(reader.Get(RecordKey{kTable, 1}, &value).ok());
  EXPECT_EQ(value, "v2");

  // A write committed after the reader began is invisible to it.
  WriteKey(0, 1, "v3");
  ASSERT_TRUE(reader.Get(RecordKey{kTable, 1}, &value).ok());
  EXPECT_EQ(value, "v2");
  VersionVector ignored;
  ASSERT_TRUE(sites_[0]->Commit(&reader, &ignored).ok());
}

TEST_F(SiteFixture, ReadYourOwnStagedWrites) {
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 4}};
  Transaction txn;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &txn).ok());
  ASSERT_TRUE(txn.Put(RecordKey{kTable, 4}, "mine").ok());
  std::string value;
  ASSERT_TRUE(txn.Get(RecordKey{kTable, 4}, &value).ok());
  EXPECT_EQ(value, "mine");
  sites_[0]->Abort(&txn);
  // Aborted writes never surface.
  EXPECT_TRUE(sites_[0]->engine().ReadLatest(RecordKey{kTable, 4}, &value)
                  .IsNotFound());
}

TEST_F(SiteFixture, WriteToUndeclaredKeyRejected) {
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};
  Transaction txn;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &txn).ok());
  EXPECT_TRUE(txn.Put(RecordKey{kTable, 2}, "x").IsInvalidArgument());
  sites_[0]->Abort(&txn);
}

TEST_F(SiteFixture, InsertPathLocksDynamically) {
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};
  Transaction txn;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &txn).ok());
  // Key 5 is in partition 0 (mastered at site 0): dynamic insert allowed.
  ASSERT_TRUE(txn.Insert(RecordKey{kTable, 5}, "fresh").ok());
  VersionVector tvv;
  ASSERT_TRUE(sites_[0]->Commit(&txn, &tvv).ok());
  std::string value;
  ASSERT_TRUE(sites_[0]->engine().ReadLatest(RecordKey{kTable, 5}, &value).ok());
  EXPECT_EQ(value, "fresh");
}

TEST_F(SiteFixture, NotMasterRejected) {
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};
  Transaction txn;
  EXPECT_TRUE(sites_[1]->BeginTransaction(options, &txn).IsNotMaster());
  EXPECT_EQ(SiteCount("site_aborts_total", 1, {{"reason", "NotMaster"}}), 1u);
}

TEST_F(SiteFixture, InsertIntoUnmasteredPartitionRejected) {
  sites_[0]->SetMasterOf(9, false);
  sites_[1]->SetMasterOf(9, true);
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};  // partition 0 at site 0
  Transaction txn;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &txn).ok());
  EXPECT_TRUE(txn.Insert(RecordKey{kTable, 95}, "x").IsNotMaster());
  sites_[0]->Abort(&txn);
}

TEST_F(SiteFixture, WriteWriteConflictBlocksNotAborts) {
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};
  Transaction first;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &first).ok());
  ASSERT_TRUE(first.Put(RecordKey{kTable, 1}, "first").ok());

  std::atomic<bool> second_committed{false};
  std::thread contender([&] {
    Transaction second;
    Status s = sites_[0]->BeginTransaction(options, &second);
    if (!s.ok()) return;
    if (!second.Put(RecordKey{kTable, 1}, "second").ok()) return;
    VersionVector tvv;
    second_committed.store(sites_[0]->Commit(&second, &tvv).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_committed.load());  // blocked on the write lock
  VersionVector tvv;
  ASSERT_TRUE(sites_[0]->Commit(&first, &tvv).ok());
  contender.join();
  EXPECT_TRUE(second_committed.load());
  std::string value;
  ASSERT_TRUE(sites_[0]->engine().ReadLatest(RecordKey{kTable, 1}, &value).ok());
  EXPECT_EQ(value, "second");
}

TEST_F(SiteFixture, RefreshPropagationReachesAllSites) {
  StartAll();
  const VersionVector tvv = WriteKey(0, 1, "v1");
  ASSERT_TRUE(WaitFor(1, tvv));
  ASSERT_TRUE(WaitFor(2, tvv));
  std::string value;
  VersionVector snapshot = sites_[1]->CurrentVersion();
  ASSERT_TRUE(sites_[1]->engine().Read(RecordKey{kTable, 1}, snapshot, &value)
                  .ok());
  EXPECT_EQ(value, "v1");
  EXPECT_GE(SiteCount("site_refresh_applied_total", 1), 1u);
}

// The Figure 2 scenario: T1 commits at S1; T2 (which observed T1 via
// refresh) commits at S2; S3 must not apply R(T2) before R(T1).
TEST_F(SiteFixture, UpdateApplicationRuleOrdersDependentRefreshes) {
  // Master partition 0 at site 0 and partition 1 at site 1.
  sites_[0]->SetMasterOf(1, false);
  sites_[1]->SetMasterOf(1, true);
  StartAll();

  // T1 at site 0 writes key 1.
  const VersionVector t1 = WriteKey(0, 1, "t1");
  // Wait until site 1 applied R(T1), then run T2 at site 1, which reads
  // key 1 (so T2 depends on T1) and writes key 11.
  ASSERT_TRUE(WaitFor(1, t1));
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 11}};
  Transaction t2;
  ASSERT_TRUE(sites_[1]->BeginTransaction(options, &t2).ok());
  std::string value;
  ASSERT_TRUE(t2.Get(RecordKey{kTable, 1}, &value).ok());
  EXPECT_EQ(value, "t1");
  ASSERT_TRUE(t2.Put(RecordKey{kTable, 11}, "t2").ok());
  VersionVector t2_tvv;
  ASSERT_TRUE(sites_[1]->Commit(&t2, &t2_tvv).ok());
  // T2's commit timestamp records its dependency on T1 (tvv[0] >= t1[0]).
  EXPECT_GE(t2_tvv[0], t1[0]);

  // Site 2 eventually applies both; when T2's write is visible, T1's
  // write must be visible too (Eq. 1 forbids the inversion).
  ASSERT_TRUE(WaitFor(2, t2_tvv));
  VersionVector snapshot = sites_[2]->CurrentVersion();
  ASSERT_TRUE(sites_[2]->engine().Read(RecordKey{kTable, 11}, snapshot,
                                       &value).ok());
  EXPECT_EQ(value, "t2");
  ASSERT_TRUE(sites_[2]->engine().Read(RecordKey{kTable, 1}, snapshot,
                                       &value).ok());
  EXPECT_EQ(value, "t1");
}

TEST_F(SiteFixture, ReleaseGrantTransfersMastership) {
  StartAll();
  ASSERT_TRUE(sites_[0]->IsMasterOf(3));
  VersionVector release_vv;
  ASSERT_TRUE(sites_[0]->Release({3}, 1, &release_vv).ok());
  EXPECT_FALSE(sites_[0]->IsMasterOf(3));
  EXPECT_GE(release_vv[0], 1u);  // release marker occupies a commit slot

  VersionVector grant_vv;
  ASSERT_TRUE(sites_[1]->Grant({3}, 0, release_vv, &grant_vv).ok());
  EXPECT_TRUE(sites_[1]->IsMasterOf(3));
  // Grant waited for everything up to the release point.
  EXPECT_TRUE(grant_vv.DominatesOrEquals(release_vv));
  EXPECT_EQ(SiteCount("site_releases_total", 0), 1u);
  EXPECT_EQ(SiteCount("site_grants_total", 1), 1u);

  // The new master can now execute writes on the partition.
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 30}};
  options.min_begin_version = grant_vv;
  Transaction txn;
  ASSERT_TRUE(sites_[1]->BeginTransaction(options, &txn).ok());
  ASSERT_TRUE(txn.Put(RecordKey{kTable, 30}, "after-grant").ok());
  VersionVector tvv;
  ASSERT_TRUE(sites_[1]->Commit(&txn, &tvv).ok());
}

TEST_F(SiteFixture, ReleaseOfUnmasteredPartitionFails) {
  VersionVector vv;
  EXPECT_TRUE(sites_[1]->Release({3}, 0, &vv).IsNotMaster());
}

TEST_F(SiteFixture, ReleaseDrainsActiveWriters) {
  StartAll();
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};
  Transaction writer;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &writer).ok());
  ASSERT_TRUE(writer.Put(RecordKey{kTable, 1}, "in-flight").ok());

  std::atomic<bool> released{false};
  std::thread releaser([&] {
    VersionVector vv;
    Status s = sites_[0]->Release({0}, 1, &vv);
    released.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Release must wait for the in-flight writer.
  EXPECT_FALSE(released.load());
  VersionVector tvv;
  ASSERT_TRUE(sites_[0]->Commit(&writer, &tvv).ok());
  releaser.join();
  EXPECT_TRUE(released.load());
  // The released partition rejects new writers at the old master.
  Transaction late;
  EXPECT_TRUE(sites_[0]->BeginTransaction(options, &late).IsNotMaster());
}

TEST_F(SiteFixture, ReleaseBlocksNewWritersImmediately) {
  StartAll();
  // While release is draining partition 0, concurrent writes to *other*
  // partitions proceed — coordination happens outside transaction
  // boundaries (Section III-B).
  TxnOptions p0_options;
  p0_options.write_keys = {RecordKey{kTable, 1}};
  Transaction writer;
  ASSERT_TRUE(sites_[0]->BeginTransaction(p0_options, &writer).ok());

  std::thread releaser([&] {
    VersionVector vv;
    (void)sites_[0]->Release({0}, 1, &vv);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // A write to partition 5 is admitted and commits while the release of
  // partition 0 is still draining.
  const VersionVector other = WriteKey(0, 51, "concurrent");
  EXPECT_GE(other[0], 1u);

  VersionVector tvv;
  ASSERT_TRUE(sites_[0]->Commit(&writer, &tvv).ok());
  releaser.join();
}

TEST_F(SiteFixture, SessionFreshnessWaitBlocksUntilApplied) {
  StartAll();
  const VersionVector t1 = WriteKey(0, 1, "x");
  // A client with session t1 beginning at site 2 blocks until site 2 has
  // applied R(T1), then sees the write.
  TxnOptions options;
  options.read_only = true;
  options.min_begin_version = t1;
  Transaction reader;
  ASSERT_TRUE(sites_[2]->BeginTransaction(options, &reader).ok());
  EXPECT_TRUE(reader.begin_version().DominatesOrEquals(t1));
  std::string value;
  ASSERT_TRUE(reader.Get(RecordKey{kTable, 1}, &value).ok());
  EXPECT_EQ(value, "x");
  VersionVector ignored;
  ASSERT_TRUE(sites_[2]->Commit(&reader, &ignored).ok());
}

TEST_F(SiteFixture, FreshnessWaitTimesOutWithoutAppliers) {
  // Appliers never started: site 1 can never reach site 0's version.
  const VersionVector t1 = WriteKey(0, 1, "x");
  TxnOptions options;
  options.read_only = true;
  options.min_begin_version = t1;
  Transaction reader;
  EXPECT_TRUE(sites_[1]->BeginTransaction(options, &reader).IsTimedOut());
}

// site_vv_wait_us times only begins that actually wait: a begin whose
// session minimum the site already dominates adds no sample, and one that
// blocks (here until the freshness timeout) adds exactly one.
TEST_F(SiteFixture, VvWaitTimesOnlyBeginsThatWait) {
  const metrics::Histogram* wait0 =
      registry_.GetHistogram("site_vv_wait_us", {{"site", "0"}});
  const metrics::Histogram* wait1 =
      registry_.GetHistogram("site_vv_wait_us", {{"site", "1"}});
  const VersionVector t1 = WriteKey(0, 1, "x");
  TxnOptions options;
  options.read_only = true;
  options.min_begin_version = t1;

  Transaction at_origin;  // site 0 committed t1 itself
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &at_origin).ok());
  EXPECT_EQ(wait0->recorder().count(), 0u);

  Transaction lagging;  // no appliers: site 1 never reaches t1
  EXPECT_TRUE(sites_[1]->BeginTransaction(options, &lagging).IsTimedOut());
  EXPECT_EQ(wait1->recorder().count(), 1u);
  EXPECT_EQ(wait0->recorder().count(), 0u);
}

TEST_F(SiteFixture, ReadOnlyCommitDoesNotBumpSvv) {
  TxnOptions options;
  options.read_only = true;
  Transaction reader;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &reader).ok());
  VersionVector out;
  ASSERT_TRUE(sites_[0]->Commit(&reader, &out).ok());
  EXPECT_EQ(sites_[0]->CurrentVersion()[0], 0u);
}

TEST_F(SiteFixture, EmptyWriteSetCommitIsNoop) {
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 1}};
  Transaction txn;
  ASSERT_TRUE(sites_[0]->BeginTransaction(options, &txn).ok());
  VersionVector out;
  ASSERT_TRUE(sites_[0]->Commit(&txn, &out).ok());
  EXPECT_EQ(sites_[0]->CurrentVersion()[0], 0u);
  // Locks were released.
  EXPECT_EQ(sites_[0]->engine().lock_manager().NumHeldLocks(), 0u);
}

TEST_F(SiteFixture, RecoveryReplaysUpdatesAndMastership) {
  StartAll();
  // Produce some history: writes at site 0, a remastering 0 -> 1, then a
  // write at site 1.
  WriteKey(0, 1, "a");
  WriteKey(0, 12, "b");
  VersionVector release_vv, grant_vv;
  ASSERT_TRUE(sites_[0]->Release({1}, 1, &release_vv).ok());
  ASSERT_TRUE(sites_[1]->Grant({1}, 0, release_vv, &grant_vv).ok());
  TxnOptions options;
  options.write_keys = {RecordKey{kTable, 12}};
  options.min_begin_version = grant_vv;
  Transaction txn;
  ASSERT_TRUE(sites_[1]->BeginTransaction(options, &txn).ok());
  ASSERT_TRUE(txn.Put(RecordKey{kTable, 12}, "b2").ok());
  VersionVector tvv;
  ASSERT_TRUE(sites_[1]->Commit(&txn, &tvv).ok());

  // A fresh site 2 replica recovers from the logs alone.
  SiteOptions fresh_options;
  fresh_options.site_id = 2;
  fresh_options.num_sites = 3;
  SiteManager fresh(fresh_options, partitioner_.get(), logs_.get(), nullptr,
                    nullptr, &registry_);
  ASSERT_TRUE(fresh.CreateTable(kTable).ok());
  std::unordered_map<PartitionId, SiteId> initial;
  for (PartitionId p = 0; p < 10; ++p) initial[p] = 0;
  std::unordered_map<PartitionId, SiteId> recovered;
  ASSERT_TRUE(fresh.RecoverFromLogs(initial, &recovered).ok());

  // Data recovered.
  std::string value;
  ASSERT_TRUE(fresh.engine().ReadLatest(RecordKey{kTable, 1}, &value).ok());
  EXPECT_EQ(value, "a");
  ASSERT_TRUE(fresh.engine().ReadLatest(RecordKey{kTable, 12}, &value).ok());
  EXPECT_EQ(value, "b2");
  // Mastership reconstructed from the release/grant markers.
  EXPECT_EQ(recovered[1], 1u);
  EXPECT_EQ(recovered[0], 0u);
  // The recovered svv matches the history it replayed.
  EXPECT_TRUE(fresh.CurrentVersion().DominatesOrEquals(tvv));
}

// Regression for the serialize-before-install ordering in Commit: the
// install loop consumes the write values by move, so the propagation
// payload must be captured first. If serialization ever slides back
// after the install loop, the logged record carries empty values and the
// deserialize check below fails.
TEST_F(SiteFixture, CommitLogsFullValuesDespiteMoveIntoVersionStore) {
  const std::string big(512, 'x');
  const VersionVector tvv = WriteKey(0, 1, big);
  log::LogCursor cursor(logs_->TopicFor(0));
  std::string raw;
  ASSERT_TRUE(cursor.TryNext(&raw).ok());
  log::LogRecord record;
  ASSERT_TRUE(log::LogRecord::Deserialize(raw, &record).ok());
  ASSERT_EQ(record.writes.size(), 1u);
  EXPECT_EQ(record.writes[0].value, big);
  EXPECT_EQ(record.tvv, tvv);
  EXPECT_GT(record.append_ts_us, 0u);
  // The moved-from value landed intact in the local version store too.
  std::string value;
  ASSERT_TRUE(sites_[0]->engine().Read(RecordKey{kTable, 1}, tvv, &value).ok());
  EXPECT_EQ(value, big);
}

// Regression for ApplyRefreshRecord taking the record by value: the
// applier moves each write value into the version store, which must not
// disturb what remote readers observe (an empty-install bug would leave
// "" here).
TEST_F(SiteFixture, RefreshInstallsFullValuesAfterApplierMove) {
  StartAll();
  const std::string big(512, 'y');
  const VersionVector tvv = WriteKey(0, 2, big);
  ASSERT_TRUE(WaitFor(1, tvv));
  std::string value;
  ASSERT_TRUE(sites_[1]
                  ->engine()
                  .Read(RecordKey{kTable, 2}, sites_[1]->CurrentVersion(),
                        &value)
                  .ok());
  EXPECT_EQ(value, big);
}

// FreshnessProbe must agree with the CurrentVersion()-based predicate it
// replaced in read routing: same domination verdict, same element total,
// without handing out a vector copy.
TEST_F(SiteFixture, FreshnessProbeMatchesCurrentVersionSemantics) {
  WriteKey(0, 1, "a");
  WriteKey(0, 2, "b");
  const VersionVector svv = sites_[0]->CurrentVersion();
  uint64_t total = 0;
  EXPECT_TRUE(sites_[0]->FreshnessProbe(svv, &total));
  EXPECT_EQ(total, svv.Total());
  VersionVector ahead = svv;
  ahead[1] = ahead[1] + 1;
  total = 0;
  EXPECT_FALSE(sites_[0]->FreshnessProbe(ahead, &total));
  EXPECT_EQ(total, svv.Total());
  // The total out-param is optional.
  EXPECT_TRUE(sites_[0]->FreshnessProbe(VersionVector(3), nullptr));
}

}  // namespace
}  // namespace dynamast::site
