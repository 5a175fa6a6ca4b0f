// Tests for the site selector: partition map locking, access statistics
// (sampling, co-access, expiry), the remastering strategy features
// (Eq. 2-8), and end-to-end routing/remastering (Algorithm 1).

#include "selector/site_selector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "common/partitioner.h"
#include "log/durable_log.h"
#include "selector/access_statistics.h"
#include "selector/partition_map.h"
#include "selector/strategy.h"

namespace dynamast::selector {
namespace {

constexpr TableId kTable = 0;
using Clock = std::chrono::steady_clock;

// ---- PartitionMap ---------------------------------------------------------

TEST(PartitionMapTest, InitialMaster) {
  PartitionMap map(5);
  for (PartitionId p = 0; p < 5; ++p) EXPECT_EQ(map.MasterOfLocked(p), 0u);
  for (PartitionId p = 0; p < 5; ++p) map.SetMaster(p, 2);
  for (PartitionId p = 0; p < 5; ++p) EXPECT_EQ(map.MasterOfLocked(p), 2u);
}

TEST(PartitionMapTest, SetMaster) {
  PartitionMap map(5);
  map.SetMaster(3, 1);
  EXPECT_EQ(map.MasterOfLocked(3), 1u);
  EXPECT_EQ(map.MasterOfLocked(2), 0u);
}

TEST(PartitionMapTest, MasterCounts) {
  PartitionMap map(6);
  map.SetMaster(0, 1);
  map.SetMaster(1, 1);
  map.SetMaster(2, 2);
  auto counts = map.MasterCounts(3);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(PartitionMapTest, SharedLocksAllowConcurrentReaders) {
  // The second reader must be a separate thread: recursive lock_shared
  // from one thread is UB on std::shared_mutex (and the lock-order
  // checker flags it as a potential self-deadlock).
  PartitionMap map(2);
  map.LockShared(0);
  std::atomic<bool> got_shared{false};
  std::thread reader([&] {
    map.LockShared(0);  // concurrent reader does not block
    got_shared.store(true);
    EXPECT_EQ(map.MasterOf(0), 0u);
    map.UnlockShared(0);
  });
  reader.join();
  EXPECT_TRUE(got_shared.load());
  map.UnlockShared(0);
}

TEST(PartitionMapTest, ExclusiveLockExcludesReaders) {
  PartitionMap map(1);
  map.LockExclusive(0);
  std::atomic<bool> got_shared{false};
  std::thread reader([&] {
    map.LockShared(0);
    got_shared.store(true);
    map.UnlockShared(0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got_shared.load());
  map.UnlockExclusive(0);
  reader.join();
  EXPECT_TRUE(got_shared.load());
}

// ---- AccessStatistics -------------------------------------------------------

AccessStatistics::Options StatsOptions() {
  AccessStatistics::Options o;
  o.inter_txn_window = std::chrono::milliseconds(100);
  o.history_capacity = 100;
  o.sample_ttl = std::chrono::hours(1);
  return o;
}

TEST(AccessStatisticsTest, WriteFrequenciesAccumulate) {
  AccessStatistics stats(StatsOptions(), 2, {0, 0, 1, 1});
  const auto now = Clock::now();
  stats.RecordWriteSet(1, {0, 1}, now);
  stats.RecordWriteSet(1, {2}, now);
  EXPECT_EQ(stats.PartitionWriteCount(0), 1u);
  EXPECT_EQ(stats.PartitionWriteCount(2), 1u);
  EXPECT_EQ(stats.TotalWriteCount(), 3u);
  EXPECT_DOUBLE_EQ(stats.SiteWriteFraction(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.SiteWriteFraction(1), 1.0 / 3.0);
}

TEST(AccessStatisticsTest, IntraCoAccessProbability) {
  AccessStatistics stats(StatsOptions(), 2, {0, 0, 0, 0});
  const auto now = Clock::now();
  stats.RecordWriteSet(1, {0, 1}, now);
  stats.RecordWriteSet(1, {0, 1}, now);
  stats.RecordWriteSet(1, {0, 2}, now);
  auto co = stats.IntraCoAccess(0);
  double p1 = 0, p2 = 0;
  for (const auto& [d2, p] : co) {
    if (d2 == 1) p1 = p;
    if (d2 == 2) p2 = p;
  }
  EXPECT_NEAR(p1, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(p2, 1.0 / 3.0, 1e-9);
}

TEST(AccessStatisticsTest, InterCoAccessWithinWindow) {
  AccessStatistics stats(StatsOptions(), 2, {0, 0, 0});
  const auto now = Clock::now();
  stats.RecordWriteSet(1, {0}, now);
  stats.RecordWriteSet(1, {1}, now + std::chrono::milliseconds(10));
  auto co = stats.InterCoAccess(0);
  ASSERT_FALSE(co.empty());
  EXPECT_EQ(co[0].first, 1u);
}

TEST(AccessStatisticsTest, InterCoAccessOutsideWindowIgnored) {
  AccessStatistics stats(StatsOptions(), 2, {0, 0, 0});
  const auto now = Clock::now();
  stats.RecordWriteSet(1, {0}, now);
  stats.RecordWriteSet(1, {1}, now + std::chrono::seconds(10));
  EXPECT_TRUE(stats.InterCoAccess(0).empty());
}

TEST(AccessStatisticsTest, DifferentClientsDoNotCorrelateInterTxn) {
  AccessStatistics stats(StatsOptions(), 2, {0, 0, 0});
  const auto now = Clock::now();
  stats.RecordWriteSet(1, {0}, now);
  stats.RecordWriteSet(2, {1}, now + std::chrono::milliseconds(1));
  EXPECT_TRUE(stats.InterCoAccess(0).empty());
}

TEST(AccessStatisticsTest, HistoryOverflowExpiresOldest) {
  auto options = StatsOptions();
  options.history_capacity = 2;
  AccessStatistics stats(options, 2, {0, 0, 0});
  const auto now = Clock::now();
  stats.RecordWriteSet(1, {0}, now);
  stats.RecordWriteSet(1, {1}, now);
  stats.RecordWriteSet(1, {2}, now);  // evicts the {0} sample
  EXPECT_EQ(stats.PartitionWriteCount(0), 0u);
  EXPECT_EQ(stats.PartitionWriteCount(2), 1u);
  EXPECT_EQ(stats.TotalWriteCount(), 2u);
  EXPECT_EQ(stats.HistorySize(), 2u);
}

TEST(AccessStatisticsTest, TtlExpiryDecrementsCoAccess) {
  auto options = StatsOptions();
  options.sample_ttl = std::chrono::milliseconds(50);
  AccessStatistics stats(options, 2, {0, 0});
  const auto t0 = Clock::now();
  stats.RecordWriteSet(1, {0, 1}, t0);
  EXPECT_FALSE(stats.IntraCoAccess(0).empty());
  // A much later sample expires the first one.
  stats.RecordWriteSet(1, {1}, t0 + std::chrono::seconds(1));
  EXPECT_TRUE(stats.IntraCoAccess(0).empty());
  EXPECT_EQ(stats.PartitionWriteCount(0), 0u);
}

TEST(AccessStatisticsTest, OnRemasterMovesSiteTotals) {
  AccessStatistics stats(StatsOptions(), 2, {0, 0});
  stats.RecordWriteSet(1, {0}, Clock::now());
  EXPECT_DOUBLE_EQ(stats.SiteWriteFraction(0), 1.0);
  stats.OnRemaster(0, 1);
  EXPECT_DOUBLE_EQ(stats.SiteWriteFraction(0), 0.0);
  EXPECT_DOUBLE_EQ(stats.SiteWriteFraction(1), 1.0);
  EXPECT_EQ(stats.MasterMirror(0), 1u);
}

// ---- RemasterStrategy --------------------------------------------------------

TEST(StrategyTest, BalanceDistanceZeroWhenBalanced) {
  EXPECT_DOUBLE_EQ(RemasterStrategy::BalanceDistance({0.25, 0.25, 0.25, 0.25}),
                   0.0);
}

TEST(StrategyTest, BalanceDistanceGrowsWithImbalance) {
  const double mild = RemasterStrategy::BalanceDistance({0.3, 0.2, 0.25, 0.25});
  const double severe = RemasterStrategy::BalanceDistance({1.0, 0.0, 0.0, 0.0});
  EXPECT_GT(severe, mild);
  EXPECT_GT(mild, 0.0);
}

// A strategy with only the balance feature must spread hot partitions away
// from the loaded site.
TEST(StrategyTest, BalanceOnlySpreadsLoad) {
  StrategyWeights weights{/*balance=*/1.0, /*delay=*/0.0, /*intra=*/0.0,
                          /*inter=*/0.0};
  RemasterStrategy strategy(weights, 2);
  AccessStatistics stats(StatsOptions(), 2, {0, 0, 0, 0});
  const auto now = Clock::now();
  // All load on site 0's partitions.
  for (int i = 0; i < 10; ++i) {
    stats.RecordWriteSet(1, {0}, now);
    stats.RecordWriteSet(1, {1}, now);
  }
  RemasterDecisionInput input;
  input.write_partitions = {0};
  input.current_masters = {0};
  input.site_versions = {VersionVector(2), VersionVector(2)};
  EXPECT_EQ(strategy.ChooseSite(input, stats), 1u);
}

// With only the intra-transaction feature, co-accessed partitions are
// pulled to where their partner masters.
TEST(StrategyTest, IntraFeatureCoLocates) {
  StrategyWeights weights{0.0, 0.0, /*intra=*/1.0, 0.0};
  RemasterStrategy strategy(weights, 3);
  // Partition 1 masters at site 2; partition 0 frequently co-accessed
  // with partition 1.
  AccessStatistics stats(StatsOptions(), 3, {0, 2, 1});
  const auto now = Clock::now();
  for (int i = 0; i < 5; ++i) stats.RecordWriteSet(1, {0, 1}, now);

  RemasterDecisionInput input;
  input.write_partitions = {0};
  input.current_masters = {0};
  input.site_versions = {VersionVector(3), VersionVector(3), VersionVector(3)};
  std::vector<SiteScore> scores;
  strategy.ScoreSites(input, stats, &scores);
  // Moving 0 to site 2 co-locates it with 1: positive intra score there.
  EXPECT_GT(scores[2].f_intra_txn, 0.0);
  // Keeping it at site 0 keeps them split: no improvement.
  EXPECT_LE(scores[0].f_intra_txn, 0.0);
  EXPECT_EQ(strategy.ChooseSite(input, stats), 2u);
}

// The refresh-delay feature penalizes lagging destinations.
TEST(StrategyTest, DelayFeaturePenalizesLaggingSite) {
  StrategyWeights weights{0.0, /*delay=*/1.0, 0.0, 0.0};
  RemasterStrategy strategy(weights, 3);
  AccessStatistics stats(StatsOptions(), 3, {1, 1});
  RemasterDecisionInput input;
  input.write_partitions = {0};
  input.current_masters = {1};
  input.client_session = VersionVector(std::vector<uint64_t>{0, 0, 0});
  // Site 0 is caught up with the source (site 1); site 2 lags.
  input.site_versions = {
      VersionVector(std::vector<uint64_t>{5, 9, 0}),
      VersionVector(std::vector<uint64_t>{5, 9, 0}),   // source
      VersionVector(std::vector<uint64_t>{0, 0, 0}),   // laggard
  };
  std::vector<SiteScore> scores;
  strategy.ScoreSites(input, stats, &scores);
  EXPECT_GT(scores[2].f_refresh_delay, scores[0].f_refresh_delay);
  // The laggard (site 2) must not be chosen; site 0 and the source tie at
  // zero delay and the tie-break keeps the write set at its current
  // master (fewest transfers).
  EXPECT_NE(strategy.ChooseSite(input, stats), 2u);
}

TEST(StrategyTest, SessionVectorContributesToDelay) {
  StrategyWeights weights{0.0, 1.0, 0.0, 0.0};
  RemasterStrategy strategy(weights, 2);
  AccessStatistics stats(StatsOptions(), 2, {1});
  RemasterDecisionInput input;
  input.write_partitions = {0};
  input.current_masters = {1};
  // Client has seen more than any site has applied: both sites lag it.
  input.client_session = VersionVector(std::vector<uint64_t>{10, 10});
  input.site_versions = {VersionVector(std::vector<uint64_t>{4, 4}),
                         VersionVector(std::vector<uint64_t>{9, 9})};
  std::vector<SiteScore> scores;
  strategy.ScoreSites(input, stats, &scores);
  EXPECT_GT(scores[0].f_refresh_delay, scores[1].f_refresh_delay);
}

TEST(StrategyTest, TieBreakPrefersFewestTransfers) {
  StrategyWeights weights{0.0, 0.0, 0.0, 0.0};  // all features off
  RemasterStrategy strategy(weights, 3);
  AccessStatistics stats(StatsOptions(), 3, {1, 1, 2});
  RemasterDecisionInput input;
  input.write_partitions = {0, 1, 2};
  input.current_masters = {1, 1, 2};
  input.site_versions = {VersionVector(3), VersionVector(3), VersionVector(3)};
  // Site 1 already masters two of the three partitions.
  EXPECT_EQ(strategy.ChooseSite(input, stats), 1u);
}

// ---- SiteSelector end-to-end ------------------------------------------------

class SelectorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    partitioner_ = std::make_unique<RangePartitioner>(10, 10);
    logs_ = std::make_unique<log::LogManager>(3);
    for (uint32_t i = 0; i < 3; ++i) {
      site::SiteOptions options;
      options.site_id = i;
      options.num_sites = 3;
      options.read_op_cost = options.write_op_cost = options.apply_op_cost =
          std::chrono::microseconds(0);
      options.freshness_timeout = std::chrono::milliseconds(2000);
      sites_.push_back(std::make_unique<site::SiteManager>(
          options, partitioner_.get(), logs_.get(), nullptr, nullptr,
          &registry_));
      ASSERT_TRUE(sites_.back()->CreateTable(kTable).ok());
    }
    SelectorOptions options;
    options.metrics = &registry_;
    options.sample_rate = 1.0;
    options.weights = StrategyWeights{1.0, 0.5, 1.0, 1.0};
    selector_ = std::make_unique<SiteSelector>(
        options, std::vector<site::SiteManager*>{sites_[0].get(),
                                                 sites_[1].get(),
                                                 sites_[2].get()},
        partitioner_.get(), nullptr);
    // Round-robin initial placement.
    std::vector<SiteId> placement(10);
    for (PartitionId p = 0; p < 10; ++p) placement[p] = p % 3;
    selector_->InstallPlacement(placement);
    for (auto& s : sites_) s->Start();
  }

  void TearDown() override {
    logs_->CloseAll();
    for (auto& s : sites_) s->Stop();
  }

  uint64_t Remastered() const {
    return registry_.CounterValue("selector_remaster_total");
  }

  metrics::Registry registry_;
  std::unique_ptr<RangePartitioner> partitioner_;
  std::unique_ptr<log::LogManager> logs_;
  std::vector<std::unique_ptr<site::SiteManager>> sites_;
  std::unique_ptr<SiteSelector> selector_;
};

TEST_F(SelectorFixture, SingleSitedWriteSetRoutesWithoutRemastering) {
  RouteResult route;
  ASSERT_TRUE(selector_
                  ->RouteWrite(1, {RecordKey{kTable, 5}, RecordKey{kTable, 7}},
                               VersionVector(3), &route)
                  .ok());
  EXPECT_EQ(route.site, 0u);  // partition 0 -> site 0
  EXPECT_FALSE(route.remastered);
  EXPECT_EQ(Remastered(), 0u);
}

TEST_F(SelectorFixture, MultiMasterWriteSetTriggersRemastering) {
  RouteResult route;
  // Partitions 0 (site 0) and 1 (site 1).
  ASSERT_TRUE(selector_
                  ->RouteWrite(1, {RecordKey{kTable, 5}, RecordKey{kTable, 15}},
                               VersionVector(3), &route)
                  .ok());
  EXPECT_TRUE(route.remastered);
  EXPECT_EQ(route.partitions_moved, 1u);
  // Both partitions now master at the chosen site, at both layers.
  EXPECT_EQ(selector_->partition_map().MasterOfLocked(0), route.site);
  EXPECT_EQ(selector_->partition_map().MasterOfLocked(1), route.site);
  EXPECT_TRUE(sites_[route.site]->IsMasterOf(0));
  EXPECT_TRUE(sites_[route.site]->IsMasterOf(1));

  // The returned minimum version lets the transaction begin at the
  // destination.
  site::TxnOptions txn_options;
  txn_options.write_keys = {RecordKey{kTable, 5}, RecordKey{kTable, 15}};
  txn_options.min_begin_version = route.min_begin_version;
  site::Transaction txn;
  ASSERT_TRUE(sites_[route.site]->BeginTransaction(txn_options, &txn).ok());
  sites_[route.site]->Abort(&txn);
}

TEST_F(SelectorFixture, SecondTransactionAmortizesRemastering) {
  RouteResult first, second;
  std::vector<RecordKey> keys = {RecordKey{kTable, 5}, RecordKey{kTable, 15}};
  ASSERT_TRUE(selector_->RouteWrite(1, keys, VersionVector(3), &first).ok());
  ASSERT_TRUE(selector_->RouteWrite(2, keys, VersionVector(3), &second).ok());
  EXPECT_TRUE(first.remastered);
  EXPECT_FALSE(second.remastered);
  EXPECT_EQ(second.site, first.site);
}

TEST_F(SelectorFixture, ConcurrentConflictingRoutesSerialize) {
  // Many threads route overlapping multi-partition write sets; exactly-one
  // master per partition must hold throughout, and every route must land
  // where all its partitions master.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const uint64_t a = (t + i) % 10, b = (t + i + 1) % 10;
        RouteResult route;
        Status s = selector_->RouteWrite(
            t + 1,
            {RecordKey{kTable, a * 10 + 1}, RecordKey{kTable, b * 10 + 1}},
            VersionVector(3), &route);
        if (!s.ok()) {
          failures.fetch_add(1);
          continue;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Invariant: each partition has exactly one mastering site, equal to the
  // selector's map.
  for (PartitionId p = 0; p < 10; ++p) {
    const SiteId owner = selector_->partition_map().MasterOfLocked(p);
    int master_count = 0;
    for (SiteId s = 0; s < 3; ++s) {
      if (sites_[s]->IsMasterOf(p)) {
        ++master_count;
        EXPECT_EQ(s, owner);
      }
    }
    EXPECT_EQ(master_count, 1);
  }
}

TEST_F(SelectorFixture, ReadRoutingHonoursSessionFreshness) {
  // Commit at site 0; a client session pinned to that commit must not be
  // routed to a site that has not applied it... unless all are fresh,
  // which replication soon makes true. Either way, beginning at the routed
  // site with the session version succeeds.
  site::TxnOptions w;
  w.write_keys = {RecordKey{kTable, 1}};
  site::Transaction txn;
  ASSERT_TRUE(sites_[0]->BeginTransaction(w, &txn).ok());
  ASSERT_TRUE(txn.Put(RecordKey{kTable, 1}, "x").ok());
  VersionVector session;
  ASSERT_TRUE(sites_[0]->Commit(&txn, &session).ok());

  for (int i = 0; i < 10; ++i) {
    SiteId site = kInvalidSite;
    ASSERT_TRUE(selector_->RouteRead(1, session, &site).ok());
    ASSERT_LT(site, 3u);
    site::TxnOptions r;
    r.read_only = true;
    r.min_begin_version = session;
    site::Transaction reader;
    ASSERT_TRUE(sites_[site]->BeginTransaction(r, &reader).ok());
    EXPECT_TRUE(reader.begin_version().DominatesOrEquals(session));
    VersionVector ignored;
    ASSERT_TRUE(sites_[site]->Commit(&reader, &ignored).ok());
  }
}

TEST_F(SelectorFixture, ReadRoutingSpreadsLoad) {
  // With an empty session every site qualifies; the random choice should
  // hit more than one site over many routes.
  std::set<SiteId> seen;
  for (int i = 0; i < 60; ++i) {
    SiteId site = kInvalidSite;
    ASSERT_TRUE(selector_->RouteRead(1, VersionVector(), &site).ok());
    seen.insert(site);
  }
  EXPECT_GE(seen.size(), 2u);
}

TEST_F(SelectorFixture, EmptyWriteSetRejected) {
  RouteResult route;
  EXPECT_TRUE(selector_->RouteWrite(1, {}, VersionVector(3), &route)
                  .IsInvalidArgument());
}

TEST_F(SelectorFixture, CountersTrackRouting) {
  RouteResult route;
  ASSERT_TRUE(selector_
                  ->RouteWrite(1, {RecordKey{kTable, 5}}, VersionVector(3),
                               &route)
                  .ok());
  ASSERT_TRUE(selector_
                  ->RouteWrite(1, {RecordKey{kTable, 5}, RecordKey{kTable, 15}},
                               VersionVector(3), &route)
                  .ok());
  const uint64_t write_routes =
      registry_.CounterValue("selector_routes_total", {{"kind", "write"}});
  EXPECT_EQ(write_routes, 2u);
  EXPECT_EQ(Remastered(), 1u);
  EXPECT_NEAR(static_cast<double>(Remastered()) / write_routes, 0.5, 1e-9);
}

}  // namespace
}  // namespace dynamast::selector
