// Tests for the distributed site-selector extension (paper Appendix I):
// replica selectors route single-sited write sets locally, fall back to
// the master selector for remastering, and stale caches are caught by the
// data sites' mastership checks.

#include "selector/replica_selector.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/partitioner.h"
#include "log/durable_log.h"

namespace dynamast::selector {
namespace {

constexpr TableId kTable = 0;

class ReplicaSelectorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    partitioner_ = std::make_unique<RangePartitioner>(10, 10);
    logs_ = std::make_unique<log::LogManager>(2);
    for (uint32_t i = 0; i < 2; ++i) {
      site::SiteOptions options;
      options.site_id = i;
      options.num_sites = 2;
      options.read_op_cost = options.write_op_cost = options.apply_op_cost =
          std::chrono::microseconds(0);
      sites_.push_back(std::make_unique<site::SiteManager>(
          options, partitioner_.get(), logs_.get(), nullptr, nullptr,
          &registry_));
      ASSERT_TRUE(sites_.back()->CreateTable(kTable).ok());
    }
    SelectorOptions options;
    options.num_sites = 2;
    options.metrics = &registry_;
    master_ = std::make_unique<SiteSelector>(
        options,
        std::vector<site::SiteManager*>{sites_[0].get(), sites_[1].get()},
        partitioner_.get(), nullptr);
    // Partitions 0-4 at site 0, 5-9 at site 1.
    std::vector<SiteId> placement = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    master_->InstallPlacement(placement);
    for (auto& s : sites_) s->Start();
    replica_ = std::make_unique<ReplicaSiteSelector>(
        master_.get(), partitioner_.get(), &registry_);
  }

  void TearDown() override {
    logs_->CloseAll();
    for (auto& s : sites_) s->Stop();
  }

  uint64_t Routes(const char* kind) const {
    return registry_.CounterValue("replica_selector_routes_total",
                                  {{"kind", kind}});
  }
  uint64_t Syncs() const {
    return registry_.CounterValue("replica_selector_syncs_total");
  }

  metrics::Registry registry_;
  std::unique_ptr<RangePartitioner> partitioner_;
  std::unique_ptr<log::LogManager> logs_;
  std::vector<std::unique_ptr<site::SiteManager>> sites_;
  std::unique_ptr<SiteSelector> master_;
  std::unique_ptr<ReplicaSiteSelector> replica_;
};

TEST_F(ReplicaSelectorFixture, RoutesSingleSitedLocally) {
  RouteResult route;
  Status s = replica_->TryRouteWrite(
      1, {RecordKey{kTable, 5}, RecordKey{kTable, 15}}, VersionVector(2),
      &route);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(route.site, 0u);
  EXPECT_FALSE(route.remastered);
  EXPECT_EQ(Routes("local"), 1u);
  EXPECT_EQ(Routes("fallback"), 0u);
  // The master selector was not involved.
  EXPECT_EQ(
      registry_.CounterValue("selector_routes_total", {{"kind", "write"}}),
      0u);
}

TEST_F(ReplicaSelectorFixture, FallsBackForDistributedWriteSets) {
  RouteResult route;
  Status s = replica_->TryRouteWrite(
      1, {RecordKey{kTable, 5}, RecordKey{kTable, 55}}, VersionVector(2),
      &route);
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(Routes("fallback"), 1u);
  // The master handles it (and remasters).
  ASSERT_TRUE(master_
                  ->RouteWrite(1, {RecordKey{kTable, 5}, RecordKey{kTable, 55}},
                               VersionVector(2), &route)
                  .ok());
  EXPECT_TRUE(route.remastered);
}

TEST_F(ReplicaSelectorFixture, StaleCacheCaughtByMastershipCheck) {
  // Remaster partition 0 away via the master while the replica's cache
  // still says site 0.
  RouteResult route;
  ASSERT_TRUE(master_
                  ->RouteWrite(1, {RecordKey{kTable, 5}, RecordKey{kTable, 55}},
                               VersionVector(2), &route)
                  .ok());
  const SiteId new_owner = route.site;
  const SiteId stale_owner = 1 - new_owner;

  RouteResult stale_route;
  ASSERT_TRUE(replica_
                  ->TryRouteWrite(2, {RecordKey{kTable, 5}}, VersionVector(2),
                                  &stale_route)
                  .ok());
  if (stale_route.site == stale_owner) {
    // The stale route sends the transaction to the wrong site; the data
    // site rejects it (Appendix I: "the site manager must abort the
    // transaction if it no longer masters a data item").
    site::TxnOptions options;
    options.write_keys = {RecordKey{kTable, 5}};
    site::Transaction txn;
    EXPECT_TRUE(sites_[stale_route.site]
                    ->BeginTransaction(options, &txn)
                    .IsNotMaster());
  }
  // After a sync the replica routes to the new owner.
  replica_->Sync();
  RouteResult fresh_route;
  ASSERT_TRUE(replica_
                  ->TryRouteWrite(2, {RecordKey{kTable, 5}}, VersionVector(2),
                                  &fresh_route)
                  .ok());
  EXPECT_EQ(fresh_route.site, new_owner);
}

TEST_F(ReplicaSelectorFixture, ReadRoutingDelegates) {
  SiteId site = kInvalidSite;
  ASSERT_TRUE(replica_->RouteRead(1, VersionVector(), &site).ok());
  EXPECT_LT(site, 2u);
  EXPECT_EQ(
      registry_.CounterValue("selector_routes_total", {{"kind", "read"}}), 1u);
}

TEST_F(ReplicaSelectorFixture, SyncCountsTracked) {
  const uint64_t before = Syncs();
  replica_->Sync();
  EXPECT_EQ(Syncs(), before + 1);
}

TEST_F(ReplicaSelectorFixture, EmptyWriteSetRejected) {
  RouteResult route;
  EXPECT_TRUE(replica_->TryRouteWrite(1, {}, VersionVector(2), &route)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace dynamast::selector
