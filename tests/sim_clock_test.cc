// Tests for the simulated-cost clock (common/sim_clock): charge/settle
// accounting, the per-thread overshoot carry, the overshoot histogram, the
// network's one-sleep round trip, and the rule that a transaction's
// charged work lands before its commit publishes.

#include "common/sim_clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "common/scheduler.h"
#include "core/site_txn_context.h"
#include "log/durable_log.h"
#include "net/sim_network.h"
#include "site/site_manager.h"

namespace dynamast {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// Runs `body` on a fresh thread: its debt and carry start at zero.
template <typename Fn>
void OnFreshThread(Fn body) {
  std::thread t(body);
  t.join();
}

uint64_t HistogramCount(metrics::Registry& registry, const std::string& name) {
  return registry.GetHistogram(name)->recorder().count();
}

TEST(SimClockTest, BackToBackSettlesDoNotAccumulateOvershoot) {
  // One sleep_for per 50 us charge oversleeps each by the timer slack
  // (~50-70 us on Linux): 200 of them take ~20 ms. With the carry, the
  // total stays within kMaxCarry of the 10 ms actually charged.
  //
  // A stall longer than kMaxCarry (the thread or its vCPU descheduled) is
  // not paid back by design, and one multi-millisecond stall is enough to
  // push a run past 15 ms (about 1 run in 15 on a shared 4-vCPU VM). A
  // stall only adds time, so the upper bound holds if any of three runs
  // meets it; every run must still pay the full 10 ms.
  uint64_t best = UINT64_MAX;
  for (int attempt = 0; attempt < 3 && best >= 15000u; ++attempt) {
    OnFreshThread([&best] {
      metrics::Registry registry;
      const sim::SimClock clock(&registry);
      Stopwatch watch;
      for (int i = 0; i < 200; ++i) clock.Settle(microseconds(50));
      const uint64_t elapsed = watch.ElapsedMicros();
      EXPECT_GE(elapsed, 10000u);
      best = std::min(best, elapsed);
    });
  }
  EXPECT_LT(best, 15000u);
}

TEST(SimClockTest, BlockedTimeIsNeverCarried) {
  OnFreshThread([] {
    metrics::Registry registry;
    const sim::SimClock clock(&registry);
    std::mutex mu;
    std::condition_variable cv;
    auto block_elsewhere = [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, milliseconds(5));
    };

    // Nothing carried yet: 5 ms blocked outside the clock do not pay for
    // any of the next charge.
    block_elsewhere();
    Stopwatch watch;
    clock.Settle(milliseconds(1));
    EXPECT_GE(watch.ElapsedMicros(), 1000u);

    // After a sleep, only that sleep's own (capped) overrun is carried.
    clock.Settle(microseconds(200));
    block_elsewhere();
    watch.Restart();
    clock.Settle(milliseconds(1));
    EXPECT_GE(watch.Elapsed(), milliseconds(1) - sim::kMaxCarry);
  });
}

TEST(SimClockTest, ChargeAloneNeverSleeps) {
  OnFreshThread([] {
    metrics::Registry registry;
    const sim::SimClock clock(&registry);
    Stopwatch watch;
    for (int i = 0; i < 100; ++i) sim::Charge(milliseconds(1));
    EXPECT_LT(watch.ElapsedMicros(), 10000u);
    EXPECT_EQ(HistogramCount(registry, "sim_sleep_overshoot_us"), 0u);

    // The whole debt is paid by one sleep, and then it is gone.
    watch.Restart();
    clock.Settle();
    EXPECT_GE(watch.ElapsedMicros(), 100000u);
    EXPECT_EQ(HistogramCount(registry, "sim_sleep_overshoot_us"), 1u);
    watch.Restart();
    clock.Settle();
    EXPECT_LT(watch.ElapsedMicros(), 10000u);
  });
}

TEST(SimClockTest, OvershootHistogramSamplesEachSleep) {
  OnFreshThread([] {
    metrics::Registry registry;
    const sim::SimClock clock(&registry);
    clock.Settle();  // nothing owed: no sleep, no sample
    for (int i = 0; i < 3; ++i) clock.Settle(milliseconds(1));
    EXPECT_EQ(HistogramCount(registry, "sim_sleep_overshoot_us"), 3u);
  });
}

// ---- SimulatedNetwork over the clock ----------------------------------

TEST(SimClockNetworkTest, RoundTripIsTwoMessagesOneSleep) {
  OnFreshThread([] {
    metrics::Registry registry;
    net::SimulatedNetwork::Options options;
    options.one_way_latency = milliseconds(1);
    options.charge_delays = true;
    net::SimulatedNetwork network(options, &registry);
    Stopwatch watch;
    network.RoundTrip(net::TrafficClass::kClientRequest, 100, 50);
    EXPECT_GE(watch.ElapsedMicros(), 2000u);
    EXPECT_EQ(registry.CounterValue("net_messages_total",
                                    {{"class", "client_request"}}),
              2u);
    EXPECT_EQ(registry.CounterValue("net_bytes_total",
                                    {{"class", "client_request"}}),
              150u);
    EXPECT_EQ(HistogramCount(registry, "sim_sleep_overshoot_us"), 1u);
  });
}

TEST(SimClockNetworkTest, ConcurrentRoundTripsSleepOnceForTheSlowest) {
  // Three round trips of different sizes and callee service times.
  const net::SimulatedNetwork::Call calls[] = {
      {100, 50, microseconds(0)},
      {2000, 10, microseconds(500)},
      {300, 3000, milliseconds(2)},
  };
  for (const bool charge : {true, false}) {
    OnFreshThread([&calls, charge] {
      metrics::Registry registry;
      net::SimulatedNetwork::Options options;
      options.one_way_latency = milliseconds(1);
      options.charge_delays = charge;
      net::SimulatedNetwork network(options, &registry);
      sim::Charge(microseconds(300));  // the caller's own pending work
      Stopwatch watch;
      network.ConcurrentRoundTrips(net::TrafficClass::kCoordination, calls);
      const uint64_t elapsed = watch.ElapsedMicros();
      EXPECT_EQ(registry.CounterValue("net_messages_total",
                                      {{"class", "coordination"}}),
                6u);
      EXPECT_EQ(registry.CounterValue("net_bytes_total",
                                      {{"class", "coordination"}}),
                100u + 50u + 2000u + 10u + 300u + 3000u);
      EXPECT_EQ(registry.CounterValue("net_messages_total",
                                      {{"class", "client_request"}}),
                0u);
      // One sleep either way: with delays charged it covers the slowest
      // round trip (2 x 1 ms + 2 ms service) and the debt; without, only
      // the debt.
      EXPECT_EQ(HistogramCount(registry, "sim_sleep_overshoot_us"), 1u);
      if (charge) {
        EXPECT_GE(elapsed, 4300u);
      } else {
        EXPECT_GE(elapsed, 300u);
        EXPECT_LT(elapsed, 4300u);  // charged delays would sleep this long
      }
    });
  }
}

TEST(SimClockNetworkTest, RoundTripDeliversBothLegs) {
#if !DYNAMAST_SCHED_FUZZ_ENABLED
  GTEST_SKIP() << "built without DYNAMAST_SCHED_FUZZ (no delivery hooks)";
#else
  sched::ResetIdentities();
  sched::StartExplore(sched::ExploreOptions{});
  std::thread sender([] {
    sched::ThreadGuard guard("sim_clock/sender");
    metrics::Registry registry;
    net::SimulatedNetwork::Options options;
    options.one_way_latency = microseconds(100);
    net::SimulatedNetwork network(options, &registry);
    network.RoundTrip(net::TrafficClass::kCoordination, 64, 64);
  });
  sender.join();
  const sched::Trace trace = sched::StopExplore().trace;
  size_t deliveries = 0;
  for (const sched::TraceEntry& e : trace.entries) {
    if (e.kind == sched::OpKind::kNetDeliver) ++deliveries;
  }
  EXPECT_EQ(deliveries, 2u);
#endif
}

TEST(SimClockNetworkTest, SendSettlesTheSendersDebtFirst) {
  OnFreshThread([] {
    metrics::Registry registry;
    net::SimulatedNetwork::Options options;
    options.charge_delays = false;  // no network delay; the debt still lands
    net::SimulatedNetwork network(options, &registry);
    const sim::SimClock clock(&registry);
    sim::Charge(milliseconds(2));
    Stopwatch watch;
    network.Send(net::TrafficClass::kPropagation, 10);
    EXPECT_GE(watch.ElapsedMicros(), 2000u);
    watch.Restart();
    clock.Settle();  // already paid: nothing left to sleep
    EXPECT_LT(watch.ElapsedMicros(), 1000u);
  });
}

// ---- Settle before commit ------------------------------------------------

// A transaction's charged reads must finish before its commit publishes.
// The debt (3 reads x 150 us) is kept small so that nothing but the settle
// inside Commit can land it in time: a settle deferred to the context's
// destruction, after Commit, would publish ~450 us early.
TEST(SimClockCommitTest, ChargedReadsLandBeforeCommitPublishes) {
  constexpr TableId kTable = 0;
  RangePartitioner partitioner(10, 10);
  log::LogManager logs(1);
  site::SiteOptions options;
  options.site_id = 0;
  options.num_sites = 1;
  options.read_op_cost = microseconds(150);
  options.write_op_cost = options.apply_op_cost = microseconds(0);
  options.freshness_timeout = std::chrono::seconds(5);
  metrics::Registry registry;
  site::SiteManager site(options, &partitioner, &logs, nullptr, nullptr,
                         &registry);
  ASSERT_TRUE(site.CreateTable(kTable).ok());
  for (uint64_t key = 0; key < 3; ++key) {
    ASSERT_TRUE(site.LoadRecord(RecordKey{kTable, key}, "v").ok());
  }
  site.SetMasterOf(0, true);

  std::chrono::steady_clock::time_point begin_time;
  std::chrono::steady_clock::time_point visible_time;
  std::thread observer([&] {
    VersionVector target(1);
    target[0] = 1;
    ASSERT_TRUE(site.WaitForVersion(target).ok());
    visible_time = std::chrono::steady_clock::now();
  });
  std::thread writer([&] {
    site::TxnOptions txn_options;
    txn_options.write_keys = {RecordKey{kTable, 0}};
    site::Transaction txn;
    ASSERT_TRUE(site.BeginTransaction(txn_options, &txn).ok());
    begin_time = std::chrono::steady_clock::now();
    core::SiteTxnContext context(&site, &txn);
    std::string value;
    for (uint64_t key = 0; key < 3; ++key) {
      ASSERT_TRUE(context.Get(RecordKey{kTable, key}, &value).ok());
    }
    ASSERT_TRUE(context.Put(RecordKey{kTable, 0}, "w").ok());
    VersionVector commit_version;
    ASSERT_TRUE(site.Commit(&txn, &commit_version).ok());
  });
  writer.join();
  observer.join();
  EXPECT_GE(visible_time - begin_time, microseconds(450));
  logs.CloseAll();
  site.Stop();
}

}  // namespace
}  // namespace dynamast
