// Tests for the simulated network, admission gate, partitioners, the
// system factory and the transaction phase timers.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "core/dynamast_system.h"
#include "net/sim_network.h"
#include "site/admission_gate.h"
#include "workloads/system_factory.h"
#include "workloads/ycsb.h"

namespace dynamast {
namespace {

// ---- SimulatedNetwork --------------------------------------------------

// Per-class and all-class reads of the net_messages_total /
// net_bytes_total families.
uint64_t ClassCount(const metrics::Registry& registry, const char* family,
                    net::TrafficClass c) {
  return registry.CounterValue(family, {{"class", net::TrafficClassName(c)}});
}
uint64_t Messages(const metrics::Registry& registry, net::TrafficClass c) {
  return ClassCount(registry, "net_messages_total", c);
}
uint64_t Bytes(const metrics::Registry& registry, net::TrafficClass c) {
  return ClassCount(registry, "net_bytes_total", c);
}
uint64_t TotalCount(const metrics::Registry& registry, const char* family) {
  uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(net::TrafficClass::kNumClasses); ++c) {
    total += ClassCount(registry, family, static_cast<net::TrafficClass>(c));
  }
  return total;
}

TEST(SimulatedNetworkTest, CountsMessagesAndBytes) {
  metrics::Registry registry;
  net::SimulatedNetwork::Options options;
  options.charge_delays = false;
  net::SimulatedNetwork network(options, &registry);
  network.Send(net::TrafficClass::kPropagation, 1000);
  network.Send(net::TrafficClass::kPropagation, 500);
  network.Send(net::TrafficClass::kRemastering, 64);
  EXPECT_EQ(Messages(registry, net::TrafficClass::kPropagation), 2u);
  EXPECT_EQ(Bytes(registry, net::TrafficClass::kPropagation), 1500u);
  EXPECT_EQ(Messages(registry, net::TrafficClass::kRemastering), 1u);
  EXPECT_EQ(TotalCount(registry, "net_messages_total"), 3u);
  EXPECT_EQ(TotalCount(registry, "net_bytes_total"), 1564u);
}

TEST(SimulatedNetworkTest, RoundTripIsTwoMessages) {
  metrics::Registry registry;
  net::SimulatedNetwork::Options options;
  options.charge_delays = false;
  net::SimulatedNetwork network(options, &registry);
  network.RoundTrip(net::TrafficClass::kClientRequest, 100, 50);
  EXPECT_EQ(Messages(registry, net::TrafficClass::kClientRequest), 2u);
  EXPECT_EQ(Bytes(registry, net::TrafficClass::kClientRequest), 150u);
}

TEST(SimulatedNetworkTest, ChargesLatencyWhenEnabled) {
  metrics::Registry registry;
  net::SimulatedNetwork::Options options;
  options.one_way_latency = std::chrono::microseconds(2000);
  options.charge_delays = true;
  net::SimulatedNetwork network(options, &registry);
  Stopwatch watch;
  network.Send(net::TrafficClass::kClientRequest, 10);
  EXPECT_GE(watch.ElapsedMicros(), 2000u);
}

TEST(SimulatedNetworkTest, NoDelayWhenDisabled) {
  metrics::Registry registry;
  net::SimulatedNetwork::Options options;
  options.one_way_latency = std::chrono::seconds(10);
  options.charge_delays = false;
  net::SimulatedNetwork network(options, &registry);
  Stopwatch watch;
  network.Send(net::TrafficClass::kClientRequest, 10);
  EXPECT_LT(watch.ElapsedMicros(), 1000000u);
}

TEST(SimulatedNetworkTest, ResetClearsCounters) {
  metrics::Registry registry;
  net::SimulatedNetwork::Options options;
  options.charge_delays = false;
  net::SimulatedNetwork network(options, &registry);
  network.Send(net::TrafficClass::kDataShipping, 9);
  registry.ResetValues();
  EXPECT_EQ(TotalCount(registry, "net_messages_total"), 0u);
  EXPECT_EQ(TotalCount(registry, "net_bytes_total"), 0u);
  // Handles survive the reset: the network keeps counting.
  network.Send(net::TrafficClass::kDataShipping, 9);
  EXPECT_EQ(TotalCount(registry, "net_messages_total"), 1u);
}

TEST(SimulatedNetworkTest, ExportsEveryClass) {
  metrics::Registry registry;
  net::SimulatedNetwork::Options options;
  options.charge_delays = false;
  net::SimulatedNetwork network(options, &registry);
  const std::string snapshot = registry.SnapshotJson();
  for (const char* name : {"client_request", "propagation", "remastering",
                           "coordination", "data_shipping"}) {
    EXPECT_NE(snapshot.find(name), std::string::npos) << name;
  }
}

// ---- AdmissionGate -------------------------------------------------------

TEST(AdmissionGateTest, LimitsConcurrency) {
  site::AdmissionGate gate(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        site::AdmissionGate::Scoped slot(gate);
        const int now = inside.fetch_add(1) + 1;
        int expected = max_inside.load();
        while (now > expected &&
               !max_inside.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_inside.load(), 2);
  EXPECT_GT(max_inside.load(), 0);
}

// Regression for the deferred wait-histogram observation (Enter records
// the slot wait after releasing the gate mutex): every Enter must still
// produce exactly one observation, including contended entries.
TEST(AdmissionGateTest, WaitHistogramCountsEveryEntry) {
  metrics::Registry registry;
  metrics::Histogram* wait_us = registry.GetHistogram("gate_wait_us");
  metrics::Gauge* depth = registry.GetGauge("gate_queue_depth");
  site::AdmissionGate gate(2);
  gate.SetMetrics(wait_us, depth);

  constexpr int kThreads = 8;
  constexpr int kEntriesPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEntriesPerThread; ++i) {
        site::AdmissionGate::Scoped slot(gate);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wait_us->recorder().count(),
            static_cast<uint64_t>(kThreads) * kEntriesPerThread);
  EXPECT_EQ(depth->Value(), 0.0);
}

TEST(AdmissionGateTest, QueueDepthReflectsWaiters) {
  site::AdmissionGate gate(1);
  gate.Enter();
  std::thread waiter([&gate] {
    site::AdmissionGate::Scoped slot(gate);
  });
  // Give the waiter time to queue.
  for (int i = 0; i < 100 && gate.QueueDepth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gate.QueueDepth(), 1u);
  gate.Exit();
  waiter.join();
  EXPECT_EQ(gate.QueueDepth(), 0u);
}

// ---- Partitioners ----------------------------------------------------------

TEST(PartitionerTest, RangePartitioner) {
  RangePartitioner partitioner(100, 10);
  EXPECT_EQ(partitioner.NumPartitions(), 10u);
  EXPECT_EQ(partitioner.PartitionOf(RecordKey{0, 0}), 0u);
  EXPECT_EQ(partitioner.PartitionOf(RecordKey{0, 99}), 0u);
  EXPECT_EQ(partitioner.PartitionOf(RecordKey{0, 100}), 1u);
  EXPECT_EQ(partitioner.PartitionOf(RecordKey{5, 999}), 9u);  // table-blind
}

TEST(PartitionerTest, FunctionPartitioner) {
  FunctionPartitioner partitioner(
      [](const RecordKey& key) { return key.table * 10 + key.row % 10; }, 40);
  EXPECT_EQ(partitioner.NumPartitions(), 40u);
  EXPECT_EQ(partitioner.PartitionOf(RecordKey{2, 7}), 27u);
}

// ---- System factory -------------------------------------------------------

TEST(SystemFactoryTest, AllFiveSystemsConstruct) {
  RangePartitioner partitioner(10, 10);
  workloads::DeploymentOptions options;
  options.num_sites = 2;
  options.charge_network = false;
  options.read_op_cost = options.write_op_cost = options.apply_op_cost =
      std::chrono::microseconds(0);
  for (workloads::SystemKind kind : workloads::AllSystems()) {
    auto system = workloads::MakeSystem(kind, options, partitioner);
    ASSERT_NE(system, nullptr);
    EXPECT_EQ(system->name(), workloads::SystemKindName(kind));
    EXPECT_TRUE(system->CreateTable(0).ok());
    EXPECT_TRUE(system->LoadRow(RecordKey{0, 1}, "x").ok());
    system->Seal();
    system->Shutdown();
  }
}

TEST(SystemFactoryTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (workloads::SystemKind kind : workloads::AllSystems()) {
    names.insert(workloads::SystemKindName(kind));
  }
  EXPECT_EQ(names.size(), 5u);
}

// ---- Phase instrumentation ---------------------------------------------------

// Every system's one-site write transaction feeds the begin, execute and
// commit phases; route and network are DynaMast's routing tier alone. A
// read-only transaction feeds no phase.
class TxnPhaseTest : public ::testing::TestWithParam<workloads::SystemKind> {};

TEST_P(TxnPhaseTest, WriteTransactionRecordsAllPhases) {
  const workloads::SystemKind kind = GetParam();
  const bool routed = kind == workloads::SystemKind::kDynaMast ||
                      kind == workloads::SystemKind::kSingleMaster;
  RangePartitioner partitioner(10, 10);
  metrics::Registry registry;
  workloads::DeploymentOptions deployment;
  deployment.num_sites = 2;
  deployment.metrics = &registry;
  deployment.charge_network = false;
  deployment.read_op_cost = deployment.write_op_cost =
      deployment.apply_op_cost = std::chrono::microseconds(0);
  auto system = workloads::MakeSystem(kind, deployment, partitioner);
  ASSERT_TRUE(system->CreateTable(0).ok());
  ASSERT_TRUE(system->LoadRow(RecordKey{0, 1}, "x").ok());
  system->Seal();

  core::ClientState client;
  client.id = 1;
  core::TxnProfile profile;
  profile.write_keys = {RecordKey{0, 1}};
  core::TxnResult result;
  ASSERT_TRUE(system
                  ->Execute(client, profile,
                            [](core::TxnContext& ctx) {
                              return ctx.Put(RecordKey{0, 1}, "y");
                            },
                            &result)
                  .ok());
  auto count = [&](const char* phase) -> uint64_t {
    const LatencyRecorder* r =
        registry.HistogramRecorder("txn_phase_us", {{"phase", phase}});
    return r == nullptr ? 0 : r->count();
  };
  auto expect_phases = [&] {
    EXPECT_EQ(count("route"), routed ? 1u : 0u);
    // One observation per client RPC: to the selector, then to the site.
    EXPECT_EQ(count("network"), routed ? 2u : 0u);
    EXPECT_EQ(count("begin"), 1u);
    EXPECT_EQ(count("execute"), 1u);
    EXPECT_EQ(count("commit"), 1u);
  };
  expect_phases();
  // The slot wait is the site's own admission histogram.
  const metrics::Labels site = {{"site", std::to_string(result.executed_at)}};
  EXPECT_EQ(registry.HistogramRecorder("site_admission_wait_us", site)->count(),
            1u);

  core::TxnProfile read;
  read.read_only = true;
  read.read_keys = {RecordKey{0, 1}};
  std::string value;
  ASSERT_TRUE(system
                  ->Execute(client, read,
                            [&value](core::TxnContext& ctx) {
                              return ctx.Get(RecordKey{0, 1}, &value);
                            },
                            nullptr)
                  .ok());
  EXPECT_EQ(value, "y");
  expect_phases();
  system->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Systems, TxnPhaseTest,
    ::testing::Values(workloads::SystemKind::kDynaMast,
                      workloads::SystemKind::kSingleMaster,
                      workloads::SystemKind::kMultiMaster,
                      workloads::SystemKind::kLeap),
    [](const ::testing::TestParamInfo<workloads::SystemKind>& info) {
      std::string name = workloads::SystemKindName(info.param);
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace dynamast
