// Example: a small banking application on DynaMast (SmallBank-style).
//
// Demonstrates the public API on a realistic scenario: concurrent client
// threads transfer money between accounts whose partitions master at
// different sites; the site selector co-locates (remasters) the touched
// partitions so every transfer commits at one site; an auditing read-only
// transaction runs at a replica on a consistent snapshot and verifies that
// money is conserved.
//
//   ./build/examples/bank_transfers

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/dynamast_system.h"
#include "workloads/smallbank.h"

using namespace dynamast;
using workloads::SmallBankWorkload;

int main() {
  SmallBankWorkload::Options bank_options;
  bank_options.num_accounts = 20'000;
  bank_options.accounts_per_partition = 100;
  SmallBankWorkload bank(bank_options);

  core::DynaMastSystem::Options options;
  options.cluster.num_sites = 4;
  options.cluster.network.one_way_latency = std::chrono::microseconds(50);
  options.cluster.site.write_op_cost = std::chrono::microseconds(50);
  options.selector.weights = selector::StrategyWeights::SmallBank();
  core::DynaMastSystem dynamast(options, &bank.partitioner());

  if (auto s = bank.Load(dynamast); !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  dynamast.Seal();

  constexpr int kThreads = 8;
  constexpr int kTransfersPerThread = 100;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::ClientState client;
      client.id = t + 1;
      Random rng(t + 100);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const uint64_t from = rng.Uniform(bank_options.num_accounts);
        uint64_t to = rng.Uniform(bank_options.num_accounts);
        if (to == from) to = (to + 1) % bank_options.num_accounts;
        const double amount = 1.0 + rng.Uniform(100);

        const RecordKey from_key{SmallBankWorkload::kChecking, from};
        const RecordKey to_key{SmallBankWorkload::kChecking, to};
        core::TxnProfile profile;
        profile.write_keys = {from_key, to_key};
        auto logic = [&](core::TxnContext& ctx) -> Status {
          std::string value;
          Status s = ctx.Get(from_key, &value);
          if (!s.ok()) return s;
          const double from_balance = SmallBankWorkload::BalanceOf(value);
          s = ctx.Get(to_key, &value);
          if (!s.ok()) return s;
          const double to_balance = SmallBankWorkload::BalanceOf(value);
          s = ctx.Put(from_key,
                      SmallBankWorkload::MakeBalance(from_balance - amount));
          if (!s.ok()) return s;
          return ctx.Put(to_key,
                         SmallBankWorkload::MakeBalance(to_balance + amount));
        };
        core::TxnResult result;
        if (dynamast.Execute(client, profile, logic, &result).ok()) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::printf("committed %llu of %d transfers\n",
              static_cast<unsigned long long>(committed.load()),
              kThreads * kTransfersPerThread);

  // Audit at a replica: one consistent snapshot over every account.
  core::ClientState auditor;
  auditor.id = 999;
  core::TxnProfile audit;
  audit.read_only = true;
  double total = 0;
  auto audit_logic = [&](core::TxnContext& ctx) -> Status {
    for (uint64_t account = 0; account < bank_options.num_accounts;
         ++account) {
      std::string value;
      Status s = ctx.Get(RecordKey{SmallBankWorkload::kChecking, account},
                         &value);
      if (!s.ok()) return s;
      total += SmallBankWorkload::BalanceOf(value);
      s = ctx.Get(RecordKey{SmallBankWorkload::kSavings, account}, &value);
      if (!s.ok()) return s;
      total += SmallBankWorkload::BalanceOf(value);
    }
    return Status::OK();
  };
  core::TxnResult result;
  if (auto s = dynamast.Execute(auditor, audit, audit_logic, &result);
      !s.ok()) {
    std::fprintf(stderr, "audit: %s\n", s.ToString().c_str());
    return 1;
  }
  const double expected =
      bank_options.num_accounts * 2 * bank_options.initial_balance;
  std::printf("audit at site %u: total=%.2f expected=%.2f %s\n",
              result.executed_at, total, expected,
              (total > expected - 0.01 && total < expected + 0.01)
                  ? "(conserved)"
                  : "(MISMATCH!)");

  const metrics::Registry& registry = *dynamast.cluster().metrics();
  const uint64_t write_routes =
      registry.CounterValue("selector_routes_total", {{"kind", "write"}});
  const uint64_t remastered = registry.CounterValue("selector_remaster_total");
  std::printf("remastered %llu of %llu write routes (%.1f%%)\n",
              static_cast<unsigned long long>(remastered),
              static_cast<unsigned long long>(write_routes),
              write_routes == 0 ? 0.0 : 100.0 * remastered / write_routes);
  dynamast.Shutdown();
  return 0;
}
