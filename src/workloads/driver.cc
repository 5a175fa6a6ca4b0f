#include "workloads/driver.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/scheduler.h"

namespace dynamast::workloads {

std::string Driver::Report::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "tput=%.1f txn/s committed=%llu errors=%llu remastered=%llu "
                "distributed=%llu",
                Throughput(), static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(remastered_txns),
                static_cast<unsigned long long>(distributed_txns));
  return std::string(buf);
}

Driver::Report Driver::Run(core::SystemInterface& system, Workload& workload) {
  Report report;
  std::mutex report_mu;

  // Fixed-count mode trades the wall-clock run shape (warmup + measure
  // windows, a controller thread) for a schedule-deterministic one: each
  // client issues exactly ops_per_client transactions, all measured.
  const bool fixed_ops = options_.ops_per_client > 0;
  const uint64_t ops_budget = options_.ops_per_client;
  Stopwatch run_watch;

  const auto start = std::chrono::steady_clock::now();
  const auto measure_start = start + options_.warmup;
  const auto end = measure_start + options_.measure;
  report.seconds = std::chrono::duration<double>(options_.measure).count();

  const size_t timeline_buckets =
      options_.timeline_resolution.count() > 0
          ? static_cast<size_t>(
                (options_.warmup + options_.measure + std::chrono::milliseconds(
                                                          999)) /
                options_.timeline_resolution) +
                1
          : 0;
  // Relaxed tallies: read only after the client threads are joined.
  std::vector<std::atomic<uint64_t>> timeline(timeline_buckets);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(options_.num_clients);
  for (uint32_t i = 0; i < options_.num_clients; ++i) {
    clients.emplace_back([&, i] {
      sched::ThreadGuard sched_guard("client/" + std::to_string(i));
      core::ClientState client;
      client.id = i + 1;
      std::unique_ptr<WorkloadClient> generator = workload.MakeClient(i);
      // Thread-local tallies, merged under the report mutex at the end.
      uint64_t committed = 0, errors = 0, remastered = 0, distributed = 0,
               retries = 0;
      std::map<std::string, uint64_t> aborted_by_reason;
      std::map<std::string, uint64_t> committed_by_type;
      std::map<std::string, std::unique_ptr<LatencyRecorder>> latency_by_type;

      uint64_t executed = 0;
      while (fixed_ops ? executed < ops_budget
                       : !stop.load(std::memory_order_acquire)) {
        ++executed;
        WorkloadTxn txn = generator->Next();
        core::TxnResult result;
        Stopwatch watch;
        Status s = system.Execute(client, txn.profile, txn.logic, &result);
        const auto now = std::chrono::steady_clock::now();
        if (!fixed_ops && now >= end) break;
        if (s.ok() && timeline_buckets > 0) {
          const size_t bucket = static_cast<size_t>(
              (now - start) / options_.timeline_resolution);
          if (bucket < timeline_buckets) {
            timeline[bucket].fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!fixed_ops && now < measure_start) continue;  // warmup
        if (s.ok()) {
          ++committed;
          committed_by_type[txn.type]++;
          auto& recorder = latency_by_type[txn.type];
          if (!recorder) recorder = std::make_unique<LatencyRecorder>();
          recorder->Record(watch.ElapsedMicros());
          if (result.remastered) ++remastered;
          if (result.distributed) ++distributed;
          retries += result.retries;
        } else {
          ++errors;
          // Abort accounting is split by reason (the stable code name),
          // never lumped into one opaque error count.
          aborted_by_reason[StatusCodeName(s.code())]++;
        }
      }

      std::lock_guard<std::mutex> guard(report_mu);
      report.committed += committed;
      report.errors += errors;
      report.remastered_txns += remastered;
      report.distributed_txns += distributed;
      report.retries += retries;
      for (const auto& [reason, count] : aborted_by_reason) {
        report.aborted_by_reason[reason] += count;
      }
      for (const auto& [type, count] : committed_by_type) {
        report.committed_by_type[type] += count;
      }
      for (auto& [type, recorder] : latency_by_type) {
        auto& slot = report.latency_by_type[type];
        if (!slot) {
          slot = std::move(recorder);
        } else {
          slot->Merge(*recorder);
        }
      }
    });
  }

  if (!fixed_ops) {
    // Scheduled mid-run actions (e.g. shuffling YCSB correlations for the
    // adaptivity experiment) run on a control thread.
    std::thread controller([&] {
      sched::ThreadGuard sched_guard("driver/ctl");
      auto actions = options_.scheduled_actions;
      std::sort(actions.begin(), actions.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [offset, action] : actions) {
        std::this_thread::sleep_until(start + offset);
        if (std::chrono::steady_clock::now() >= end) break;
        action();
      }
      std::this_thread::sleep_until(end);
      stop.store(true, std::memory_order_release);
    });
    sched::ScopedBlocked blocked;
    controller.join();
  }
  {
    sched::ScopedBlocked blocked;
    for (auto& t : clients) t.join();
  }
  if (fixed_ops) report.seconds = run_watch.ElapsedMicros() / 1e6;

  if (timeline_buckets > 0) {
    report.timeline.reserve(timeline_buckets);
    for (const auto& bucket : timeline) report.timeline.push_back(bucket.load(std::memory_order_relaxed));
  }

  // Driver-level metric export: bumped once per run from the merged
  // report, so series values equal the report exactly.
  if (options_.metrics != nullptr) {
    for (const auto& [type, count] : report.committed_by_type) {
      options_.metrics->GetCounter("driver_committed_total", {{"type", type}})
          ->Increment(count);
    }
    for (const auto& [reason, count] : report.aborted_by_reason) {
      options_.metrics
          ->GetCounter("driver_aborted_total", {{"reason", reason}})
          ->Increment(count);
    }
  }
  return report;
}

}  // namespace dynamast::workloads
