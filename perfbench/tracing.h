#ifndef DYNAMAST_PERFBENCH_TRACING_H_
#define DYNAMAST_PERFBENCH_TRACING_H_

// The traced run's span recorder and the decorators that feed it. Spans
// are recorded by the benchmark around public calls only:
//
//   txn                      WorkloadClient::Next() .. Execute() returns
//   ├── next                 WorkloadClient::Next()
//   └── execute              SystemInterface::Execute()
//       └── logic            the transaction's TxnLogic
//           ├── get          TxnContext::Get()
//           └── put          TxnContext::Put() / Insert()
//
// A span's self time is its duration minus the time its children cover;
// both are aggregated online per span name. A bounded prefix of the raw
// spans is kept in memory and written out when the benchmark ends.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

enum SpanName : uint8_t { kTxn, kNext, kExecute, kLogic, kGet, kPut, kNumSpans };

const char* SpanNameString(SpanName name);

struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Process-wide span recorder. Begin/End act on the calling thread's span
/// stack; Collect() runs only while no client thread is alive.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void BeginTxn();  // opens a `txn` span under a fresh transaction id
  void Begin(SpanName name);
  void End();

  /// Folds every thread's totals into one table (by span name), moves the
  /// kept raw spans into the output buffer labelled `system`, and resets.
  std::array<SpanTotals, kNumSpans> Collect(const std::string& system);

  /// Writes the kept spans as JSON lines.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Open {
    SpanName name;
    uint32_t id;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Record {
    uint64_t txn;
    uint32_t id;
    uint32_t parent;  // 0 = root
    SpanName name;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct ThreadState {
    uint32_t thread_index = 0;
    uint64_t txn = 0;
    uint32_t next_id = 1;
    std::vector<Open> stack;
    std::array<SpanTotals, kNumSpans> totals{};
    std::vector<Record> kept;
  };

  ThreadState& State();

  std::mutex mu_;
  std::atomic<uint64_t> generation_{1};
  std::vector<std::unique_ptr<ThreadState>> threads_;
  uint32_t thread_counter_ = 0;
  std::vector<std::pair<std::string, Record>> output_;
};

/// Wraps a workload so every client's Next() and every transaction's logic
/// and context calls are recorded as spans. Clients are numbered from
/// `offset` (see ClientOffsetWorkload).
class TracedWorkload final : public ClientOffsetWorkload {
 public:
  using ClientOffsetWorkload::ClientOffsetWorkload;
  std::unique_ptr<workloads::WorkloadClient> MakeClient(
      uint64_t index) override;
};

/// Records the `execute` span and closes the `txn` span Next() opened.
class TracedSystem final : public ForwardingSystem {
 public:
  using ForwardingSystem::ForwardingSystem;
  Status Execute(core::ClientState& client, const core::TxnProfile& profile,
                 const core::TxnLogic& logic,
                 core::TxnResult* result) override;
};

}  // namespace perfbench

#endif  // DYNAMAST_PERFBENCH_TRACING_H_
