#ifndef DYNAMAST_COMMON_DPOR_H_
#define DYNAMAST_COMMON_DPOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sched_trace.h"
#include "common/scheduler.h"

namespace dynamast::sched {

/// Dynamic partial-order reduction driver (Flanagan & Godefroid, POPL'05,
/// with sleep sets) over the explore-mode serial scheduler.
///
/// The explorer repeatedly executes a scenario under StartExplore /
/// StopExplore. After each execution it computes happens-before over the
/// recorded sync-point events with vector clocks (program order plus
/// conflicting-operation order per object: mutex pairs, message
/// send→deliver, slot release→grant, log appends), finds racing pairs —
/// conflicting operations by different threads not otherwise ordered —
/// and inserts backtracking points only there. Branches already explored
/// at a choice point become that point's sleep set in sibling branches,
/// so equivalent interleavings (differing only in the order of
/// independent operations) are executed once and counted as pruned.

struct DporOptions {
  size_t max_executions = 64;
  /// Per-execution step budget (granted operations).
  size_t max_steps = 1 << 20;
  /// Bounded-preemption fallback after the forced prefix; <0 = unbounded.
  int preemption_bound = -1;
  uint64_t seed = 0;
  bool stop_on_failure = true;
  /// ExploreOptions::await_threads for every execution: hold the first
  /// grant until this many threads registered, so the initial choice
  /// points see the full enabled set instead of racing thread startup.
  size_t await_threads = 0;
};

struct DporOutcome {
  bool failed = false;
  std::string note;
};

struct DporStats {
  size_t executed = 0;
  /// Schedule-choice alternatives DPOR proved equivalent and never ran:
  /// sum over finalized choice points of |enabled| - |explored|.
  size_t pruned = 0;
  /// Choice points where a race inserted a backtracking alternative.
  size_t backtrack_points = 0;
  /// Executions whose forced prefix failed to apply.
  size_t divergences = 0;
  /// Stall-watchdog grants across all executions (nondeterminism signal).
  size_t stall_grants = 0;
  bool budget_exhausted = false;
  bool failure_found = false;
  std::string failure;
  Trace failure_trace;
  std::string ToString() const;
};

class DporExplorer {
 public:
  explicit DporExplorer(DporOptions options) : options_(options) {}

  /// Runs the scenario until the branch tree is exhausted, the execution
  /// budget runs out, or (with stop_on_failure) a failing execution is
  /// found. `execution` performs one full run of the scenario — build,
  /// exercise, teardown-with-joins — and reports whether it failed; the
  /// explorer brackets it with StartExplore/StopExplore.
  DporStats Run(const std::function<DporOutcome()>& execution);

 private:
  struct Frame {
    std::vector<uint32_t> enabled;
    std::vector<uint32_t> done;
    std::vector<uint32_t> backtrack;
    /// Asleep when the frame was first reached: explored from an
    /// equivalent state already, so never a backtrack alternative.
    std::vector<uint32_t> sleeping;
    uint32_t chosen = 0;
  };

  void AddBacktrack(Frame& frame, uint32_t q, DporStats& stats);

  DporOptions options_;
};

/// Shrinks a failing trace to the shortest prefix whose replay still
/// fails, by binary search. `fails` replays the candidate trace — an
/// explore run under ReplayOptions(candidate), so the remainder after the
/// prefix is scheduled serially and deterministically too — and reports
/// whether the failure reproduced. The returned trace is re-confirmed; if
/// even the full trace stops failing (flaky tail), the input is returned
/// unchanged.
Trace MinimizeTracePrefix(const Trace& trace,
                          const std::function<bool(const Trace&)>& fails);

}  // namespace dynamast::sched

#endif  // DYNAMAST_COMMON_DPOR_H_
