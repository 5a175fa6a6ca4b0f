#ifndef DYNAMAST_COMMON_SCHED_TRACE_H_
#define DYNAMAST_COMMON_SCHED_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dynamast::sched {

/// The decision-stream trace of one explore run (see DESIGN.md, "The
/// explore scheduler").
///
/// Every synchronization operation the scheduler arbitrates — DebugMutex
/// acquire/release (exclusive and shared), simulated-network delivery,
/// admission-slot grant, durable-log append — is one TraceEntry: which
/// thread performed which kind of operation on which object, in the
/// serialized order the explore scheduler granted them. Only one granted
/// operation is in flight at a time, so the recorded order is always
/// feasible, and its thread sequence replays the run as a forced prefix
/// (sched::ReplayOptions).

enum class OpKind : uint8_t {
  kMutexLock = 0,
  kMutexUnlock = 1,
  kMutexLockShared = 2,
  kMutexUnlockShared = 3,
  kNetDeliver = 4,
  kGateGrant = 5,
  kLogAppend = 6,
  kMarker = 7,
};
inline constexpr uint8_t kNumOpKinds = 8;

const char* OpKindName(OpKind kind);

/// Whether two operations on the *same* object are dependent (order
/// matters). Shared acquisitions commute with each other and markers with
/// everything; everything else on one object conflicts.
bool OpsConflict(OpKind a, OpKind b);

struct TraceEntry {
  uint32_t thread = 0;  ///< index into Trace::threads
  OpKind kind = OpKind::kMarker;
  uint32_t object = 0;  ///< index into Trace::objects
};

/// Stable cross-run identity of one synchronization object: the lock-class
/// label, the name of the thread that constructed it, and its ordinal
/// among that (label, thread) pair's constructions since the last identity
/// reset. Construction order per thread is deterministic, so the key
/// matches the "same" object across a run and its replay — even across
/// processes (no pointers).
struct TraceObject {
  std::string label;
  std::string birth_thread;
  uint32_t birth_index = 0;

  bool operator==(const TraceObject& o) const {
    return label == o.label && birth_thread == o.birth_thread &&
           birth_index == o.birth_index;
  }
};

struct Trace {
  uint64_t seed = 0;
  /// Free-form metadata (system, workload, client count, history hash...)
  /// so a trace file is self-describing: the replay harness reconstructs
  /// the scenario from it.
  std::map<std::string, std::string> meta;
  std::vector<std::string> threads;     ///< token -> thread name
  std::vector<TraceObject> objects;     ///< dense object table
  std::vector<TraceEntry> entries;

  bool empty() const { return entries.empty(); }

  std::string Serialize() const;
  static Status Parse(std::string_view text, Trace* out);
  Status DumpToFile(const std::string& path) const;
  static Status LoadFromFile(const std::string& path, Trace* out);
};

}  // namespace dynamast::sched

#endif  // DYNAMAST_COMMON_SCHED_TRACE_H_
