#ifndef DYNAMAST_COMMON_HISTORY_H_
#define DYNAMAST_COMMON_HISTORY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"

namespace dynamast::history {

/// History recording for the offline SI auditor (tools/si_checker; see
/// DESIGN.md, "Schedule exploration & history auditing").
///
/// When a Cluster is built with `record_history`, every SiteManager emits
/// one HistoryEvent per transaction outcome (commit or abort) and per
/// remastering marker (release / grant), capturing exactly what the
/// isolation proofs quantify over: the begin snapshot, the read set with
/// the *observed* version of each read, the write set, the commit vector,
/// and the session that issued the transaction. Events are appended under
/// the site's state mutex from within the commit / marker critical
/// section, so the recorder's global sequence is consistent with real-time
/// order: if event A's critical section completed before event B's began
/// (on any site), A precedes B in the recorder.

/// One snapshot read and the version it actually observed: the row's value
/// carried (origin site, per-origin sequence) of the commit that installed
/// it. (0, 0) denotes the pre-history base version installed by loaders.
struct ReadObservation {
  RecordKey key;
  SiteId origin = 0;
  uint64_t seq = 0;
};

/// One staged write and the partition it belongs to (the remastering-
/// window check is per-partition).
struct WriteObservation {
  RecordKey key;
  PartitionId partition = 0;
};

enum class EventKind : uint8_t {
  kCommit = 0,
  kAbort = 1,
  kRelease = 2,
  kGrant = 3,
};

const char* EventKindName(EventKind kind);

struct HistoryEvent {
  /// Dense global sequence assigned by the Recorder.
  uint64_t seq = 0;
  EventKind kind = EventKind::kCommit;
  SiteId site = kInvalidSite;
  /// Issuing client session (0 for markers / sessionless transactions).
  ClientId client = 0;
  /// Per-client logical transaction number: 2PC branches of one logical
  /// transaction share it, so the session checker folds their commit
  /// vectors together instead of requiring one branch to see another.
  uint64_t client_txn = 0;
  bool read_only = false;

  /// Begin snapshot (commits and aborts).
  VersionVector begin;
  /// Commit vector (tvv) for commits; marker vector (svv after the marker
  /// bump) for release/grant; empty for aborts.
  VersionVector commit;
  /// The per-origin slot this event occupies in its site's commit order:
  /// commit[site] for update commits and markers, 0 for read-only commits
  /// and aborts (they install nothing).
  uint64_t installed_seq = 0;

  std::vector<ReadObservation> reads;
  std::vector<WriteObservation> writes;

  /// Markers only: partitions transferred and the peer site.
  std::vector<PartitionId> partitions;
  SiteId peer = kInvalidSite;
  /// Grant markers only: the release vector the grant waited for. The
  /// auditor checks every post-grant writer's begin against it.
  VersionVector release_version;
};

/// Thread-safe append-only event log shared by all sites of a cluster.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Assigns the event its global sequence and appends it. Safe to call
  /// while holding a site's state mutex (the recorder mutex is a leaf).
  void Record(HistoryEvent event) DYNAMAST_EXCLUDES(mu_);

  size_t size() const DYNAMAST_EXCLUDES(mu_);
  std::vector<HistoryEvent> Snapshot() const DYNAMAST_EXCLUDES(mu_);
  void Clear() DYNAMAST_EXCLUDES(mu_);

  /// Serializes the recorded history in the line format ParseHistory
  /// reads (the si_checker CLI's input).
  std::string Serialize() const;
  Status DumpToFile(const std::string& path) const;

  /// Stable 64-bit hash over the serialized history. Every field of every
  /// event is logical (sequence numbers, version vectors, key sets — no
  /// wall-clock), so two executions produce the same hash iff they made
  /// the same decisions in the same order: the exact-replay check.
  uint64_t Hash() const;

 private:
  mutable DebugMutex mu_{"history.recorder"};
  std::vector<HistoryEvent> events_ DYNAMAST_GUARDED_BY(mu_);
};

/// Hash() over an already-snapshotted event list.
uint64_t HashEvents(const std::vector<HistoryEvent>& events);

/// Serializes one event as a single line (no trailing newline).
std::string SerializeEvent(const HistoryEvent& event);

/// Parses one SerializeEvent line.
Status ParseEvent(std::string_view line, HistoryEvent* out);

/// Parses a whole history dump; blank lines and '#' comments are skipped.
Status ParseHistory(std::string_view text, std::vector<HistoryEvent>* out);

}  // namespace dynamast::history

#endif  // DYNAMAST_COMMON_HISTORY_H_
