#ifndef DYNAMAST_LOG_LOG_RECORD_H_
#define DYNAMAST_LOG_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/key.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/version_vector.h"

namespace dynamast::log {

/// One write inside a committed update transaction: the new value for a
/// record (full-row values; the storage engine installs them as new
/// versioned records when the refresh transaction is applied).
struct WriteEntry {
  RecordKey key;
  std::string value;
  bool is_insert = false;  // true when the key did not exist before

  friend bool operator==(const WriteEntry& a, const WriteEntry& b) {
    return a.key == b.key && a.value == b.value && a.is_insert == b.is_insert;
  }
};

/// Redo-log record. The log carries three kinds of records (Section V-C):
/// committed update transactions (which double as refresh transactions at
/// remote sites), and the release/grant mastership markers that make data
/// item mastership recoverable.
struct LogRecord {
  enum class Type : uint8_t {
    kUpdate = 0,
    kRelease = 1,
    kGrant = 2,
  };

  Type type = Type::kUpdate;
  SiteId origin = 0;
  /// Commit timestamp of the transaction (or of the mastership marker,
  /// which occupies a slot in the origin's commit order; see
  /// SiteManager::Release/Grant).
  VersionVector tvv;
  /// For kUpdate: the transaction's writes. Empty for markers.
  std::vector<WriteEntry> writes;
  /// For kRelease / kGrant: the partitions whose mastership changed and the
  /// counterpart site of the transfer.
  std::vector<PartitionId> partitions;
  SiteId transfer_peer = kInvalidSite;
  /// metrics::NowMicros() at append time (0 when unset, e.g. in tests).
  /// Process-local steady-clock micros: every site of a simulated cluster
  /// shares the clock, so refresh delay — the paper's Eq. 5 input — is
  /// measured directly as apply time minus append time.
  uint64_t append_ts_us = 0;

  /// Serializes to a compact binary representation (length-prefixed).
  /// The byte size of the encoding is what the network simulator charges
  /// for propagation traffic.
  std::string Serialize() const;

  /// Parses a record serialized by Serialize(). Returns Corruption on any
  /// malformed input (truncation, bad type, overlong fields).
  static Status Deserialize(std::string_view data, LogRecord* out);

  size_t SerializedSize() const;

  friend bool operator==(const LogRecord& a, const LogRecord& b) {
    return a.type == b.type && a.origin == b.origin && a.tvv == b.tvv &&
           a.writes == b.writes && a.partitions == b.partitions &&
           a.transfer_peer == b.transfer_peer &&
           a.append_ts_us == b.append_ts_us;
  }
};

}  // namespace dynamast::log

#endif  // DYNAMAST_LOG_LOG_RECORD_H_
