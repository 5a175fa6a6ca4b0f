#ifndef DYNAMAST_CORE_DYNAMAST_SYSTEM_H_
#define DYNAMAST_CORE_DYNAMAST_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/latency_recorder.h"
#include "core/cluster.h"
#include "core/system_interface.h"
#include "selector/site_selector.h"

namespace dynamast::core {

/// How mastership is laid out before the workload starts.
enum class InitialPlacement {
  /// Partition p starts at site p % m — an arbitrary scattering the
  /// remastering strategies must reorganize (the paper gives DynaMast "no
  /// fixed initial data placement", Section VI-A1).
  kRoundRobin,
  /// Everything starts (and, absent remastering triggers, stays) at site
  /// 0 — this is exactly the single-master system of Section VI-A1, built
  /// "by leveraging DynaMast's adaptability".
  kAllAtSiteZero,
  /// Caller-provided placement (adaptivity experiment: manual range
  /// placement that the workload then violates).
  kCustom,
};

/// Per-phase latency accounting over write transactions, mirroring the
/// breakdown of Figure 7 / Appendix D: routing decision (including any
/// remastering), time on the simulated network, transaction begin (lock
/// acquisition + session waits), stored-procedure logic, and commit.
struct PhaseStats {
  LatencyRecorder routing;
  LatencyRecorder network;
  LatencyRecorder queueing;  // waiting for a worker slot at the data site
  LatencyRecorder begin;
  LatencyRecorder logic;
  LatencyRecorder commit;
};

/// DynaMast proper: lazily replicated multi-master system with dynamic
/// mastership transfer (Sections III-V). Also doubles, via
/// InitialPlacement::kAllAtSiteZero, as the single-master baseline.
class DynaMastSystem final : public SystemInterface {
 public:
  struct Options {
    Cluster::Options cluster;
    selector::SelectorOptions selector;
    InitialPlacement placement = InitialPlacement::kRoundRobin;
    std::vector<SiteId> custom_placement;  // for kCustom
    /// Routing races (a partition remastered away between routing and
    /// begin) are retried this many times.
    uint32_t max_retries = 16;
    /// Reported by name(); lets the single-master configuration identify
    /// itself in experiment output.
    std::string display_name = "dynamast";
  };

  /// Convenience: single-master configuration of the same machinery.
  static Options SingleMasterOptions(Options base) {
    base.placement = InitialPlacement::kAllAtSiteZero;
    base.display_name = "single-master";
    return base;
  }

  /// `partitioner` must outlive the system.
  DynaMastSystem(const Options& options, const Partitioner* partitioner);
  ~DynaMastSystem() override;

  std::string name() const override { return options_.display_name; }
  Status CreateTable(TableId id) override { return cluster_.CreateTable(id); }
  Status LoadRow(const RecordKey& key, std::string value) override;
  void Seal() override;
  Status Execute(ClientState& client, const TxnProfile& profile,
                 const TxnLogic& logic, TxnResult* result) override;
  void Shutdown() override;
  history::Recorder* history() override { return cluster_.history(); }
  trace::Tracer* tracer() override { return cluster_.tracer(); }

  Cluster& cluster() { return cluster_; }
  selector::SiteSelector& site_selector() { return *selector_; }
  PhaseStats& phase_stats() { return phase_stats_; }

 private:
  Status ExecuteWrite(ClientState& client, const TxnProfile& profile,
                      const TxnLogic& logic, TxnResult* result);
  Status ExecuteRead(ClientState& client, const TxnProfile& profile,
                     const TxnLogic& logic, TxnResult* result);

  Options options_;
  const Partitioner* partitioner_;
  Cluster cluster_;
  std::unique_ptr<selector::SiteSelector> selector_;
  PhaseStats phase_stats_;
  bool sealed_ = false;
};

}  // namespace dynamast::core

#endif  // DYNAMAST_CORE_DYNAMAST_SYSTEM_H_
