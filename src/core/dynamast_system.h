#ifndef DYNAMAST_CORE_DYNAMAST_SYSTEM_H_
#define DYNAMAST_CORE_DYNAMAST_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
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
  };

  /// Convenience: single-master configuration of the same machinery.
  static Options SingleMasterOptions(Options base) {
    base.placement = InitialPlacement::kAllAtSiteZero;
    return base;
  }

  /// `partitioner` must outlive the system.
  DynaMastSystem(const Options& options, const Partitioner* partitioner);
  ~DynaMastSystem() override;

  /// "single-master" under kAllAtSiteZero, "dynamast" otherwise.
  std::string name() const override {
    return options_.placement == InitialPlacement::kAllAtSiteZero
               ? "single-master"
               : "dynamast";
  }
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

 private:
  Status ExecuteWrite(ClientState& client, const TxnProfile& profile,
                      const TxnLogic& logic, TxnResult* result);
  Status ExecuteRead(ClientState& client, const TxnProfile& profile,
                     const TxnLogic& logic, TxnResult* result);
  // A write transaction's client RPC round trip (to the selector or the
  // data site), timed into txn_phase_us{phase=network}.
  void ClientRoundTrip(size_t request_bytes, size_t response_bytes);

  // DynaMast's own write-transaction phase timers, the front half of the
  // breakdown of Figure 7 / Appendix D: txn_phase_us{phase} for the
  // routing decision (including any remastering) and each client RPC. The
  // slot wait between the RPC and begin is site_admission_wait_us; begin,
  // execute and commit are Cluster::write_phases().
  struct PhaseHistograms {
    metrics::Histogram* route = nullptr;
    metrics::Histogram* network = nullptr;
  };

  Options options_;
  const Partitioner* partitioner_;
  Cluster cluster_;
  std::unique_ptr<selector::SiteSelector> selector_;
  PhaseHistograms phase_us_;
  bool sealed_ = false;
};

}  // namespace dynamast::core

#endif  // DYNAMAST_CORE_DYNAMAST_SYSTEM_H_
