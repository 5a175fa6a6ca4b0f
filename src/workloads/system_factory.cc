#include "workloads/system_factory.h"

#include "baselines/leap_system.h"
#include "baselines/partitioned_system.h"
#include "baselines/static_placement.h"
#include "core/dynamast_system.h"

namespace dynamast::workloads {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kDynaMast:
      return "dynamast";
    case SystemKind::kSingleMaster:
      return "single-master";
    case SystemKind::kMultiMaster:
      return "multi-master";
    case SystemKind::kPartitionStore:
      return "partition-store";
    case SystemKind::kLeap:
      return "leap";
  }
  return "unknown";
}

std::vector<SystemKind> AllSystems() {
  return {SystemKind::kDynaMast, SystemKind::kSingleMaster,
          SystemKind::kMultiMaster, SystemKind::kPartitionStore,
          SystemKind::kLeap};
}

namespace {

// Strips the wall-clock inputs out of the selector's workload model (see
// DeploymentOptions::deterministic).
void MakeSelectorDeterministic(selector::SelectorOptions* selector) {
  selector->adaptive_sampling = false;
  selector->stats.inter_txn_window = std::chrono::hours(24 * 365);
  selector->stats.sample_ttl = std::chrono::hours(24 * 365);
}

core::Cluster::Options ClusterOptions(const DeploymentOptions& options) {
  core::Cluster::Options cluster;
  cluster.num_sites = options.num_sites;
  cluster.network.one_way_latency = options.one_way_latency;
  cluster.network.charge_delays = options.charge_network;
  cluster.site.worker_slots = options.worker_slots;
  cluster.site.read_op_cost = options.read_op_cost;
  cluster.site.write_op_cost = options.write_op_cost;
  cluster.site.apply_op_cost = options.apply_op_cost;
  cluster.record_history = options.record_history;
  cluster.metrics = options.metrics;
  cluster.trace = options.trace;
  return cluster;
}

}  // namespace

std::unique_ptr<core::SystemInterface> MakeSystem(
    SystemKind kind, const DeploymentOptions& options,
    const Partitioner& partitioner) {
  const size_t num_partitions = partitioner.NumPartitions();
  const std::vector<SiteId> placement =
      options.static_placement.empty()
          ? baselines::RangePlacement(num_partitions, options.num_sites)
          : options.static_placement;
  switch (kind) {
    case SystemKind::kDynaMast: {
      core::DynaMastSystem::Options o;
      o.cluster = ClusterOptions(options);
      o.selector.weights = options.weights;
      o.selector.sample_rate = options.sample_rate;
      o.selector.seed = options.seed;
      if (options.deterministic) MakeSelectorDeterministic(&o.selector);
      o.placement = core::InitialPlacement::kRoundRobin;
      return std::make_unique<core::DynaMastSystem>(o, &partitioner);
    }
    case SystemKind::kSingleMaster: {
      core::DynaMastSystem::Options o;
      o.cluster = ClusterOptions(options);
      o.selector.seed = options.seed;
      if (options.deterministic) MakeSelectorDeterministic(&o.selector);
      o = core::DynaMastSystem::SingleMasterOptions(std::move(o));
      return std::make_unique<core::DynaMastSystem>(o, &partitioner);
    }
    case SystemKind::kMultiMaster: {
      auto o = baselines::PartitionedSystem::MultiMaster(
          ClusterOptions(options), placement);
      o.seed = options.seed;
      return std::make_unique<baselines::PartitionedSystem>(o, &partitioner);
    }
    case SystemKind::kPartitionStore: {
      auto o = baselines::PartitionedSystem::PartitionStore(
          ClusterOptions(options), placement);
      o.seed = options.seed;
      return std::make_unique<baselines::PartitionedSystem>(o, &partitioner);
    }
    case SystemKind::kLeap: {
      baselines::LeapSystem::Options o;
      o.cluster = ClusterOptions(options);
      o.placement = placement;
      return std::make_unique<baselines::LeapSystem>(o, &partitioner);
    }
  }
  return nullptr;
}

}  // namespace dynamast::workloads
