#ifndef DYNAMAST_PERFBENCH_PROBES_H_
#define DYNAMAST_PERFBENCH_PROBES_H_

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

/// The traced run's single-threaded layer probes (plus the 4-thread
/// metrics-registry probe), each timed by the benchmark's own clock around
/// one public call, against a freshly loaded DynaMast deployment of the
/// workload and standalone storage/log objects. Inputs replay profiles the
/// workload's own (seeded) generator produces. Returns metric name ->
/// value (the `site.*` probes, `selector.*`, `storage.*` except RSS,
/// `log.*`, `net.send_overshoot_us` and `common.*`).
std::map<std::string, double> RunLayerProbes(
    const WorkloadSpec& spec, const workloads::DeploymentOptions& deployment,
    workloads::Workload& workload);

/// Bytes of user data the workload loads (key + value per row).
double UserBytes(const WorkloadSpec& spec, workloads::Workload& workload);

}  // namespace perfbench

#endif  // DYNAMAST_PERFBENCH_PROBES_H_
