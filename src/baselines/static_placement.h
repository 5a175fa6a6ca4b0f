#ifndef DYNAMAST_BASELINES_STATIC_PLACEMENT_H_
#define DYNAMAST_BASELINES_STATIC_PLACEMENT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/key.h"

namespace dynamast::baselines {

/// Static partition->site placements for the baseline systems. The paper
/// runs the offline Schism partitioner and reports that it selects range
/// partitioning for YCSB and by-warehouse partitioning for TPC-C
/// (Sections VI-B1, VI-B2).
///
/// RangePlacement assigns *chunks* of contiguous partitions to sites in
/// round-robin order. Chunking reflects the balance/locality tradeoff an
/// offline partitioner makes: giving each site one giant contiguous
/// quarter would minimize boundary crossings but leaves the system at the
/// mercy of transient client-affinity hotspots, so balanced partitioners
/// interleave ranges at a finer grain. The default chunk keeps ~8 chunks
/// per site. With few partitions (TPC-C warehouses) the chunk is 1, i.e.
/// classic by-warehouse placement.
inline std::vector<SiteId> RangePlacement(size_t num_partitions,
                                          uint32_t num_sites,
                                          size_t chunk = 0) {
  if (chunk == 0) {
    chunk = std::max<size_t>(1, num_partitions / (num_sites * 8));
  }
  std::vector<SiteId> placement(num_partitions, 0);
  for (size_t p = 0; p < num_partitions; ++p) {
    placement[p] = static_cast<SiteId>((p / chunk) % num_sites);
  }
  return placement;
}

}  // namespace dynamast::baselines

#endif  // DYNAMAST_BASELINES_STATIC_PLACEMENT_H_
