#ifndef DYNAMAST_SITE_SITE_CONFIG_H_
#define DYNAMAST_SITE_SITE_CONFIG_H_

#include <chrono>
#include <cstdint>

#include "common/key.h"

namespace dynamast::site {

/// Configuration of one data site. The worker-slot count and per-operation
/// costs stand in for the paper's 12-core data site machines (see
/// DESIGN.md): a site can execute at most `worker_slots` transactions
/// concurrently, each read costing `read_op_cost` and each write
/// `write_op_cost` of simulated CPU, so an overloaded site queues — which
/// is precisely the single-master bottleneck the paper measures. A site
/// always rejects a write to a partition it does not master (NotMaster).
struct SiteOptions {
  SiteId site_id = 0;
  uint32_t num_sites = 1;

  /// Concurrent transaction slots ("cores") per site.
  size_t worker_slots = 4;

  /// Simulated CPU cost of one snapshot read inside a transaction.
  std::chrono::microseconds read_op_cost{10};

  /// Simulated CPU cost of one write (index update, version creation,
  /// logging) inside a transaction. Writes are far more expensive than
  /// reads in update-path cost, which is what makes a single master site
  /// saturate under update load.
  std::chrono::microseconds write_op_cost{500};

  /// Simulated cost of applying one propagated write as part of a refresh
  /// transaction. Charged on the applier (delaying further refresh
  /// application — replication lag), not on a worker slot.
  std::chrono::microseconds apply_op_cost{100};

  /// How long a transaction waits for a record write lock before timing
  /// out (write-write conflicts block rather than abort, Section V-A1).
  std::chrono::milliseconds lock_timeout{2000};

  /// How long begin waits for session freshness / grant minimum versions.
  std::chrono::milliseconds freshness_timeout{5000};

};

}  // namespace dynamast::site

#endif  // DYNAMAST_SITE_SITE_CONFIG_H_
