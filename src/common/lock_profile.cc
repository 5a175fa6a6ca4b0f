#include "common/lock_profile.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"

namespace dynamast::lockprof {

struct ClassStats {
  metrics::Counter* acquires = nullptr;
  metrics::Counter* contended = nullptr;
  metrics::Histogram* wait_us = nullptr;
  metrics::Histogram* hold_us = nullptr;
};

namespace {

// Class-name -> stats cache. A plain std::mutex (not even RawMutex): this
// is construction-time infrastructure below every other layer, and
// lock_profile.h must stay includable from debug_mutex.h itself.
struct ClassTable {
  std::mutex mu;
  metrics::Registry* registry = nullptr;  // null -> Global()
  std::map<std::string, std::unique_ptr<ClassStats>> classes;
};

// Leaked intentionally: profiled mutexes with static storage duration may
// release (and thus touch their stats) during process teardown.
ClassTable& Table() {
  static ClassTable* table = new ClassTable();
  return *table;
}

}  // namespace

ClassStats* RegisterClass(const char* name) {
  ClassTable& table = Table();
  std::lock_guard<std::mutex> guard(table.mu);
  auto it = table.classes.find(name);
  if (it != table.classes.end()) return it->second.get();

  metrics::Registry* registry =
      table.registry != nullptr ? table.registry : &metrics::Registry::Global();
  const metrics::Labels labels{{"lock_class", name}};
  auto stats = std::make_unique<ClassStats>();
  stats->acquires = registry->GetCounter("lock_acquires_total", labels);
  stats->contended =
      registry->GetCounter("lock_contended_acquires_total", labels);
  stats->wait_us = registry->GetHistogram("lock_wait_us", labels);
  stats->hold_us = registry->GetHistogram("lock_hold_us", labels);
  ClassStats* out = stats.get();
  table.classes.emplace(name, std::move(stats));
  return out;
}

void SetRegistryForTest(metrics::Registry* registry) {
  ClassTable& table = Table();
  std::lock_guard<std::mutex> guard(table.mu);
  table.registry = registry;
  table.classes.clear();
}

void RecordAcquire(ClassStats* stats, bool contended, uint64_t wait_ns) {
  stats->acquires->Increment();
  if (contended) {
    stats->contended->Increment();
    stats->wait_us->Observe(wait_ns / 1000);
  }
}

void RecordHold(ClassStats* stats, uint64_t hold_ns) {
  stats->hold_us->Observe(hold_ns / 1000);
}

}  // namespace dynamast::lockprof
