#ifndef DYNAMAST_PERFBENCH_PROCESS_STATS_H_
#define DYNAMAST_PERFBENCH_PROCESS_STATS_H_

#include <cstdint>

namespace perfbench {

/// Process-wide resource counters at one instant. The allocation count
/// comes from the counting `operator new` linked into this binary only.
struct ProcessSample {
  /// Process CPU time (all threads), ns-precise.
  double cpu_s = 0;
  /// getrusage's user/system split of it (tick-sampled).
  double user_s = 0;
  double sys_s = 0;
  uint64_t voluntary_switches = 0;
  uint64_t involuntary_switches = 0;
  uint64_t allocations = 0;
};

ProcessSample SampleProcess();

/// `b - a`, field by field.
ProcessSample Delta(const ProcessSample& a, const ProcessSample& b);

/// The `Threads:` line of /proc/self/status (0 if unreadable).
uint64_t ThreadCount();

/// CPU time the hypervisor ran other guests while this VM's CPUs wanted to
/// run (the `steal` column of /proc/stat, in clock ticks; 0 if unreadable).
uint64_t HostStealTicks();

/// Resident set size in bytes, from /proc/self/statm (0 if unreadable).
uint64_t ResidentBytes();

/// Returns freed heap pages to the kernel so an RSS delta measures live
/// memory rather than allocator reuse.
void TrimHeap();

}  // namespace perfbench

#endif  // DYNAMAST_PERFBENCH_PROCESS_STATS_H_
