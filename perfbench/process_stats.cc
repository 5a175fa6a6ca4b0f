#include "process_stats.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {
namespace {

// Allocation counter sharded by thread so the count adds no shared cache
// line to the allocation path of the system under test.
constexpr size_t kShards = 64;
struct alignas(64) Shard {
  std::atomic<uint64_t> count{0};
};
std::array<Shard, kShards> g_alloc_shards;
std::atomic<uint32_t> g_next_shard{0};

inline void CountAllocation() {
  thread_local uint32_t shard = kShards;
  if (shard == kShards) {
    shard = g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  }
  g_alloc_shards[shard].count.fetch_add(1, std::memory_order_relaxed);
}

uint64_t AllocationCount() {
  uint64_t total = 0;
  for (const Shard& s : g_alloc_shards) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

ProcessSample SampleProcess() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  ProcessSample sample;
  sample.cpu_s = static_cast<double>(cpu.tv_sec) +
                 static_cast<double>(cpu.tv_nsec) / 1e9;
  sample.user_s = Seconds(usage.ru_utime);
  sample.sys_s = Seconds(usage.ru_stime);
  sample.voluntary_switches = static_cast<uint64_t>(usage.ru_nvcsw);
  sample.involuntary_switches = static_cast<uint64_t>(usage.ru_nivcsw);
  sample.allocations = AllocationCount();
  return sample;
}

ProcessSample Delta(const ProcessSample& a, const ProcessSample& b) {
  ProcessSample d;
  d.cpu_s = b.cpu_s - a.cpu_s;
  d.user_s = b.user_s - a.user_s;
  d.sys_s = b.sys_s - a.sys_s;
  d.voluntary_switches = b.voluntary_switches - a.voluntary_switches;
  d.involuntary_switches = b.involuntary_switches - a.involuntary_switches;
  d.allocations = b.allocations - a.allocations;
  return d;
}

uint64_t ThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::strtoull(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

uint64_t HostStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

}  // namespace perfbench

// ---- Counting global allocation functions (this binary only) -------------

void* operator new(std::size_t size) {
  perfbench::CountAllocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::CountAllocation();
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::CountAllocation();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
