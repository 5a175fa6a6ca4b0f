#include "common/debug_mutex.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dynamast::lockdebug {

namespace {

struct HeldLock {
  const void* instance;
  const char* name;
  uint64_t rank;
};

// One lock held by the current thread. A plain vector: held counts are
// tiny (2-4), and the stack is per-thread so no synchronization is needed.
thread_local std::vector<HeldLock> tls_held;

// Process-wide lock-order graph over lock-class names. Guarded by its own
// plain std::mutex (never a DebugMutex — the checker must not check
// itself). Node identity is by name *content*: the same literal compiled
// into different translation units must land on one node.
struct Graph {
  std::mutex mu;
  std::map<std::string, std::set<std::string>, std::less<>> edges;
  ViolationHandler handler = nullptr;

  bool Reaches(const std::string& from, const std::string& to,
               std::vector<std::string>* path) const {
    if (from == to) {
      path->push_back(from);
      return true;
    }
    auto it = edges.find(from);
    if (it == edges.end()) return false;
    path->push_back(from);
    for (const std::string& next : it->second) {
      if (Reaches(next, to, path)) return true;
    }
    path->pop_back();
    return false;
  }
};

Graph& GetGraph() {
  static Graph* graph = new Graph();  // leaked: outlives static dtors
  return *graph;
}

std::string DescribeHeld() {
  std::string out;
  for (const HeldLock& h : tls_held) {
    out += "  held: \"";
    out += h.name;
    out += "\"";
    if (h.rank != kNoRank) out += " rank " + std::to_string(h.rank);
    out += "\n";
  }
  return out;
}

[[noreturn]] void DefaultAbort(const std::string& report) {
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

void Violation(const std::string& report) {
  ViolationHandler handler;
  {
    std::lock_guard<std::mutex> guard(GetGraph().mu);
    handler = GetGraph().handler;
  }
  if (handler != nullptr) {
    handler(report.c_str());
    return;
  }
  DefaultAbort(report);
}

// Checks `instance` against the thread's held stack without recording
// edges; shared by OnLock and OnTryLock.
void CheckRecursion(const void* instance, const char* name) {
  for (const HeldLock& h : tls_held) {
    if (h.instance == instance) {
      Violation(std::string("DebugMutex: recursive acquisition of \"") + name +
                "\" (self-deadlock)\n" + DescribeHeld());
      return;
    }
  }
}

}  // namespace

void OnLock(const void* instance, const char* name, uint64_t rank) {
  CheckRecursion(instance, name);
  // Order edges are per class, so a run of held locks of one class (a
  // sorted partition-lock set) consults the graph once, not once per lock.
  const char* checked = nullptr;
  for (const HeldLock& h : tls_held) {
    if (std::strcmp(h.name, name) == 0) {
      // Same class: only rank-disciplined nesting is legal.
      if (h.rank == kNoRank || rank == kNoRank || h.rank >= rank) {
        Violation(std::string("DebugMutex: same-class nesting of \"") + name +
                  "\" without ascending ranks (held rank " +
                  (h.rank == kNoRank ? "none" : std::to_string(h.rank)) +
                  ", acquiring rank " +
                  (rank == kNoRank ? "none" : std::to_string(rank)) + ")\n" +
                  DescribeHeld());
        return;
      }
      continue;
    }
    if (checked != nullptr && std::strcmp(checked, h.name) == 0) continue;
    checked = h.name;
    std::string report;
    {
      Graph& graph = GetGraph();
      std::lock_guard<std::mutex> guard(graph.mu);
      auto& successors = graph.edges[h.name];
      if (successors.find(name) != successors.end()) continue;  // known edge
      // New edge h.name -> name: does `name` already reach h.name?
      std::vector<std::string> path;
      if (graph.Reaches(name, h.name, &path)) {
        report = "DebugMutex: lock-order inversion acquiring \"";
        report += name;
        report += "\" while holding \"";
        report += h.name;
        report += "\"\n  established order: ";
        for (const std::string& node : path) {
          report += "\"" + node + "\" -> ";
        }
        report += "\"";
        report += h.name;
        report += "\"\n  this acquisition closes the cycle: \"";
        report += h.name;
        report += "\" -> \"";
        report += name;
        report += "\"\n";
        report += DescribeHeld();
      } else {
        successors.insert(name);
      }
    }
    if (!report.empty()) Violation(report);
  }
  tls_held.push_back(HeldLock{instance, name, rank});
}

void OnTryLock(const void* instance, const char* name, uint64_t rank) {
  CheckRecursion(instance, name);
  tls_held.push_back(HeldLock{instance, name, rank});
}

void OnUnlock(const void* instance) {
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (it->instance == instance) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
  Violation("DebugMutex: unlock of a mutex this thread does not hold\n" +
            DescribeHeld());
}

size_t EdgeCount() {
  Graph& graph = GetGraph();
  std::lock_guard<std::mutex> guard(graph.mu);
  size_t count = 0;
  for (const auto& [node, successors] : graph.edges) {
    count += successors.size();
  }
  return count;
}

size_t HeldCount() { return tls_held.size(); }

void ResetGraphForTest() {
  Graph& graph = GetGraph();
  std::lock_guard<std::mutex> guard(graph.mu);
  graph.edges.clear();
}

void SetViolationHandlerForTest(ViolationHandler handler) {
  Graph& graph = GetGraph();
  std::lock_guard<std::mutex> guard(graph.mu);
  graph.handler = handler;
}

}  // namespace dynamast::lockdebug
