#include "common/invariant_checker.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace dynamast::invariants {

namespace {
// Function pointer set by tests: release store / acquire load.
std::atomic<FailureHandler> g_handler{nullptr};
}  // namespace

void Failure(const char* file, int line, const char* expr,
             const std::string& message) {
  std::string report = "DYNAMAST INVARIANT VIOLATED at ";
  report += file;
  report += ":" + std::to_string(line);
  report += "\n  expression: ";
  report += expr;
  report += "\n  ";
  report += message;
  report += "\n";
  FailureHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(report.c_str());
    // A test handler normally longjmps/throws out of the calling frame;
    // if it returns we still must not, so fall through to abort.
  }
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

void SetFailureHandlerForTest(FailureHandler handler) {
  g_handler.store(handler, std::memory_order_release);
}

}  // namespace dynamast::invariants
