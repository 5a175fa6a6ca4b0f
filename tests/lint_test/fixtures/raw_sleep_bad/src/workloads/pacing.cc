// Fixture: the workload driver paces clients with real sleeps; that is
// not a simulated cost, and workloads/ is outside the rule's directories.
#include <chrono>
#include <thread>

void Pace(std::chrono::steady_clock::time_point next) {
  std::this_thread::sleep_until(next);
}
