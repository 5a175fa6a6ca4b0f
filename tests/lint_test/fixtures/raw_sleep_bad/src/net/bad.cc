// Fixture: a network delivery that sleeps until a deadline directly.
// A comment naming std::this_thread::sleep_until is not a violation.
#include <chrono>
#include <thread>

void Deliver(std::chrono::steady_clock::time_point done) {
  std::this_thread::sleep_until(done);
}
