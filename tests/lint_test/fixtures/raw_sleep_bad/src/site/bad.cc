// Fixture: a site-layer charge that sleeps directly instead of going
// through the sim clock.
#include <chrono>
#include <thread>

void ChargeWrite() {
  std::this_thread::sleep_for(std::chrono::microseconds(500));
}
