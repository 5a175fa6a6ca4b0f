#include "common/sim_clock.h"

#include <algorithm>
#include <thread>

namespace dynamast::sim {

namespace {

struct ThreadClock {
  std::chrono::nanoseconds debt{0};
  std::chrono::nanoseconds carry{0};
};

thread_local ThreadClock tls_clock;

}  // namespace

void Charge(std::chrono::nanoseconds d) {
  if (d.count() > 0) tls_clock.debt += d;
}

SimClock::SimClock(metrics::Registry* registry)
    : overshoot_us_(metrics::Registry::OrGlobal(registry)->GetHistogram(
          "sim_sleep_overshoot_us")) {}

void SimClock::Settle(std::chrono::nanoseconds extra) const {
  ThreadClock& clock = tls_clock;
  const std::chrono::nanoseconds owed = clock.debt + extra;
  clock.debt = {};
  if (owed <= clock.carry) {
    clock.carry -= std::max(owed, std::chrono::nanoseconds(0));
    return;
  }
  const std::chrono::nanoseconds request = owed - clock.carry;
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(request);
  const std::chrono::nanoseconds overshoot =
      std::max(std::chrono::steady_clock::now() - start - request,
               std::chrono::nanoseconds(0));
  clock.carry = std::min<std::chrono::nanoseconds>(overshoot, kMaxCarry);
  overshoot_us_->ObserveDuration(overshoot);
}

}  // namespace dynamast::sim
