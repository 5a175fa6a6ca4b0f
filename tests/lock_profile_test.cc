// Unit tests for the lock-contention profiler (common/lock_profile). The
// mutex template is instantiated with the Profile policy directly, so
// these run in every configuration; what DYNAMAST_LOCK_PROFILE changes is
// only whether the production DebugMutex aliases use that policy — the
// last test pins the zero-cost-when-off contract on the default build.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/debug_mutex.h"
#include "common/lock_profile.h"
#include "common/metrics.h"

namespace dynamast::lockprof {
namespace {

using ProfiledMutex = BasicMutex<std::mutex, lockdebug::ProfilePolicy>;
using ProfiledSharedMutex =
    BasicMutex<std::shared_mutex, lockdebug::ProfilePolicy>;

class LockProfileTest : public ::testing::Test {
 protected:
  void SetUp() override { SetRegistryForTest(&registry_); }
  void TearDown() override { SetRegistryForTest(nullptr); }

  uint64_t Acquires(const char* cls) {
    return registry_.CounterValue("lock_acquires_total",
                                  {{"lock_class", cls}});
  }
  uint64_t Contended(const char* cls) {
    return registry_.CounterValue("lock_contended_acquires_total",
                                  {{"lock_class", cls}});
  }
  const LatencyRecorder* WaitUs(const char* cls) {
    return registry_.HistogramRecorder("lock_wait_us",
                                       {{"lock_class", cls}});
  }
  const LatencyRecorder* HoldUs(const char* cls) {
    return registry_.HistogramRecorder("lock_hold_us",
                                       {{"lock_class", cls}});
  }

  metrics::Registry registry_;
};

TEST_F(LockProfileTest, UncontendedAcquiresCountWithoutWaitSamples) {
  ProfiledMutex mu("test.uncontended");
  for (int i = 0; i < 5; ++i) {
    mu.lock();
    mu.unlock();
  }
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();

  EXPECT_EQ(Acquires("test.uncontended"), 6u);
  EXPECT_EQ(Contended("test.uncontended"), 0u);
  const LatencyRecorder* wait = WaitUs("test.uncontended");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 0u);  // wait_us records contended waits only
  const LatencyRecorder* hold = HoldUs("test.uncontended");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 6u);
}

TEST_F(LockProfileTest, ContendedAcquireRecordsMeasuredWait) {
  ProfiledMutex mu("test.contended");
  mu.lock();
  std::thread blocked([&mu] {
    mu.lock();  // must block until the holder releases
    mu.unlock();
  });
  // Hold long enough that the blocked thread's wait lands well above the
  // histogram's microsecond floor.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mu.unlock();
  blocked.join();

  EXPECT_EQ(Acquires("test.contended"), 2u);
  EXPECT_EQ(Contended("test.contended"), 1u);
  const LatencyRecorder* wait = WaitUs("test.contended");
  ASSERT_NE(wait, nullptr);
  ASSERT_EQ(wait->count(), 1u);
  EXPECT_GE(wait->MaxMicros(), 1000u);  // waited most of the 20ms hold
  const LatencyRecorder* hold = HoldUs("test.contended");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 2u);
  EXPECT_GE(hold->MaxMicros(), 1000u);
}

TEST_F(LockProfileTest, SharedMutexProfilesBothSides) {
  ProfiledSharedMutex mu("test.shared");
  mu.lock_shared();
  mu.unlock_shared();
  ASSERT_TRUE(mu.try_lock_shared());
  mu.unlock_shared();
  mu.lock();
  mu.unlock();

  EXPECT_EQ(Acquires("test.shared"), 3u);
  EXPECT_EQ(Contended("test.shared"), 0u);
  // Hold segments are exclusive-only: the shared holds left no sample.
  const LatencyRecorder* hold = HoldUs("test.shared");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 1u);
}

TEST_F(LockProfileTest, SameClassNameSharesOneSeries) {
  ProfiledMutex a("test.pooled");
  ProfiledMutex b("test.pooled");
  a.lock();
  a.unlock();
  b.lock();
  b.unlock();
  EXPECT_EQ(Acquires("test.pooled"), 2u);
}

// A condvar wait closes the hold segment and reacquisition opens a new
// one, so time parked on the condvar never counts as holding.
TEST_F(LockProfileTest, CondVarWaitSplitsTheHoldSegment) {
  ProfiledMutex mu("test.cv");
  BasicDebugCondVar<ProfiledMutex> cv;
  std::chrono::steady_clock::duration parked{};
  {
    BasicMutexLock<ProfiledMutex> lock(mu);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(cv.wait_for(mu, std::chrono::milliseconds(20)),
              std::cv_status::timeout);
    parked = std::chrono::steady_clock::now() - start;
  }
  ASSERT_GE(parked, std::chrono::milliseconds(20));

  EXPECT_EQ(Acquires("test.cv"), 1u);  // the reacquisition is not an acquire
  const LatencyRecorder* hold = HoldUs("test.cv");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 2u);  // before the wait, and after it
  // Neither segment contains the parked time.
  EXPECT_LT(hold->MaxMicros(), 20000u);
}

// The off-by-default contract: a default (non-DYNAMAST_LOCK_PROFILE)
// build must export no lock_* families from production DebugMutex use —
// the series exist only when the aliases route through the profiler.
TEST(LockProfileOffTest, DefaultBuildExportsNoLockFamilies) {
#if defined(DYNAMAST_LOCK_PROFILE) && DYNAMAST_LOCK_PROFILE
  GTEST_SKIP() << "profile build: DebugMutex exports lock_* by design";
#else
  {
    DebugMutex mu("site.state");
    MutexLock hold(mu);
  }
  EXPECT_EQ(
      metrics::Registry::Global().CounterValue(
          "lock_acquires_total", {{"lock_class", "site.state"}}),
      0u);
#endif
}

}  // namespace
}  // namespace dynamast::lockprof
