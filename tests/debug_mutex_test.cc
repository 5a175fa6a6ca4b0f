// Tests for the DebugMutex lock-order checker (common/debug_mutex.h).
// The mutex template is instantiated with the Check policy directly, so
// these run in every build configuration regardless of
// DYNAMAST_LOCK_DEBUG.

#include "common/debug_mutex.h"

#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace dynamast::lockdebug {
namespace {

using CheckMutex = BasicMutex<std::mutex, CheckPolicy>;
using CheckSharedMutex = BasicMutex<std::shared_mutex, CheckPolicy>;

// Routes violations into an exception so a test observes detection
// without a death test; restores abort-on-violation on scope exit.
class ThrowOnViolation {
 public:
  ThrowOnViolation() {
    SetViolationHandlerForTest(
        [](const char* report) { throw std::runtime_error(report); });
  }
  ~ThrowOnViolation() { SetViolationHandlerForTest(nullptr); }
};

std::string Caught(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(DebugMutexTest, ConsistentOrderIsSilent) {
  ResetGraphForTest();
  CheckMutex a("silent.A");
  CheckMutex b("silent.B");
  for (int i = 0; i < 3; ++i) {
    std::lock_guard ga(a);
    std::lock_guard gb(b);
  }
  EXPECT_EQ(HeldCount(), 0u);
  EXPECT_GE(EdgeCount(), 1u);
}

TEST(DebugMutexTest, DetectsAbBaInversion) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckMutex a("inv.A");
  CheckMutex b("inv.B");
  {
    std::lock_guard ga(a);
    std::lock_guard gb(b);  // establishes inv.A -> inv.B
  }
  std::lock_guard gb(b);
  const std::string report = Caught([&] { a.lock(); });  // inv.B -> inv.A
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
  EXPECT_NE(report.find("inv.A"), std::string::npos) << report;
  EXPECT_NE(report.find("inv.B"), std::string::npos) << report;
}

TEST(DebugMutexTest, DetectsInversionAcrossThreads) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckMutex a("xthr.A");
  CheckMutex b("xthr.B");
  // Thread 1 establishes A -> B and releases both before thread 2 runs,
  // so there is no actual deadlock — only the ordering hazard.
  std::thread t([&] {
    std::lock_guard ga(a);
    std::lock_guard gb(b);
  });
  t.join();
  std::string report;
  std::thread u([&] {
    std::lock_guard gb(b);
    report = Caught([&] { a.lock(); });
  });
  u.join();
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
}

TEST(DebugMutexTest, DetectsThreeLockCycle) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckMutex a("tri.A");
  CheckMutex b("tri.B");
  CheckMutex c("tri.C");
  {
    std::lock_guard ga(a);
    std::lock_guard gb(b);  // tri.A -> tri.B
  }
  {
    std::lock_guard gb(b);
    std::lock_guard gc(c);  // tri.B -> tri.C
  }
  std::lock_guard gc(c);
  const std::string report = Caught([&] { a.lock(); });  // closes the cycle
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
  EXPECT_NE(report.find("tri.B"), std::string::npos) << report;
}

TEST(DebugMutexTest, DetectsRecursiveAcquisition) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckMutex a("rec.A");
  a.lock();
  const std::string report = Caught([&] { a.lock(); });
  EXPECT_NE(report.find("recursive acquisition"), std::string::npos) << report;
  a.unlock();
}

TEST(DebugMutexTest, SameClassNestingRequiresAscendingRanks) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckMutex p0("ranked.partition", 0);
  CheckMutex p1("ranked.partition", 1);
  {  // ascending is the sorted-order protocol: silent
    std::lock_guard g0(p0);
    std::lock_guard g1(p1);
  }
  std::lock_guard g1(p1);
  const std::string report = Caught([&] { p0.lock(); });  // descending
  EXPECT_NE(report.find("same-class nesting"), std::string::npos) << report;
}

TEST(DebugMutexTest, SameClassNestingWithoutRanksIsAViolation) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckMutex a("unranked.X");
  CheckMutex b("unranked.X");
  std::lock_guard ga(a);
  const std::string report = Caught([&] { b.lock(); });
  EXPECT_NE(report.find("same-class nesting"), std::string::npos) << report;
}

TEST(DebugMutexTest, TryLockRecordsHeldButNoEdges) {
  ResetGraphForTest();
  CheckMutex a("try.A");
  CheckMutex b("try.B");
  ASSERT_TRUE(a.try_lock());
  EXPECT_EQ(HeldCount(), 1u);
  EXPECT_EQ(EdgeCount(), 0u);  // try_lock cannot complete a deadlock cycle
  b.lock();                    // blocking: records try.A -> try.B
  EXPECT_EQ(EdgeCount(), 1u);
  b.unlock();
  a.unlock();
  EXPECT_EQ(HeldCount(), 0u);
}

TEST(DebugMutexTest, SharedMutexParticipatesInOrdering) {
  ResetGraphForTest();
  ThrowOnViolation guard;
  CheckSharedMutex a("shared.A");
  CheckMutex b("shared.B");
  {
    a.lock_shared();
    std::lock_guard gb(b);  // shared.A -> shared.B
    a.unlock_shared();
  }
  std::lock_guard gb(b);
  const std::string report = Caught([&] { a.lock_shared(); });
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
}

TEST(DebugMutexTest, CondVarWaitReleasesAndReacquires) {
  ResetGraphForTest();
  CheckMutex m("cv.M");
  BasicDebugCondVar<CheckMutex> cv;
  bool ready = false;
  std::thread t([&] {
    std::lock_guard g(m);  // must be acquirable while the main thread waits
    ready = true;
    cv.notify_all();
  });
  {
    BasicMutexLock<CheckMutex> lock(m);
    cv.wait(m, [&] { return ready; });
    EXPECT_EQ(HeldCount(), 1u);  // reacquired after the wait
  }
  t.join();
  EXPECT_EQ(HeldCount(), 0u);
}

TEST(DebugMutexTest, CondVarWaitUntilTimesOut) {
  ResetGraphForTest();
  CheckMutex m("cvto.M");
  BasicDebugCondVar<CheckMutex> cv;
  BasicMutexLock<CheckMutex> lock(m);
  const auto r = cv.wait_until(
      m, std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
  EXPECT_EQ(r, std::cv_status::timeout);
  EXPECT_EQ(HeldCount(), 1u);
}

// The real abort path (no handler installed): a deliberate A->B / B->A
// inversion kills the process with a cycle report on stderr.
TEST(DebugMutexDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetViolationHandlerForTest(nullptr);
        ResetGraphForTest();
        CheckMutex a("death.A");
        CheckMutex b("death.B");
        {
          std::lock_guard ga(a);
          std::lock_guard gb(b);
        }
        std::lock_guard gb(b);
        a.lock();
      },
      "lock-order inversion");
}

TEST(DebugMutexTest, PlainWrappersForwardLocking) {
  BasicMutex<std::mutex, PlainPolicy> m("plain.M");
  BasicMutex<std::shared_mutex, PlainPolicy> sm("plain.SM");
  {
    std::lock_guard g(m);
    std::shared_lock s(sm);
  }
  EXPECT_TRUE(m.try_lock());
  m.unlock();
  sm.lock();
  sm.unlock();
  // The Plain policy never touches the checker.
  EXPECT_EQ(HeldCount(), 0u);
}

// The production alias routes through the build-selected policy: the
// checker sees DebugMutex only in DYNAMAST_LOCK_DEBUG builds.
TEST(DebugMutexTest, ProductionAliasMatchesBuild) {
  ResetGraphForTest();
  DebugMutex m("alias.M");
  MutexLock hold(m);
#if defined(DYNAMAST_LOCK_DEBUG) && DYNAMAST_LOCK_DEBUG
  ThrowOnViolation guard;
  // Any other policy would self-deadlock on the recursive lock below.
  ASSERT_EQ(HeldCount(), 1u);
  const std::string report = Caught([&] { m.lock(); });
  EXPECT_NE(report.find("recursive acquisition"), std::string::npos) << report;
#else
  EXPECT_EQ(HeldCount(), 0u);
#endif
}

}  // namespace
}  // namespace dynamast::lockdebug
