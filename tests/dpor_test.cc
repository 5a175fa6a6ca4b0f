// Engine-direct tests for the explore scheduler (common/scheduler) and
// the DPOR driver (common/dpor). These bypass the hook-site macros and
// call the engine API directly, so they run identically in default and
// -DDYNAMAST_SCHED_FUZZ=ON builds: trace round-trip, explore run ->
// forced-prefix replay determinism on a racy toy program, divergence and
// stall accounting, explore-mode serial determinism, and DPOR's
// executed/pruned accounting on conflicting vs independent threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/dpor.h"
#include "common/sched_trace.h"
#include "common/scheduler.h"

namespace dynamast::sched {
namespace {

// ---- Trace container -------------------------------------------------

TEST(SchedTraceTest, SerializeParseRoundTrips) {
  Trace t;
  t.seed = 12345;
  t.meta["system"] = "dynamast";
  t.meta["workload"] = "ycsb with spaces";  // escaping exercised
  t.threads = {"main", "client/0", "odd %name"};
  t.objects = {{"site.state", "main", 0},
               {"site.state", "main", 1},
               {"log append", "client/0", 0}};
  t.entries = {{0, OpKind::kMutexLock, 0},
               {1, OpKind::kMutexUnlock, 0},
               {2, OpKind::kLogAppend, 2},
               {0, OpKind::kNetDeliver, 1},
               {1, OpKind::kGateGrant, 1},
               {2, OpKind::kMutexLockShared, 0},
               {2, OpKind::kMutexUnlockShared, 0},
               {0, OpKind::kMarker, 0}};

  Trace parsed;
  ASSERT_TRUE(Trace::Parse(t.Serialize(), &parsed).ok());
  EXPECT_EQ(parsed.seed, t.seed);
  EXPECT_EQ(parsed.meta, t.meta);
  EXPECT_EQ(parsed.threads, t.threads);
  ASSERT_EQ(parsed.objects.size(), t.objects.size());
  for (size_t i = 0; i < t.objects.size(); ++i) {
    EXPECT_TRUE(parsed.objects[i] == t.objects[i]) << "object " << i;
  }
  ASSERT_EQ(parsed.entries.size(), t.entries.size());
  for (size_t i = 0; i < t.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].thread, t.entries[i].thread) << i;
    EXPECT_EQ(parsed.entries[i].kind, t.entries[i].kind) << i;
    EXPECT_EQ(parsed.entries[i].object, t.entries[i].object) << i;
  }
}

TEST(SchedTraceTest, FileRoundTripAndCorruptionDetection) {
  Trace t;
  t.seed = 7;
  t.threads = {"main"};
  t.objects = {{"lock", "main", 0}};
  t.entries = {{0, OpKind::kMutexLock, 0}, {0, OpKind::kMutexUnlock, 0}};
  const std::string path = ::testing::TempDir() + "sched_trace_roundtrip.txt";
  ASSERT_TRUE(t.DumpToFile(path).ok());
  Trace loaded;
  ASSERT_TRUE(Trace::LoadFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.entries.size(), 2u);

  Trace bad;
  EXPECT_FALSE(Trace::Parse("e 0 notakind 0\n", &bad).ok());
  EXPECT_FALSE(Trace::Parse("seed zebra\n", &bad).ok());
}

TEST(SchedTraceTest, ConflictRelation) {
  // Only shared-shared and markers commute; everything else on one object
  // conflicts.
  EXPECT_FALSE(OpsConflict(OpKind::kMutexLockShared, OpKind::kMutexLockShared));
  EXPECT_FALSE(OpsConflict(OpKind::kMarker, OpKind::kMarker));
  EXPECT_FALSE(OpsConflict(OpKind::kMarker, OpKind::kMutexLock));
  EXPECT_TRUE(OpsConflict(OpKind::kMutexLock, OpKind::kMutexLock));
  EXPECT_TRUE(OpsConflict(OpKind::kMutexLock, OpKind::kMutexLockShared));
  EXPECT_TRUE(OpsConflict(OpKind::kLogAppend, OpKind::kLogAppend));
  EXPECT_TRUE(OpsConflict(OpKind::kNetDeliver, OpKind::kNetDeliver));
}

// ---- Toy racy program ------------------------------------------------
//
// `threads` workers, each appending its id to a shared vector `iters`
// times under a real mutex whose operations are traced through the engine
// API. The appended sequence IS the scheduling decision stream: equal
// sequences == equal schedules.

struct ToyResult {
  std::vector<int> order;
};

ToyResult RunToy(int threads, int iters, uint32_t extra_independent = 0) {
  ToyResult result;
  std::mutex mu;
  const uint32_t uid = RegisterObject("toy.lock");
  std::vector<std::thread> workers;
  workers.reserve(threads + extra_independent);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard guard("toy/" + std::to_string(t));
      for (int i = 0; i < iters; ++i) {
        {
          OpScope op(OpKind::kMutexLock, uid);
          mu.lock();
        }
        result.order.push_back(t);
        Op(OpKind::kMutexUnlock, uid);
        mu.unlock();
      }
    });
  }
  // Independent workers touch their own private object: their position in
  // the schedule is irrelevant to the outcome, which is exactly what DPOR
  // must prove and prune.
  for (uint32_t t = 0; t < extra_independent; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard guard("indep/" + std::to_string(t));
      std::mutex private_mu;
      const uint32_t my_uid = RegisterObject("toy.private");
      for (int i = 0; i < iters; ++i) {
        {
          OpScope op(OpKind::kMutexLock, my_uid);
          private_mu.lock();
        }
        Op(OpKind::kMutexUnlock, my_uid);
        private_mu.unlock();
      }
    });
  }
  {
    ScopedBlocked blocked;
    for (auto& w : workers) w.join();
  }
  return result;
}

// A seeded, preemption-bounded explore run of the toy program: the
// recording every replay test starts from.
Trace RecordToy(uint64_t seed, int threads, int iters,
                std::vector<int>* order) {
  ResetIdentities();
  ExploreOptions eo;
  eo.seed = seed;
  eo.preemption_bound = 2;
  eo.fresh_session = true;
  eo.await_threads = static_cast<size_t>(threads);
  StartExplore(eo);
  *order = RunToy(threads, iters).order;
  return StopExplore().trace;
}

// Replays `trace` by forced prefix around one toy run.
ExploreRun ReplayToy(const Trace& trace, int threads, int iters,
                     std::vector<int>* order) {
  ResetIdentities();
  StartExplore(ReplayOptions(trace));
  *order = RunToy(threads, iters).order;
  return StopExplore();
}

TEST(RecordReplayTest, ReplayReproducesRecordedInterleaving) {
  std::vector<int> recorded;
  const Trace trace = RecordToy(/*seed=*/99, 3, 8, &recorded);
  ASSERT_EQ(recorded.size(), 24u);
  // Lock + unlock per append, a start marker per worker, and main's
  // rejoin marker after the joins.
  EXPECT_EQ(trace.entries.size(), 52u);

  for (int round = 0; round < 2; ++round) {
    std::vector<int> replayed;
    const ExploreRun r = ReplayToy(trace, 3, 8, &replayed);
    EXPECT_FALSE(r.diverged) << "round " << round;
    EXPECT_EQ(r.forced_consumed, trace.entries.size());
    EXPECT_EQ(replayed, recorded) << "round " << round;
  }
}

TEST(RecordReplayTest, PersistedTraceReplaysInAFreshSession) {
  // A trace parsed from text, replayed after the name->token session is
  // wiped (as in a new process): names, not the recording's tokens, pick
  // the threads.
  std::vector<int> recorded;
  const Trace recording = RecordToy(/*seed=*/0xf22, 2, 6, &recorded);
  Trace parsed;
  ASSERT_TRUE(Trace::Parse(recording.Serialize(), &parsed).ok());
  ExploreOptions wipe;
  wipe.fresh_session = true;
  StartExplore(wipe);
  (void)StopExplore();

  std::vector<int> replayed;
  const ExploreRun r = ReplayToy(parsed, 2, 6, &replayed);
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.forced_consumed, parsed.entries.size());
  EXPECT_EQ(replayed, recorded);
}

TEST(RecordReplayTest, DivergenceIsDetectedNotDeadlocked) {
  // An infeasible stream: both workers start, toy/0 takes the lock, then
  // toy/1 is forced to lock while toy/0 still holds it. That step cannot
  // be followed; the stall watchdog abandons the prefix and the run still
  // completes.
  Trace trace;
  trace.threads = {"toy/0", "toy/1"};
  trace.objects = {{"toy.lock", "main", 0}};
  trace.entries = {{0, OpKind::kMarker, 0},
                   {1, OpKind::kMarker, 0},
                   {0, OpKind::kMutexLock, 0},
                   {1, OpKind::kMutexLock, 0}};
  std::vector<int> replayed;
  const ExploreRun r = ReplayToy(trace, 2, 4, &replayed);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.forced_consumed, 3u);
  EXPECT_GE(r.stall_grants, 1u);
  EXPECT_EQ(replayed.size(), 8u) << "the run must complete";
}

TEST(RecordReplayTest, StallAfterThePrefixIsNotADivergence) {
  // "slow" follows its forced start, lock and unlock, then works untracked
  // past the stall watchdog; "fast" is granted by the watchdog meanwhile.
  // The prefix was followed, so only stall_grants records the stall.
  ResetIdentities();
  const uint32_t uid = RegisterObject("toy.lock");
  ExploreOptions eo;
  eo.forced.assign(3, ExploreTokenForName("slow"));
  eo.await_threads = 2;
  StartExplore(eo);
  auto lock_unlock = [uid] {
    { OpScope op(OpKind::kMutexLock, uid); }
    Op(OpKind::kMutexUnlock, uid);
  };
  std::thread slow([&] {
    ThreadGuard guard("slow");
    lock_unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(2800));
  });
  std::thread fast([&] {
    ThreadGuard guard("fast");
    lock_unlock();
  });
  {
    ScopedBlocked blocked;
    slow.join();
    fast.join();
  }
  const ExploreRun r = StopExplore();
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.forced_consumed, 3u);
  EXPECT_GE(r.stall_grants, 1u);
  // 2 x (start, lock, unlock) + main's rejoin.
  EXPECT_EQ(r.trace.entries.size(), 7u);
}

TEST(ExploreTest, SerialSchedulerIsDeterministic) {
  std::vector<std::vector<int>> orders;
  std::vector<size_t> steps;
  for (int run = 0; run < 2; ++run) {
    ResetIdentities();
    ExploreOptions eo;
    eo.seed = 5;
    eo.fresh_session = run == 0;
    eo.await_threads = 2;
    StartExplore(eo);
    orders.push_back(RunToy(2, 5).order);
    const ExploreRun er = StopExplore();
    EXPECT_FALSE(er.diverged);
    EXPECT_FALSE(er.hit_step_limit);
    steps.push_back(er.steps.size());
    EXPECT_GE(er.steps.size(), 20u);  // 2 threads x 5 iters x (lock+unlock)
  }
  EXPECT_EQ(orders[0], orders[1])
      << "explore mode must schedule identically for identical options";
  EXPECT_EQ(steps[0], steps[1]);
}

TEST(ExploreTest, ForcedPrefixIsObeyed) {
  // Learn both thread tokens from a free run, then force the *other*
  // thread first and check the appended order flips.
  ResetIdentities();
  ExploreOptions eo;
  eo.fresh_session = true;
  eo.await_threads = 2;
  StartExplore(eo);
  const ToyResult free_run = RunToy(2, 2);
  const ExploreRun er = StopExplore();
  ASSERT_FALSE(free_run.order.empty());
  const int first = free_run.order[0];
  const uint32_t other_token =
      ExploreTokenForName("toy/" + std::to_string(1 - first));

  ResetIdentities();
  ExploreOptions forced;
  forced.forced = {other_token, other_token};  // its start, then its lock
  forced.await_threads = 2;
  StartExplore(forced);
  const ToyResult forced_run = RunToy(2, 2);
  const ExploreRun fr = StopExplore();
  EXPECT_FALSE(fr.diverged) << "forced prefix should apply";
  EXPECT_EQ(fr.forced_consumed, 2u);
  ASSERT_FALSE(forced_run.order.empty());
  EXPECT_EQ(forced_run.order[0], 1 - first);
  (void)er;
}

// ---- DPOR driver -----------------------------------------------------

TEST(DporTest, TwoConflictingThreadsExploreBothOrders) {
  // 2 threads x 1 shared lock x 1 iteration: exactly two Mazurkiewicz
  // classes (A before B, B before A). DPOR must run both and nothing
  // else; the alternatives it prunes are orders of the start markers,
  // which commute with everything.
  std::vector<std::vector<int>> seen;
  DporOptions opts;
  opts.max_executions = 16;
  opts.await_threads = 2;
  DporExplorer explorer(opts);
  const DporStats stats = explorer.Run([&] {
    ResetIdentities();
    seen.push_back(RunToy(2, 1).order);
    return DporOutcome{};
  });
  EXPECT_EQ(stats.executed, 2u) << stats.ToString();
  EXPECT_EQ(stats.pruned, 3u) << stats.ToString();
  EXPECT_FALSE(stats.budget_exhausted);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_NE(seen[0], seen[1]) << "the two runs must order the appends "
                                 "differently";
}

TEST(DporTest, IndependentThreadIsPruned) {
  // Same two conflicting threads plus one thread on a private lock: its
  // placement is independent, so the explorer must still only execute the
  // two meaningful orders while reporting pruned alternatives.
  DporOptions opts;
  opts.max_executions = 32;
  opts.await_threads = 3;
  DporExplorer explorer(opts);
  size_t runs = 0;
  const DporStats stats = explorer.Run([&] {
    ResetIdentities();
    (void)RunToy(2, 1, /*extra_independent=*/1);
    ++runs;
    return DporOutcome{};
  });
  EXPECT_FALSE(stats.budget_exhausted) << stats.ToString();
  EXPECT_GT(stats.pruned, 0u)
      << "independent thread's placements must be pruned: "
      << stats.ToString();
  EXPECT_LT(stats.executed, 6u)
      << "near-minimal exploration expected: " << stats.ToString();
  EXPECT_EQ(stats.executed, runs);
}

TEST(DporTest, StopsOnFailureAndCapturesTrace) {
  DporOptions opts;
  opts.max_executions = 16;
  opts.stop_on_failure = true;
  opts.await_threads = 2;
  DporExplorer explorer(opts);
  size_t runs = 0;
  const DporStats stats = explorer.Run([&] {
    ResetIdentities();
    const ToyResult r = RunToy(2, 1);
    ++runs;
    DporOutcome out;
    // "Bug": fails iff thread 1 wins the race for the first append.
    out.failed = !r.order.empty() && r.order[0] == 1;
    out.note = "thread 1 appended first";
    return out;
  });
  EXPECT_TRUE(stats.failure_found) << stats.ToString();
  EXPECT_EQ(stats.failure, "thread 1 appended first");
  EXPECT_FALSE(stats.failure_trace.entries.empty());
  EXPECT_LE(stats.executed, 2u);
  EXPECT_EQ(stats.executed, runs);
}

TEST(DporTest, PreemptionBoundIsAccepted) {
  DporOptions opts;
  opts.max_executions = 8;
  opts.preemption_bound = 0;
  opts.await_threads = 2;
  DporExplorer explorer(opts);
  const DporStats stats = explorer.Run([&] {
    ResetIdentities();
    (void)RunToy(2, 2);
    return DporOutcome{};
  });
  EXPECT_GE(stats.executed, 1u);
  EXPECT_FALSE(stats.failure_found);
}

TEST(DporTest, MinimizeTracePrefixFindsShortestFailingPrefix) {
  Trace t;
  t.threads = {"main"};
  t.objects = {{"lock", "main", 0}};
  for (int i = 0; i < 37; ++i) {
    t.entries.push_back({0,
                         i % 2 == 0 ? OpKind::kMutexLock : OpKind::kMutexUnlock,
                         0});
  }
  size_t calls = 0;
  const Trace minimized = MinimizeTracePrefix(t, [&](const Trace& cand) {
    ++calls;
    return cand.entries.size() >= 13;  // failure needs the first 13 steps
  });
  EXPECT_EQ(minimized.entries.size(), 13u);
  EXPECT_GT(calls, 0u);
  EXPECT_LT(calls, 37u) << "binary search, not linear scan";

  // A trace that no longer fails at all comes back unchanged.
  const Trace flaky = MinimizeTracePrefix(t, [](const Trace&) { return false; });
  EXPECT_EQ(flaky.entries.size(), t.entries.size());
}

// ---- Condvar redirection primitives ----------------------------------

TEST(CvParkTest, NotifyWakesParkerAndDeadlineExpires) {
  // Redirection is armed only while exploring; in kOff, CvPark passes
  // straight through so native waits stay native.
  EXPECT_FALSE(CvRedirectArmed());
  EXPECT_TRUE(CvPark(nullptr, 0, std::chrono::steady_clock::now()));

  ResetIdentities();
  StartExplore(ExploreOptions{});
  EXPECT_TRUE(CvRedirectArmed());
  int dummy = 0;
  const void* cv = &dummy;
  const uint64_t gen = CvGeneration(cv);
  std::atomic<bool> woke{false};
  std::thread parker([&] {
    ThreadGuard guard("parker");
    const bool ok = CvPark(cv, gen,
                           std::chrono::steady_clock::now() +
                               std::chrono::seconds(5));
    woke.store(ok);
  });
  CvNotify(cv);
  parker.join();
  EXPECT_TRUE(woke.load()) << "notify must wake the parked thread";

  // Deadline path: nothing notifies, CvPark must return false quickly.
  const bool timed_out = !CvPark(cv, CvGeneration(cv),
                                 std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(80));
  EXPECT_TRUE(timed_out);
  (void)StopExplore();
}

}  // namespace
}  // namespace dynamast::sched
