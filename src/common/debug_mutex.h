#ifndef DYNAMAST_COMMON_DEBUG_MUTEX_H_
#define DYNAMAST_COMMON_DEBUG_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <type_traits>

#include "common/scheduler.h"
#include "common/thread_annotations.h"

#if defined(DYNAMAST_LOCK_PROFILE) && DYNAMAST_LOCK_PROFILE
#include "common/lock_profile.h"
#endif

namespace dynamast {

/// Lock-order and deadlock checking for the debug builds (see DESIGN.md,
/// "Correctness tooling").
///
/// Every mutex in the concurrent subsystems (lock_manager, site_manager,
/// admission_gate, durable_log, sim_network, storage engine, partition map)
/// is declared as a DebugMutex / DebugSharedMutex with a lock-*class* name
/// ("site.state", "log.topic", ...). In default builds these wrappers
/// compile to plain std::mutex / std::shared_mutex forwarding (zero cost);
/// when the build is configured with -DDYNAMAST_LOCK_DEBUG=ON every
/// acquisition is checked against a process-wide lock-order graph:
///
///  * recursive acquisition of the same instance aborts immediately
///    (std::mutex self-deadlock / UB);
///  * acquiring a lock of class B while holding class A records the edge
///    A -> B; if the edge closes a cycle in the graph, the process aborts
///    with the full cycle and the acquiring thread's held-lock stack;
///  * classes whose instances are nested intentionally (e.g. the partition
///    map's per-partition locks, taken in sorted order) carry a per-instance
///    *rank*; holding two instances of one class requires strictly
///    ascending ranks, otherwise the process aborts.
///
/// The checker itself (lockdebug::*) is always compiled into
/// dynamast_common so its unit tests run in every build configuration; the
/// DYNAMAST_LOCK_DEBUG macro only selects which wrapper the production
/// types alias.
///
/// All wrappers are additionally Clang TSA *capabilities* (see DESIGN.md,
/// "Static thread-safety"): under the `clang-tsa` preset the compiler
/// proves, for every path, that DYNAMAST_GUARDED_BY fields are only
/// touched with their lock held. Guarded state must therefore be accessed
/// through the scoped lockers below (MutexLock / ReaderMutexLock /
/// WriterMutexLock) — std::lock_guard over these types still compiles but
/// is invisible to the analysis.
namespace lockdebug {

/// Rank for lock classes whose instances must never be held together.
inline constexpr uint64_t kNoRank = UINT64_MAX;

/// Checks an impending blocking acquisition and pushes it on the calling
/// thread's held-lock stack. Aborts (after printing a report to stderr) on
/// recursive acquisition, same-class rank inversion, or a cross-class
/// lock-order cycle.
void OnLock(const void* instance, const char* name, uint64_t rank);

/// Records a successful try_lock: the lock joins the held stack (so later
/// blocking acquisitions see it) but records no ordering edges — a
/// non-blocking acquisition cannot complete a deadlock cycle.
void OnTryLock(const void* instance, const char* name, uint64_t rank);

/// Pops `instance` from the calling thread's held-lock stack.
void OnUnlock(const void* instance);

/// Number of distinct lock-order edges observed so far (diagnostics).
size_t EdgeCount();

/// Number of locks the calling thread currently holds (diagnostics).
size_t HeldCount();

/// Clears the global lock-order graph. Test isolation only.
void ResetGraphForTest();

/// If set, order violations call this instead of aborting (unit tests
/// observing detection without death tests). Pass nullptr to restore the
/// default abort behaviour.
using ViolationHandler = void (*)(const char* report);
void SetViolationHandlerForTest(ViolationHandler handler);

// ---------------------------------------------------------------------
// Checked wrappers (used directly by the checker's own tests; production
// code names them via the DebugMutex / DebugSharedMutex aliases below).
// ---------------------------------------------------------------------

class DYNAMAST_CAPABILITY("mutex") TrackedMutex {
 public:
  explicit TrackedMutex(const char* name, uint64_t rank = kNoRank)
      : name_(name), rank_(rank), sched_uid_(DYNAMAST_SCHED_REGISTER(name)) {}

  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  void lock() DYNAMAST_ACQUIRE() {
    // The scope spans the native acquisition: in record mode the entry is
    // appended once the lock is actually held (post-completion), in
    // replay mode the gate blocks until this acquisition is the object's
    // recorded next operation.
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLock, sched_uid_);
    OnLock(this, name_, rank_);
    mu_.lock();
  }
  bool try_lock() DYNAMAST_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    OnTryLock(this, name_, rank_);
    return true;
  }
  void unlock() DYNAMAST_RELEASE() {
    // Releases trace pre-operation, so every enabling release precedes
    // the acquisition it enables in the recorded stream.
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlock, sched_uid_);
    OnUnlock(this);
    mu_.unlock();
  }

  void set_rank(uint64_t rank) { rank_ = rank; }

  // DebugCondVar support: the native mutex a condition variable waits on,
  // and the held-stack bookkeeping around the wait's release/reacquire.
  std::mutex& native() { return mu_; }
  void OnCvWaitRelease() { OnUnlock(this); }
  void OnCvWaitReacquire() { OnLock(this, name_, rank_); }

 private:
  std::mutex mu_;
  const char* name_;
  uint64_t rank_;
  uint32_t sched_uid_;
};

class DYNAMAST_CAPABILITY("shared_mutex") TrackedSharedMutex {
 public:
  explicit TrackedSharedMutex(const char* name, uint64_t rank = kNoRank)
      : name_(name), rank_(rank), sched_uid_(DYNAMAST_SCHED_REGISTER(name)) {}

  TrackedSharedMutex(const TrackedSharedMutex&) = delete;
  TrackedSharedMutex& operator=(const TrackedSharedMutex&) = delete;

  void lock() DYNAMAST_ACQUIRE() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLock, sched_uid_);
    OnLock(this, name_, rank_);
    mu_.lock();
  }
  bool try_lock() DYNAMAST_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    OnTryLock(this, name_, rank_);
    return true;
  }
  void unlock() DYNAMAST_RELEASE() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlock, sched_uid_);
    OnUnlock(this);
    mu_.unlock();
  }

  // Shared acquisitions participate in ordering checks too: a reader
  // blocked behind a queued writer is still a wait-for edge.
  void lock_shared() DYNAMAST_ACQUIRE_SHARED() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLockShared, sched_uid_);
    OnLock(this, name_, rank_);
    mu_.lock_shared();
  }
  bool try_lock_shared() DYNAMAST_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    OnTryLock(this, name_, rank_);
    return true;
  }
  void unlock_shared() DYNAMAST_RELEASE_SHARED() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlockShared, sched_uid_);
    OnUnlock(this);
    mu_.unlock_shared();
  }

  void set_rank(uint64_t rank) { rank_ = rank; }

 private:
  std::shared_mutex mu_;
  const char* name_;
  uint64_t rank_;
  uint32_t sched_uid_;
};

// ---------------------------------------------------------------------
// Zero-cost pass-through wrappers (default builds).
// ---------------------------------------------------------------------

class DYNAMAST_CAPABILITY("mutex") PlainMutex {
 public:
  explicit PlainMutex(const char* name, uint64_t /*rank*/ = kNoRank)
      : sched_uid_(DYNAMAST_SCHED_REGISTER(name)) {}

  PlainMutex(const PlainMutex&) = delete;
  PlainMutex& operator=(const PlainMutex&) = delete;

  void lock() DYNAMAST_ACQUIRE() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLock, sched_uid_);
    mu_.lock();
  }
  bool try_lock() DYNAMAST_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() DYNAMAST_RELEASE() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlock, sched_uid_);
    mu_.unlock();
  }
  void set_rank(uint64_t /*rank*/) {}

  std::mutex& native() { return mu_; }
  void OnCvWaitRelease() {}
  void OnCvWaitReacquire() {}

 private:
  std::mutex mu_;
  uint32_t sched_uid_;
};

class DYNAMAST_CAPABILITY("shared_mutex") PlainSharedMutex {
 public:
  explicit PlainSharedMutex(const char* name, uint64_t /*rank*/ = kNoRank)
      : sched_uid_(DYNAMAST_SCHED_REGISTER(name)) {}

  PlainSharedMutex(const PlainSharedMutex&) = delete;
  PlainSharedMutex& operator=(const PlainSharedMutex&) = delete;

  void lock() DYNAMAST_ACQUIRE() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLock, sched_uid_);
    mu_.lock();
  }
  bool try_lock() DYNAMAST_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() DYNAMAST_RELEASE() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlock, sched_uid_);
    mu_.unlock();
  }
  void lock_shared() DYNAMAST_ACQUIRE_SHARED() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLockShared, sched_uid_);
    mu_.lock_shared();
  }
  bool try_lock_shared() DYNAMAST_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }
  void unlock_shared() DYNAMAST_RELEASE_SHARED() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlockShared, sched_uid_);
    mu_.unlock_shared();
  }
  void set_rank(uint64_t /*rank*/) {}

 private:
  std::shared_mutex mu_;
  uint32_t sched_uid_;
};

}  // namespace lockdebug

// Alias selection: DYNAMAST_LOCK_DEBUG picks the checked or pass-through
// base; DYNAMAST_LOCK_PROFILE (see common/lock_profile.h) layers the
// contention profiler over whichever base was picked. With the profiler
// off the aliases are exactly the bases — zero cost, zero registry
// families.
#if defined(DYNAMAST_LOCK_DEBUG) && DYNAMAST_LOCK_DEBUG
using BaseDebugMutex = lockdebug::TrackedMutex;
using BaseDebugSharedMutex = lockdebug::TrackedSharedMutex;
#else
using BaseDebugMutex = lockdebug::PlainMutex;
using BaseDebugSharedMutex = lockdebug::PlainSharedMutex;
#endif

#if defined(DYNAMAST_LOCK_PROFILE) && DYNAMAST_LOCK_PROFILE
#if DYNAMAST_SCHED_FUZZ_ENABLED
#error \
    "DYNAMAST_LOCK_PROFILE is incompatible with DYNAMAST_SCHED_FUZZ: the " \
    "profiler's try-first acquisition protocol would perturb the recorded " \
    "scheduling decision stream."
#endif
using DebugMutex = lockprof::ProfiledMutex<BaseDebugMutex>;
using DebugSharedMutex = lockprof::ProfiledSharedMutex<BaseDebugSharedMutex>;
#else
using DebugMutex = BaseDebugMutex;
using DebugSharedMutex = BaseDebugSharedMutex;
#endif

/// Capability-annotated plain std::mutex, for infrastructure at or below
/// the scheduler layer (metrics registry, tracer, latency recorder, the
/// routing-explain ring): state that must stay *outside* the
/// schedule-exploration decision stream. A DebugMutex here would call
/// DYNAMAST_SCHED_REGISTER and emit lock operations into the record/replay
/// trace, perturbing the object-identity tables whenever telemetry is
/// toggled; RawMutex carries the TSA capability without any hooks.
class DYNAMAST_CAPABILITY("mutex") RawMutex {
 public:
  RawMutex() = default;
  RawMutex(const RawMutex&) = delete;
  RawMutex& operator=(const RawMutex&) = delete;

  void lock() DYNAMAST_ACQUIRE() { mu_.lock(); }
  bool try_lock() DYNAMAST_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() DYNAMAST_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// ---------------------------------------------------------------------
// Scoped lockers. These are what annotated code must use: the analysis
// tracks their constructor/destructor (DYNAMAST_SCOPED_CAPABILITY), which
// std::lock_guard/std::unique_lock over our wrapper types — instantiated
// inside unannotated system headers — cannot provide.
// ---------------------------------------------------------------------

/// Exclusive RAII lock over any capability with lock()/unlock()
/// (DebugMutex, DebugSharedMutex, RawMutex).
template <class MutexT>
class DYNAMAST_SCOPED_CAPABILITY BasicMutexLock {
 public:
  explicit BasicMutexLock(MutexT& mu) DYNAMAST_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~BasicMutexLock() DYNAMAST_RELEASE() { mu_.unlock(); }

  BasicMutexLock(const BasicMutexLock&) = delete;
  BasicMutexLock& operator=(const BasicMutexLock&) = delete;

 private:
  MutexT& mu_;
};

/// Shared (reader) RAII lock over a shared-capable capability.
template <class MutexT>
class DYNAMAST_SCOPED_CAPABILITY BasicReaderLock {
 public:
  explicit BasicReaderLock(MutexT& mu) DYNAMAST_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~BasicReaderLock() DYNAMAST_RELEASE() { mu_.unlock_shared(); }

  BasicReaderLock(const BasicReaderLock&) = delete;
  BasicReaderLock& operator=(const BasicReaderLock&) = delete;

 private:
  MutexT& mu_;
};

using MutexLock = BasicMutexLock<DebugMutex>;
using WriterMutexLock = BasicMutexLock<DebugSharedMutex>;
using ReaderMutexLock = BasicReaderLock<DebugSharedMutex>;
using RawMutexLock = BasicMutexLock<RawMutex>;

/// Condition variable for DebugMutex-guarded state. Waits are called with
/// the guarding mutex held (`cv.wait(mu_, pred)`) — the mutex parameter
/// carries the DYNAMAST_REQUIRES contract, so a wait without the
/// capability is a compile error under the clang-tsa preset. Waits run on
/// the wrapped std::mutex directly (no condition_variable_any), so the
/// default build is exactly a std::condition_variable; in lock-debug
/// builds the wait notifies the checker that the mutex is released for the
/// duration of the wait.
///
/// In the scheduler's armed modes (record/replay/explore, fuzz builds
/// only) waits take a different path entirely: the native condvar's
/// wake-up race is an untraced scheduling decision, so instead the wait
/// performs a *traced* unlock, parks on the scheduler until the condvar's
/// generation counter moves (sched::CvNotify, bumped by notify_one/all),
/// then performs a *traced* re-acquisition. The lock handoff — the
/// decision that matters — lands in the decision stream; the predicate
/// loop around every wait absorbs the extra wake-ups this produces.
template <class MutexT>
class BasicDebugCondVar {
 public:
  BasicDebugCondVar() = default;
  BasicDebugCondVar(const BasicDebugCondVar&) = delete;
  BasicDebugCondVar& operator=(const BasicDebugCondVar&) = delete;

  void notify_one() noexcept {
    cv_.notify_one();
#if DYNAMAST_SCHED_FUZZ_ENABLED
    if (sched::CvRedirectArmed()) sched::CvNotify(this);
#endif
  }
  void notify_all() noexcept {
    cv_.notify_all();
#if DYNAMAST_SCHED_FUZZ_ENABLED
    if (sched::CvRedirectArmed()) sched::CvNotify(this);
#endif
  }

  void wait(MutexT& mu) DYNAMAST_REQUIRES(mu) {
#if DYNAMAST_SCHED_FUZZ_ENABLED
    if (sched::CvRedirectArmed()) {
      (void)ArmedWait(mu, std::chrono::steady_clock::time_point::max());
      return;
    }
#endif
    WaitScope scope(mu);
    cv_.wait(scope.inner);
  }

  template <class Pred>
  void wait(MutexT& mu, Pred pred) DYNAMAST_REQUIRES(mu) {
    while (!pred()) wait(mu);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      MutexT& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      DYNAMAST_REQUIRES(mu) {
#if DYNAMAST_SCHED_FUZZ_ENABLED
    if (sched::CvRedirectArmed()) return ArmedWait(mu, ToSteady(deadline));
#endif
    WaitScope scope(mu);
    return cv_.wait_until(scope.inner, deadline);
  }

  template <class Clock, class Duration, class Pred>
  bool wait_until(
      MutexT& mu, const std::chrono::time_point<Clock, Duration>& deadline,
      Pred pred) DYNAMAST_REQUIRES(mu) {
    while (!pred()) {
      if (wait_until(mu, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  template <class Rep, class Period>
  std::cv_status wait_for(
      MutexT& mu, const std::chrono::duration<Rep, Period>& rel)
      DYNAMAST_REQUIRES(mu) {
#if DYNAMAST_SCHED_FUZZ_ENABLED
    if (sched::CvRedirectArmed()) {
      return ArmedWait(mu, std::chrono::steady_clock::now() + rel);
    }
#endif
    WaitScope scope(mu);
    return cv_.wait_for(scope.inner, rel);
  }

 private:
#if DYNAMAST_SCHED_FUZZ_ENABLED
  template <class Clock, class Duration>
  static std::chrono::steady_clock::time_point ToSteady(
      const std::chrono::time_point<Clock, Duration>& tp) {
    if constexpr (std::is_same_v<Clock, std::chrono::steady_clock>) {
      return std::chrono::time_point_cast<std::chrono::steady_clock::duration>(
          tp);
    } else {
      const auto delta = tp - Clock::now();
      return std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 delta);
    }
  }

  std::cv_status ArmedWait(MutexT& mu,
                           std::chrono::steady_clock::time_point deadline)
      DYNAMAST_REQUIRES(mu) {
    const uint64_t gen = sched::CvGeneration(this);
    mu.unlock();  // traced release
    const bool changed = sched::CvPark(this, gen, deadline);
    mu.lock();  // traced reacquisition: the arbitration is in the trace
    return changed ? std::cv_status::no_timeout : std::cv_status::timeout;
  }
#endif

  // Adopts the caller's DebugMutex as a std::unique_lock<std::mutex> over
  // its native mutex for the duration of one wait, so the standard
  // condition variable can unlock/relock it. The caller's scoped lock
  // keeps ownership; the checker sees the release and reacquisition. (The
  // native handoff is invisible to TSA — the wait's REQUIRES contract
  // holds at entry and exit, which is what callers rely on.)
  struct WaitScope {
    explicit WaitScope(MutexT& mu)
        : mutex(&mu), inner(mu.native(), std::adopt_lock) {
      mutex->OnCvWaitRelease();
    }
    ~WaitScope() {
      inner.release();
      mutex->OnCvWaitReacquire();
    }
    MutexT* mutex;
    std::unique_lock<std::mutex> inner;
  };

  std::condition_variable cv_;
};

using DebugCondVar = BasicDebugCondVar<DebugMutex>;

}  // namespace dynamast

#endif  // DYNAMAST_COMMON_DEBUG_MUTEX_H_
