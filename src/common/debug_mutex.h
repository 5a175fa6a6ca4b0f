#ifndef DYNAMAST_COMMON_DEBUG_MUTEX_H_
#define DYNAMAST_COMMON_DEBUG_MUTEX_H_

#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <type_traits>

#include "common/lock_profile.h"
#include "common/scheduler.h"
#include "common/thread_annotations.h"

namespace dynamast {

/// Lock-order and deadlock checking for the debug builds (see DESIGN.md,
/// "Correctness tooling").
///
/// Every mutex in the concurrent subsystems (lock_manager, site_manager,
/// admission_gate, durable_log, sim_network, storage engine, partition map)
/// is declared as a DebugMutex / DebugSharedMutex with a lock-*class* name
/// ("site.state", "log.topic", ...). Both are instantiations of one mutex
/// template, BasicMutex<Native, Policy>, whose hook policy the build
/// selects:
///
///   Plain    (default) scheduler registration and op scopes only; each
///            operation compiles to the std::mutex / std::shared_mutex
///            call (zero cost);
///   Check    (-DDYNAMAST_LOCK_DEBUG=ON) Plain plus the lock-order
///            checker below;
///   Profile  (-DDYNAMAST_LOCK_PROFILE=ON) Plain plus the contention
///            profiler (common/lock_profile.h).
///
/// RawMutex is the fourth policy, Raw: no hooks and no scheduler
/// registration. Check and Profile are mutually exclusive (rejected at
/// configure time and by an #error below).
///
/// With Check, every acquisition is checked against a process-wide
/// lock-order graph:
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
/// Every policy is always compiled (the checker itself, lockdebug::*, lives
/// in dynamast_common) so the checker's and the profiler's unit tests run
/// in every build configuration; the build macros only select which policy
/// the production aliases use.
///
/// The template is a Clang TSA *capability* (see DESIGN.md, "Static
/// thread-safety"): under the `clang-tsa` preset the compiler proves, for
/// every path, that DYNAMAST_GUARDED_BY fields are only touched with their
/// lock held. Guarded state must therefore be accessed through the scoped
/// lockers below (MutexLock / ReaderMutexLock / WriterMutexLock) —
/// std::lock_guard over these types still compiles but is invisible to the
/// analysis.
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
// Hook policies. A policy has a per-instance State (constructed from the
// lock-class name and rank) and one static hook per event; BasicMutex
// calls them around the native operations. `exclusive` is false for the
// shared side of a shared mutex.
// ---------------------------------------------------------------------

/// When a blocking acquisition started to block; nullopt if it did not
/// (or the policy does not try first, see kTryFirst).
using BlockedSince = std::optional<std::chrono::steady_clock::time_point>;

/// Raw: no hooks. Its State is anonymous to the scheduler: sched uid 0
/// is the engine's "<anon>" object, whose operations are neither traced
/// nor perturbed.
struct RawPolicy {
  struct State {
    static constexpr uint32_t sched_uid = 0;
  };
  static constexpr bool kTryFirst = false;

  static void BeforeLock(auto& /*state*/) {}
  static void Acquired(auto& /*state*/, bool /*exclusive*/,
                       BlockedSince /*blocked_since*/) {}
  static void TryAcquired(auto& /*state*/, bool /*exclusive*/) {}
  static void BeforeUnlock(auto& /*state*/, bool /*exclusive*/) {}
  static void CvRelease(auto& /*state*/) {}
  static void CvReacquire(auto& /*state*/) {}
};

/// Plain: registers the instance with the scheduler, so its operations
/// enter the explore decision stream; no other hooks.
struct PlainPolicy : RawPolicy {
  struct State {
    State(const char* name, uint64_t /*rank*/)
        : sched_uid(DYNAMAST_SCHED_REGISTER(name)) {}
    uint32_t sched_uid;
  };
};

/// Check: Plain plus the lock-order checker. The State's address is the
/// instance identity the checker tracks.
struct CheckPolicy : PlainPolicy {
  struct State : PlainPolicy::State {
    State(const char* name, uint64_t rank)
        : PlainPolicy::State(name, rank), name(name), rank(rank) {}
    const char* name;
    uint64_t rank;
  };

  // Shared acquisitions participate in ordering checks too: a reader
  // blocked behind a queued writer is still a wait-for edge.
  static void BeforeLock(State& s) { OnLock(&s, s.name, s.rank); }
  static void TryAcquired(State& s, bool /*exclusive*/) {
    OnTryLock(&s, s.name, s.rank);
  }
  static void BeforeUnlock(State& s, bool /*exclusive*/) { OnUnlock(&s); }
  // A lock held across a condvar wait is released for the wait's
  // duration, so the held-stack record must be too.
  static void CvRelease(State& s) { OnUnlock(&s); }
  static void CvReacquire(State& s) { OnLock(&s, s.name, s.rank); }
};

/// Profile: Plain plus the contention profiler (common/lock_profile.h).
/// Contention is detected with a try-first protocol (kTryFirst): an
/// uncontended acquisition is the try_lock itself; on failure BasicMutex
/// timestamps, falls back to the blocking call and hands the start time
/// to Acquired. Hold time is tracked for exclusive ownership only (shared
/// holds overlap and have no single owner).
struct ProfilePolicy : PlainPolicy {
  using Clock = std::chrono::steady_clock;
  struct State : PlainPolicy::State {
    State(const char* name, uint64_t rank)
        : PlainPolicy::State(name, rank),
          stats(lockprof::RegisterClass(name)) {}
    lockprof::ClassStats* stats;
    // Written by the owner while the lock is held; read at release.
    Clock::time_point hold_start{};
  };
  static constexpr bool kTryFirst = true;

  static void Acquired(State& s, bool exclusive, BlockedSince blocked_since) {
    lockprof::RecordAcquire(s.stats, blocked_since.has_value(),
                            blocked_since ? ElapsedNs(*blocked_since) : 0);
    if (exclusive) s.hold_start = Clock::now();
  }
  static void TryAcquired(State& s, bool exclusive) {
    Acquired(s, exclusive, std::nullopt);
  }
  static void BeforeUnlock(State& s, bool exclusive) {
    if (exclusive) lockprof::RecordHold(s.stats, ElapsedNs(s.hold_start));
  }
  // A wait ends the current hold segment (time parked on the condvar is
  // not holding) and reacquisition starts a new one. The wait's own
  // blocking time is the condvar's business, not lock contention, so it
  // is deliberately not recorded as wait_us.
  static void CvRelease(State& s) { BeforeUnlock(s, /*exclusive=*/true); }
  static void CvReacquire(State& s) { s.hold_start = Clock::now(); }

 private:
  static uint64_t ElapsedNs(Clock::time_point since) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  }
};

}  // namespace lockdebug

template <class MutexT>
class BasicDebugCondVar;

/// The one mutex: a capability-annotated std::mutex or std::shared_mutex
/// (`Native`) whose operations call the `Policy` hooks. The shared-side
/// members exist only for the std::shared_mutex instantiation.
template <class Native, class Policy>
class DYNAMAST_CAPABILITY("mutex") BasicMutex {
 public:
  using Hooks = Policy;

  BasicMutex() = default;  // RawPolicy only: every other State needs a name
  explicit BasicMutex(const char* name, uint64_t rank = lockdebug::kNoRank)
      : state_(name, rank) {}

  BasicMutex(const BasicMutex&) = delete;
  BasicMutex& operator=(const BasicMutex&) = delete;

  void lock() DYNAMAST_ACQUIRE() {
    // The scope spans the native acquisition: while exploring, the
    // scheduler grants it before and traces it once the lock is held.
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLock, state_.sched_uid);
    Policy::BeforeLock(state_);
    Policy::Acquired(state_, /*exclusive=*/true,
                     Acquire([this] { return mu_.try_lock(); },
                             [this] { mu_.lock(); }));
  }
  bool try_lock() DYNAMAST_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    Policy::TryAcquired(state_, /*exclusive=*/true);
    return true;
  }
  void unlock() DYNAMAST_RELEASE() {
    // Releases trace pre-operation, so every enabling release precedes
    // the acquisition it enables in the recorded stream.
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlock, state_.sched_uid);
    Policy::BeforeUnlock(state_, /*exclusive=*/true);
    mu_.unlock();
  }

  template <std::same_as<std::shared_mutex> N = Native>
  void lock_shared() DYNAMAST_ACQUIRE_SHARED() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexLockShared, state_.sched_uid);
    Policy::BeforeLock(state_);
    Policy::Acquired(state_, /*exclusive=*/false,
                     Acquire([this] { return mu_.try_lock_shared(); },
                             [this] { mu_.lock_shared(); }));
  }
  template <std::same_as<std::shared_mutex> N = Native>
  bool try_lock_shared() DYNAMAST_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    Policy::TryAcquired(state_, /*exclusive=*/false);
    return true;
  }
  template <std::same_as<std::shared_mutex> N = Native>
  void unlock_shared() DYNAMAST_RELEASE_SHARED() {
    DYNAMAST_SCHED_OP_SCOPE(sched_op, kMutexUnlockShared, state_.sched_uid);
    Policy::BeforeUnlock(state_, /*exclusive=*/false);
    mu_.unlock_shared();
  }

  /// Sets the same-class nesting rank (Check only; a no-op elsewhere).
  void set_rank(uint64_t rank) {
    if constexpr (requires { state_.rank; }) state_.rank = rank;
  }

 private:
  template <class MutexT>
  friend class BasicDebugCondVar;

  // The blocking native acquisition. Returns when it started blocking, or
  // nullopt if it did not block: a kTryFirst policy tries first, and an
  // acquisition the try obtains is uncontended. Other policies go straight
  // to the blocking call and learn nothing.
  template <class TryFn, class LockFn>
  static lockdebug::BlockedSince Acquire(TryFn try_native,
                                         LockFn lock_native) {
    if constexpr (Policy::kTryFirst) {
      if (try_native()) return std::nullopt;
      const auto start = std::chrono::steady_clock::now();
      lock_native();
      return start;
    } else {
      lock_native();
      return std::nullopt;
    }
  }

  Native mu_;
  [[no_unique_address]] typename Policy::State state_;
};

// The build-selected policy of the production aliases.
#if defined(DYNAMAST_LOCK_DEBUG) && DYNAMAST_LOCK_DEBUG && \
    defined(DYNAMAST_LOCK_PROFILE) && DYNAMAST_LOCK_PROFILE
#error \
    "DYNAMAST_LOCK_DEBUG and DYNAMAST_LOCK_PROFILE are mutually exclusive: " \
    "the profiler's try-first protocol would hide uncontended acquisitions' " \
    "lock-order edges from the checker."
#elif defined(DYNAMAST_LOCK_DEBUG) && DYNAMAST_LOCK_DEBUG
using BuildMutexPolicy = lockdebug::CheckPolicy;
#elif defined(DYNAMAST_LOCK_PROFILE) && DYNAMAST_LOCK_PROFILE
#if DYNAMAST_SCHED_FUZZ_ENABLED
#error \
    "DYNAMAST_LOCK_PROFILE is incompatible with DYNAMAST_SCHED_FUZZ: the " \
    "profiler's try-first acquisition protocol would perturb the recorded " \
    "scheduling decision stream."
#endif
using BuildMutexPolicy = lockdebug::ProfilePolicy;
#else
using BuildMutexPolicy = lockdebug::PlainPolicy;
#endif

using DebugMutex = BasicMutex<std::mutex, BuildMutexPolicy>;
using DebugSharedMutex = BasicMutex<std::shared_mutex, BuildMutexPolicy>;

/// Capability-annotated plain std::mutex, for infrastructure at or below
/// the scheduler layer (metrics registry, tracer, latency recorder, the
/// routing-explain ring): state that must stay *outside* the
/// schedule-exploration decision stream. A DebugMutex here would call
/// DYNAMAST_SCHED_REGISTER and emit lock operations into the explore
/// trace, perturbing the object-identity tables whenever telemetry is
/// toggled; RawMutex carries the TSA capability without any hooks.
using RawMutex = BasicMutex<std::mutex, lockdebug::RawPolicy>;

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
/// the mutex's native std::mutex directly (no condition_variable_any), so
/// the default build is exactly a std::condition_variable; the wait calls
/// the mutex policy's CvRelease/CvReacquire hooks around it (the checker
/// sees the release, the profiler closes the hold segment).
///
/// While the scheduler explores (DYNAMAST_SCHED_FUZZ builds only) waits
/// take a different path entirely: the native condvar's
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
    (void)sched::CvPark(this, gen, deadline);
    mu.lock();  // traced reacquisition: the arbitration is in the trace
    // Timed out iff no notify landed before the reacquisition was granted.
    // The grant's place is in the decision stream and the wall-clock
    // moment the park ended is not, so a replay reaches the same verdict.
    const bool notified = sched::CvGeneration(this) != gen;
    return notified || std::chrono::steady_clock::now() < deadline
               ? std::cv_status::no_timeout
               : std::cv_status::timeout;
  }
#endif

  // Adopts the caller's mutex as a std::unique_lock<std::mutex> over its
  // native mutex for the duration of one wait, so the standard condition
  // variable can unlock/relock it. The caller's scoped lock keeps
  // ownership; the policy hooks see the release and reacquisition. (The
  // native handoff is invisible to TSA — the wait's REQUIRES contract
  // holds at entry and exit, which is what callers rely on.)
  struct WaitScope {
    explicit WaitScope(MutexT& mu)
        : mutex(&mu), inner(mu.mu_, std::adopt_lock) {
      MutexT::Hooks::CvRelease(mutex->state_);
    }
    ~WaitScope() {
      inner.release();
      MutexT::Hooks::CvReacquire(mutex->state_);
    }
    MutexT* mutex;
    std::unique_lock<std::mutex> inner;
  };

  std::condition_variable cv_;
};

using DebugCondVar = BasicDebugCondVar<DebugMutex>;

}  // namespace dynamast

#endif  // DYNAMAST_COMMON_DEBUG_MUTEX_H_
