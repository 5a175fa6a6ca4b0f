#ifndef DYNAMAST_COMMON_SCHEDULER_H_
#define DYNAMAST_COMMON_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sched_trace.h"

namespace dynamast::sched {

/// Schedule-exploration engine (see DESIGN.md, "The explore scheduler").
///
/// The concurrent subsystems mark their synchronization operations —
/// every DebugMutex acquisition/release, simulated-network delivery,
/// admission-gate slot grant, durable-log append — with the
/// DYNAMAST_SCHED_OP / DYNAMAST_SCHED_OP_SCOPE macros below. In default
/// builds those expand to nothing; with -DDYNAMAST_SCHED_FUZZ=ON every
/// operation consults this engine, which is either off (pass-through) or
/// exploring: a serial scheduler under which at most one thread runs
/// between operations and the engine picks which blocked thread's pending
/// operation is granted next. One explore run serves every purpose:
///
///   recording  ExploreRun::trace is the run's decision stream;
///   replay     ReplayOptions(trace) forces the trace's thread sequence
///              as the prefix of a new run (clean: !ExploreRun::diverged);
///   fuzzing    a seed plus a preemption bound randomizes the free picks;
///   DPOR       the DporExplorer (common/dpor) drives forced prefixes and
///              sleep sets to enumerate non-equivalent interleavings only.
///
/// Threads are identified across runs by *name* (BindThreadName / the
/// names given to spawned workers), objects by (lock label, constructing
/// thread name, per-(label,thread) construction ordinal) — both stable
/// across executions, neither involving pointers, so traces replay across
/// processes.
///
/// The engine is always compiled into dynamast_common so its unit tests
/// run in every configuration; DYNAMAST_SCHED_FUZZ only decides whether
/// the hook sites call into it.

enum class Mode : uint8_t {
  kOff = 0,
  kExplore = 1,
};

Mode CurrentMode();

// ---------------------------------------------------------------------------
// Identity.

/// Names the calling thread for trace purposes ("client/3",
/// "site/1/applier/0"...). Sticky for the thread's lifetime; re-binding
/// overwrites. Replay matches live threads to trace threads by name, so
/// every thread a deterministic test spawns should be named.
void BindThreadName(const std::string& name);
std::string CurrentThreadName();

/// RAII name binding for spawned threads; use as the first statement of
/// the thread body. While exploring, construction is a granted kMarker
/// step (the thread starts at a place the trace records) and destruction
/// tells the scheduler the thread is done (so it stops waiting for it to
/// quiesce).
class ThreadGuard {
 public:
  explicit ThreadGuard(const std::string& name);
  ~ThreadGuard();
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

/// Registers one synchronization object under `label` and returns its
/// engine uid. Called from the constructors of the traced wrappers
/// (DebugMutex, SimulatedNetwork, AdmissionGate, DurableLog). The cross-
/// run identity key is (label, current thread name, per-(label,thread)
/// construction counter).
uint32_t RegisterObject(const char* label);

/// Clears the object registry, identity counters and condvar generations.
/// Call before constructing each system-under-test so construction
/// ordinals restart from zero (a run and its replay must build their
/// object tables identically). Also binds the calling thread to "main" if
/// it is still unnamed.
void ResetIdentities();

// ---------------------------------------------------------------------------
// Hooks.

/// RAII hook around one synchronization operation. While exploring, the
/// constructor waits for the scheduler to grant the operation and the
/// destructor traces it, so construct it so its scope spans the native
/// operation:
///
///   { sched::OpScope op(OpKind::kMutexLock, sched_uid_); mu_.lock(); }
///
/// Object uid 0 is the unregistered "<anon>" object: its operations are
/// neither traced nor scheduled (RawMutex sits below the scheduler).
class OpScope {
 public:
  OpScope(OpKind kind, uint32_t object_uid);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  bool armed_ = false;  // granted by the explore scheduler
  OpKind kind_ = OpKind::kMarker;
  uint32_t object_ = 0;
};

/// Point-like hook for operations with no meaningful duration (message
/// delivery decisions, log appends, releases): granted and traced before
/// returning.
inline void Op(OpKind kind, uint32_t object_uid) { OpScope op(kind, object_uid); }

/// Marks the calling thread as blocked on something outside the engine's
/// arbitration (typically a thread join). The explore-mode scheduler
/// excludes Blocked threads from its quiescence wait; leaving the scope is
/// a granted kMarker step, so the thread resumes at a place the trace
/// records.
class ScopedBlocked {
 public:
  ScopedBlocked();
  ~ScopedBlocked();
  ScopedBlocked(const ScopedBlocked&) = delete;
  ScopedBlocked& operator=(const ScopedBlocked&) = delete;

 private:
  bool armed_ = false;
};

// ---------------------------------------------------------------------------
// Condition-variable redirection.
//
// While exploring, condition-variable waits must
// not hand the mutex back through the native cv (the native wake-up race
// would be an untraced scheduling decision). DebugCondVar instead performs
// a *traced* unlock, parks on the engine until the cv's generation counter
// moves (or the deadline passes), then performs a *traced* re-lock. The
// predicate loop around every wait makes the extra wake-ups harmless, and
// the lock-handoff order — the actual scheduling decision — lands in the
// trace.

/// True when condvars should use the traced unlock/park/re-lock path
/// (the engine is exploring).
bool CvRedirectArmed();

/// Current generation of the condvar identified by `cv` (any stable
/// address). Bumped by CvNotify.
uint64_t CvGeneration(const void* cv);

/// Wakes parked waiters of `cv` (both notify_one and notify_all map here:
/// with the traced re-lock arbitrating who proceeds, waking everyone is
/// semantically notify_all, which every predicate-looped wait tolerates).
void CvNotify(const void* cv);

/// Parks until CvGeneration(cv) != start_gen or `deadline` passes.
/// Returns false iff the deadline passed with no generation change.
bool CvPark(const void* cv, uint64_t start_gen,
            std::chrono::steady_clock::time_point deadline);

// ---------------------------------------------------------------------------
// Exploration.

struct ExploreOptions {
  /// Thread tokens to grant, in order, before free scheduling resumes
  /// (the replay of a recorded trace; see ReplayOptions).
  std::vector<uint32_t> forced;
  /// sleep_add[i] = tokens to place in the sleep set at step i (after the
  /// forced prefix replays the first i steps). Indexed by step.
  std::vector<std::vector<uint32_t>> sleep_add;
  /// Deterministic tie-break seed for free scheduling after the prefix
  /// (only consulted with a preemption bound).
  uint64_t seed = 0;
  /// Max context switches away from the running thread while it is still
  /// runnable (PCT-style bound); <0 = unbounded.
  int preemption_bound = -1;
  /// Safety valve on total granted operations.
  size_t max_steps = 1 << 20;
  /// Forget name->token assignments from previous explore sessions.
  bool fresh_session = false;
  /// Issue no grants until this many non-blocked threads have registered
  /// with the serial scheduler (ThreadGuard construction or first
  /// sync-point arrival; ScopedBlocked joiners don't count). Plugs the
  /// spawn window: threads announce themselves only once they start
  /// running, so without this gate the first grants race thread startup
  /// and the enabled sets reported to the explorer are
  /// under-approximated. The stall watchdog still fires as an escape
  /// hatch if the threads never arrive (counted in stall_grants).
  size_t await_threads = 0;
};

struct ExploreStep {
  TraceEntry entry;
  /// Tokens of all threads whose pending operation was runnable when this
  /// step was granted (the DPOR "enabled" set), sorted.
  std::vector<uint32_t> enabled;
  /// Tokens that were in the sleep set at this step.
  std::vector<uint32_t> sleeping;
};

struct ExploreRun {
  Trace trace;
  std::vector<ExploreStep> steps;
  size_t forced_consumed = 0;
  /// The forced prefix could not be followed to its end (a forced thread
  /// exited, never arrived or never became runnable). A replay is clean
  /// iff this is false.
  bool diverged = false;
  /// Grants issued by the stall watchdog (non-quiescent state): each one
  /// is a nondeterminism warning. A stall after the forced prefix was
  /// consumed counts here only, not in `diverged`.
  size_t stall_grants = 0;
  /// Steps where every runnable thread was asleep and the scheduler had
  /// to wake one (sleep-set blocked state).
  size_t sleep_forced = 0;
  bool hit_step_limit = false;
};

void StartExplore(const ExploreOptions& options);
ExploreRun StopExplore();

/// Stable explore-session token for a thread name (assigned on first use,
/// persists across executions of one explore session so DPOR's forced
/// prefixes stay meaningful).
uint32_t ExploreTokenForName(const std::string& name);

/// Explore options that replay `trace`: the forced prefix is the trace's
/// thread sequence, its names mapped to this session's tokens through
/// ExploreTokenForName (so a trace persisted by another process replays
/// too), and the seed is the trace's.
ExploreOptions ReplayOptions(const Trace& trace);

}  // namespace dynamast::sched

/// Hook-site macros. They compile to nothing unless the build enables
/// DYNAMAST_SCHED_FUZZ, so hot paths carry no branch in default builds.
#if defined(DYNAMAST_SCHED_FUZZ) && DYNAMAST_SCHED_FUZZ
#define DYNAMAST_SCHED_FUZZ_ENABLED 1
#define DYNAMAST_SCHED_OP(kind, uid) \
  ::dynamast::sched::Op(::dynamast::sched::OpKind::kind, (uid))
#define DYNAMAST_SCHED_OP_SCOPE(var, kind, uid) \
  ::dynamast::sched::OpScope var(::dynamast::sched::OpKind::kind, (uid))
#define DYNAMAST_SCHED_REGISTER(label) (::dynamast::sched::RegisterObject(label))
#else
#define DYNAMAST_SCHED_FUZZ_ENABLED 0
#define DYNAMAST_SCHED_OP(kind, uid) ((void)(uid))
#define DYNAMAST_SCHED_OP_SCOPE(var, kind, uid) ((void)(uid))
#define DYNAMAST_SCHED_REGISTER(label) ((void)(label), 0U)
#endif

#endif  // DYNAMAST_COMMON_SCHEDULER_H_
