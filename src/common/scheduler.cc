#include "common/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <utility>

namespace dynamast::sched {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kNoToken = 0xffffffffU;
// Watchdog: how long the scheduler tolerates a non-quiescent state (an
// untracked thread doing work, a granted op stuck in native code) before
// it forces progress. Each firing is counted as a
// nondeterminism warning in ExploreRun::stall_grants.
constexpr auto kExploreStall = std::chrono::seconds(2);
constexpr auto kCvPoll = std::chrono::milliseconds(50);

// SplitMix64 finalizer: cheap, well-mixed, and stateless.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct ObjectInfo {
  std::string label;
  std::string birth_thread;
  uint32_t birth_index = 0;
};

struct ExploreThread {
  enum class State { kRunning, kWaiting, kBlocked, kDone };
  State state = State::kRunning;
  bool has_pending = false;
  OpKind pending_kind = OpKind::kMarker;
  uint32_t pending_obj = 0;
  bool granted = false;
  uint64_t grant_seq = 0;
};

struct Ownership {
  uint32_t exclusive = kNoToken;
  std::set<uint32_t> shared;
};

struct Engine {
  // Fast-path state (read on every op without taking mu).
  std::atomic<uint8_t> mode{0};
  // Bumped on every StartExplore/StopExplore so stale thread tokens from a
  // previous run are ignored.
  std::atomic<uint64_t> run_id{1};

  // Everything below is guarded by mu. The engine deliberately uses raw
  // std::mutex / std::condition_variable: it sits *underneath* DebugMutex
  // and must never re-enter its own hooks.
  std::mutex mu;
  std::condition_variable cv;

  // --- identity ---
  std::vector<ObjectInfo> objects{ObjectInfo{"<anon>", "", 0}};  // uid 0
  std::map<std::pair<std::string, std::string>, uint32_t> birth_counters;
  std::map<const void*, uint64_t> cv_gens;

  // --- explore ---
  bool exploring = false;
  ExploreOptions ex_opts;
  std::map<std::string, uint32_t> ex_name_tokens;  // session-persistent
  std::map<std::string, uint32_t> ex_name_instances;
  std::map<uint32_t, ExploreThread> ex_threads;
  std::map<uint32_t, Ownership> ex_owner;
  std::vector<TraceEntry> ex_entries;  // entry.object = engine uid
  std::vector<ExploreStep> ex_steps;
  std::set<uint32_t> ex_sleep;
  size_t ex_forced_cursor = 0;
  bool ex_grant_active = false;
  uint64_t ex_grant_seq = 0;
  Clock::time_point ex_progress = Clock::now();
  uint64_t ex_rng = 0;
  int ex_preemptions_left = -1;
  uint32_t ex_last_token = kNoToken;
  size_t ex_stall_grants = 0;
  size_t ex_sleep_forced = 0;
  bool ex_abandoned = false;  // forced prefix given up after a stall
  bool ex_hit_limit = false;
  bool ex_await_done = false;
  // Captured at grant time, consumed by FinishOp.
  std::vector<uint32_t> ex_grant_enabled;
  std::vector<uint32_t> ex_grant_sleeping;
};

Engine g_engine;

struct Tls {
  std::string name;
  uint64_t run = 0;
  uint32_t token = kNoToken;
};

thread_local Tls t_tls;

// ---------------------------------------------------------------------------
// Explore mode.

uint32_t ExploreTokenLocked() {
  Engine& g = g_engine;
  Tls& t = t_tls;
  const uint64_t run = g.run_id.load(std::memory_order_relaxed);
  if (t.run == run && t.token != kNoToken) return t.token;
  t.run = run;
  const std::string base = t.name.empty() ? "anon" : t.name;
  const uint32_t instance = g.ex_name_instances[base]++;
  const std::string effective =
      instance == 0 ? base : base + "#" + std::to_string(instance);
  auto it = g.ex_name_tokens.find(effective);
  if (it == g.ex_name_tokens.end()) {
    const uint32_t token = static_cast<uint32_t>(g.ex_name_tokens.size());
    it = g.ex_name_tokens.emplace(effective, token).first;
  }
  t.token = it->second;
  g.ex_threads[t.token].state = ExploreThread::State::kRunning;
  return t.token;
}

bool ExRunnableLocked(const ExploreThread& th) {
  Engine& g = g_engine;
  if (!th.has_pending) return false;
  const auto it = g.ex_owner.find(th.pending_obj);
  if (it == g.ex_owner.end()) return true;
  const Ownership& own = it->second;
  switch (th.pending_kind) {
    case OpKind::kMutexLock:
      return own.exclusive == kNoToken && own.shared.empty();
    case OpKind::kMutexLockShared:
      return own.exclusive == kNoToken;
    default:
      return true;
  }
}

// The serial scheduler's single decision step. Caller holds mu. Grants at
// most one pending operation; returns without granting when the system is
// not quiescent (a tracked thread is Running) unless the stall watchdog
// fired.
void ExTryScheduleLocked() {
  Engine& g = g_engine;
  if (!g.exploring || g.ex_grant_active) {
    // Grant watchdog: a granted op stuck in native code (blocked on an
    // untracked resource) must not wedge the whole exploration.
    if (g.exploring && g.ex_grant_active &&
        Clock::now() - g.ex_progress > kExploreStall) {
      g.ex_grant_active = false;
      ++g.ex_stall_grants;
      g.ex_progress = Clock::now();
    } else {
      return;
    }
  }
  if (g.ex_entries.size() >= g.ex_opts.max_steps) {
    // Budget exhausted: free-run the rest of the execution so it still
    // terminates; the collected prefix is what the explorer analyzes.
    g.ex_hit_limit = true;
    g.exploring = false;
    g.cv.notify_all();
    return;
  }

  bool any_running = false;
  for (const auto& [tok, th] : g.ex_threads) {
    if (th.state == ExploreThread::State::kRunning) any_running = true;
  }
  const bool stalled = Clock::now() - g.ex_progress > kExploreStall;

  // Startup gate: hold every grant until the declared thread population
  // has registered, so the first choice points see the full enabled set.
  // Blocked threads don't count: a ScopedBlocked joiner (the spawning
  // thread) registers too, but is a bystander, not a participant.
  if (!g.ex_await_done) {
    size_t participants = 0;
    for (const auto& [tok, th] : g.ex_threads) {
      if (th.state != ExploreThread::State::kBlocked) ++participants;
    }
    if (participants >= g.ex_opts.await_threads) {
      g.ex_await_done = true;
    } else if (stalled) {
      g.ex_await_done = true;  // stragglers never arrived; stop waiting
      ++g.ex_stall_grants;
    } else {
      return;
    }
  }

  if (any_running && !stalled) return;

  // Sleep-set injections for the step about to be chosen.
  const size_t step = g.ex_entries.size();
  if (step < g.ex_opts.sleep_add.size()) {
    for (uint32_t tok : g.ex_opts.sleep_add[step]) g.ex_sleep.insert(tok);
  }

  std::vector<uint32_t> candidates;
  for (const auto& [tok, th] : g.ex_threads) {
    if (th.state == ExploreThread::State::kWaiting && ExRunnableLocked(th)) {
      candidates.push_back(tok);
    }
  }
  if (candidates.empty()) {
    // No runnable pending op. Usually transient (threads mid-flight or
    // parked); if it persists with waiters present and nothing running,
    // the ownership model says we're deadlocked — disarm so the run can
    // finish natively rather than wedge the harness.
    bool any_waiting = false;
    for (const auto& [tok, th] : g.ex_threads) {
      if (th.state == ExploreThread::State::kWaiting) any_waiting = true;
    }
    if (stalled && !any_running && any_waiting) {
      ++g.ex_stall_grants;
      g.exploring = false;
      g.cv.notify_all();
    }
    return;
  }
  std::sort(candidates.begin(), candidates.end());

  uint32_t chosen = kNoToken;
  if (!g.ex_abandoned && g.ex_forced_cursor < g.ex_opts.forced.size()) {
    const uint32_t want = g.ex_opts.forced[g.ex_forced_cursor];
    if (std::find(candidates.begin(), candidates.end(), want) !=
        candidates.end()) {
      chosen = want;
      ++g.ex_forced_cursor;
    } else if (stalled) {
      // The forced thread never became runnable: the prefix no longer
      // matches this program. Abandon it (StopExplore reports the
      // divergence) and fall back to free scheduling so the execution
      // still completes.
      g.ex_abandoned = true;
      ++g.ex_stall_grants;
    } else {
      return;  // wait for the forced thread to arrive
    }
  }

  if (chosen == kNoToken) {
    std::vector<uint32_t> awake;
    for (uint32_t tok : candidates) {
      if (g.ex_sleep.count(tok) == 0) awake.push_back(tok);
    }
    std::vector<uint32_t>& pool = awake.empty() ? candidates : awake;
    if (awake.empty()) ++g.ex_sleep_forced;
    if (g.ex_preemptions_left >= 0) {
      // Bounded-preemption fallback: keep running the last thread unless
      // the budget allows a randomized switch (PCT-style).
      g.ex_rng = Mix(g.ex_rng);
      uint32_t pick = pool[g.ex_rng % pool.size()];
      const bool last_available =
          std::find(pool.begin(), pool.end(), g.ex_last_token) != pool.end();
      if (last_available && pick != g.ex_last_token) {
        if (g.ex_preemptions_left == 0) {
          pick = g.ex_last_token;
        } else {
          --g.ex_preemptions_left;
        }
      }
      chosen = pick;
    } else {
      chosen = pool.front();
    }
  }

  if (stalled && any_running) ++g.ex_stall_grants;

  ExploreThread& th = g.ex_threads[chosen];
  th.granted = true;
  th.grant_seq = ++g.ex_grant_seq;
  g.ex_grant_active = true;
  g.ex_grant_enabled = candidates;
  g.ex_grant_sleeping.assign(g.ex_sleep.begin(), g.ex_sleep.end());
  g.ex_progress = Clock::now();
  g.ex_last_token = chosen;
  g.cv.notify_all();
}

// Blocks until the serial scheduler grants this thread's pending op.
// Returns false if exploration stopped meanwhile (pass through).
bool ExRequestOp(OpKind kind, uint32_t uid) {
  Engine& g = g_engine;
  std::unique_lock<std::mutex> lk(g.mu);
  if (!g.exploring) return false;
  const uint32_t token = ExploreTokenLocked();
  ExploreThread& th = g.ex_threads[token];
  th.has_pending = true;
  th.pending_kind = kind;
  th.pending_obj = uid;
  th.state = ExploreThread::State::kWaiting;
  g.cv.notify_all();
  while (true) {
    if (!g.exploring || g.ex_hit_limit) {
      th.has_pending = false;
      th.state = ExploreThread::State::kRunning;
      return false;
    }
    if (th.granted) break;
    ExTryScheduleLocked();
    if (th.granted) break;
    g.cv.wait_for(lk, kCvPoll);
  }
  th.granted = false;
  th.state = ExploreThread::State::kRunning;
  return true;
}

void ExFinishOp(OpKind kind, uint32_t uid) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (!g.exploring) return;
  const uint32_t token = t_tls.token;
  auto it = g.ex_threads.find(token);
  if (it == g.ex_threads.end()) return;
  ExploreThread& th = it->second;
  th.has_pending = false;

  Ownership& own = g.ex_owner[uid];
  switch (kind) {
    case OpKind::kMutexLock:
      own.exclusive = token;
      break;
    case OpKind::kMutexUnlock:
      if (own.exclusive == token) own.exclusive = kNoToken;
      break;
    case OpKind::kMutexLockShared:
      own.shared.insert(token);
      break;
    case OpKind::kMutexUnlockShared:
      own.shared.erase(token);
      break;
    default:
      break;
  }

  ExploreStep step;
  step.entry = TraceEntry{token, kind, uid};
  step.enabled = std::move(g.ex_grant_enabled);
  step.sleeping = std::move(g.ex_grant_sleeping);
  g.ex_grant_enabled.clear();
  g.ex_grant_sleeping.clear();
  g.ex_entries.push_back(step.entry);
  g.ex_steps.push_back(std::move(step));

  // Sleep-set maintenance: executing an operation wakes every sleeper
  // whose pending operation conflicts with it.
  for (auto sit = g.ex_sleep.begin(); sit != g.ex_sleep.end();) {
    const auto tit = g.ex_threads.find(*sit);
    const bool conflicts =
        tit != g.ex_threads.end() && tit->second.has_pending &&
        tit->second.pending_obj == uid &&
        OpsConflict(kind, tit->second.pending_kind);
    if (conflicts) {
      sit = g.ex_sleep.erase(sit);
    } else {
      ++sit;
    }
  }

  if (th.grant_seq == g.ex_grant_seq) g.ex_grant_active = false;
  g.ex_progress = Clock::now();
  g.cv.notify_all();
}

// One granted, traced step on no object: how a thread that starts or
// returns from a native wait (a join) rejoins the serial schedule. The
// untracked work that follows (say, reading or setting a stop flag)
// then starts at a place the trace fixes, not whenever the OS happened to
// run the thread.
void ExMarkerStep() {
  if (ExRequestOp(OpKind::kMarker, 0)) ExFinishOp(OpKind::kMarker, 0);
}

void ExSetThreadState(ExploreThread::State state, bool register_thread) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (!g.exploring) return;
  if (register_thread) ExploreTokenLocked();
  auto it = g.ex_threads.find(t_tls.token);
  if (it == g.ex_threads.end() ||
      g.run_id.load(std::memory_order_relaxed) != t_tls.run) {
    return;
  }
  it->second.state = state;
  g.ex_progress = Clock::now();
  g.cv.notify_all();
}

}  // namespace

// ---------------------------------------------------------------------------
// Mode control.

Mode CurrentMode() {
  return static_cast<Mode>(g_engine.mode.load(std::memory_order_acquire));
}

// ---------------------------------------------------------------------------
// Identity.

void BindThreadName(const std::string& name) { t_tls.name = name; }

std::string CurrentThreadName() { return t_tls.name; }

ThreadGuard::ThreadGuard(const std::string& name) {
  BindThreadName(name);
  if (CurrentMode() == Mode::kExplore) ExMarkerStep();
}

ThreadGuard::~ThreadGuard() {
  if (CurrentMode() == Mode::kExplore) {
    ExSetThreadState(ExploreThread::State::kDone, /*register_thread=*/false);
  }
}

uint32_t RegisterObject(const char* label) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  const std::string thread = t_tls.name.empty() ? "main" : t_tls.name;
  const uint32_t ordinal = g.birth_counters[{label, thread}]++;
  const uint32_t uid = static_cast<uint32_t>(g.objects.size());
  g.objects.push_back(ObjectInfo{label, thread, ordinal});
  return uid;
}

void ResetIdentities() {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (t_tls.name.empty()) t_tls.name = "main";
  g.objects.clear();
  g.objects.push_back(ObjectInfo{"<anon>", "", 0});
  g.birth_counters.clear();
  g.cv_gens.clear();
}

// ---------------------------------------------------------------------------
// OpScope.

OpScope::OpScope(OpKind kind, uint32_t object_uid) {
  if (object_uid == 0 || CurrentMode() != Mode::kExplore) return;
  kind_ = kind;
  object_ = object_uid;
  armed_ = ExRequestOp(kind, object_uid);
}

OpScope::~OpScope() {
  if (armed_) ExFinishOp(kind_, object_);
}

ScopedBlocked::ScopedBlocked() {
  if (CurrentMode() != Mode::kExplore) return;
  armed_ = true;
  ExSetThreadState(ExploreThread::State::kBlocked, /*register_thread=*/true);
}

ScopedBlocked::~ScopedBlocked() {
  if (!armed_) return;
  if (CurrentMode() != Mode::kExplore) return;
  ExMarkerStep();
}

// ---------------------------------------------------------------------------
// Condvar redirection.

bool CvRedirectArmed() { return CurrentMode() == Mode::kExplore; }

uint64_t CvGeneration(const void* cv) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  return g.cv_gens[cv];
}

void CvNotify(const void* cv) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  ++g.cv_gens[cv];
  g.cv.notify_all();
}

bool CvPark(const void* cv, uint64_t start_gen,
            std::chrono::steady_clock::time_point deadline) {
  Engine& g = g_engine;
  std::unique_lock<std::mutex> lk(g.mu);
  // A parked thread must not count against explore-mode quiescence.
  const bool exploring = g.exploring;
  ExploreThread* th = nullptr;
  ExploreThread::State saved = ExploreThread::State::kRunning;
  if (exploring) {
    ExploreTokenLocked();
    auto it = g.ex_threads.find(t_tls.token);
    if (it != g.ex_threads.end()) {
      th = &it->second;
      saved = th->state;
      th->state = ExploreThread::State::kBlocked;
      g.ex_progress = Clock::now();
      g.cv.notify_all();
    }
  }
  bool changed = false;
  while (true) {
    if (!CvRedirectArmed()) {
      changed = true;  // mode flipped: let the caller recheck its predicate
      break;
    }
    if (g.cv_gens[cv] != start_gen) {
      changed = true;
      break;
    }
    const auto now = Clock::now();
    if (now >= deadline) break;
    const auto wait = std::min<Clock::duration>(kCvPoll, deadline - now);
    g.cv.wait_for(lk, wait);
  }
  if (th != nullptr && g.exploring) {
    th->state = saved;
    g.ex_progress = Clock::now();
    g.cv.notify_all();
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Explore control.

void StartExplore(const ExploreOptions& options) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (t_tls.name.empty()) t_tls.name = "main";
  g.exploring = true;
  g.ex_opts = options;
  if (options.fresh_session) g.ex_name_tokens.clear();
  g.ex_name_instances.clear();
  g.ex_threads.clear();
  g.ex_owner.clear();
  g.ex_entries.clear();
  g.ex_steps.clear();
  g.ex_sleep.clear();
  g.ex_forced_cursor = 0;
  g.ex_grant_active = false;
  g.ex_grant_enabled.clear();
  g.ex_grant_sleeping.clear();
  g.ex_progress = Clock::now();
  g.ex_rng = Mix(options.seed ^ 0xd1b54a32d192ed03ULL);
  g.ex_preemptions_left = options.preemption_bound;
  g.ex_last_token = kNoToken;
  g.ex_stall_grants = 0;
  g.ex_sleep_forced = 0;
  g.ex_abandoned = false;
  g.ex_hit_limit = false;
  g.ex_await_done = options.await_threads == 0;
  g.run_id.fetch_add(1, std::memory_order_relaxed);
  g.mode.store(static_cast<uint8_t>(Mode::kExplore), std::memory_order_release);
}

ExploreRun StopExplore() {
  Engine& g = g_engine;
  g.mode.store(static_cast<uint8_t>(Mode::kOff), std::memory_order_release);
  std::lock_guard<std::mutex> lk(g.mu);
  ExploreRun run;
  run.forced_consumed = g.ex_forced_cursor;
  // Whatever stopped the prefix (an abandoned forced thread, a disarm, the
  // step budget, the run ending early), it was not followed to its end.
  run.diverged = g.ex_forced_cursor < g.ex_opts.forced.size();
  run.stall_grants = g.ex_stall_grants;
  run.sleep_forced = g.ex_sleep_forced;
  run.hit_step_limit = g.ex_hit_limit;
  run.steps = std::move(g.ex_steps);

  // Token -> name table (tokens are session-stable and may be sparse in
  // this execution).
  uint32_t max_token = 0;
  for (const auto& [name, tok] : g.ex_name_tokens) {
    max_token = std::max(max_token, tok);
  }
  run.trace.seed = g.ex_opts.seed;
  run.trace.threads.assign(g.ex_name_tokens.empty() ? 0 : max_token + 1, "?");
  for (const auto& [name, tok] : g.ex_name_tokens) {
    run.trace.threads[tok] = name;
  }
  std::map<uint32_t, uint32_t> uid2dense;
  for (const TraceEntry& e : g.ex_entries) {
    auto [it, inserted] = uid2dense.emplace(
        e.object, static_cast<uint32_t>(run.trace.objects.size()));
    if (inserted) {
      const ObjectInfo& o =
          e.object < g.objects.size() ? g.objects[e.object] : ObjectInfo{};
      run.trace.objects.push_back(
          TraceObject{o.label, o.birth_thread, o.birth_index});
    }
    run.trace.entries.push_back(TraceEntry{e.thread, e.kind, it->second});
  }
  for (ExploreStep& s : run.steps) {
    auto it = uid2dense.find(s.entry.object);
    if (it != uid2dense.end()) s.entry.object = it->second;
  }

  g.exploring = false;
  g.ex_threads.clear();
  g.ex_owner.clear();
  g.ex_entries.clear();
  g.ex_steps.clear();
  g.ex_sleep.clear();
  g.run_id.fetch_add(1, std::memory_order_relaxed);
  g.cv.notify_all();
  return run;
}

uint32_t ExploreTokenForName(const std::string& name) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  auto it = g.ex_name_tokens.find(name);
  if (it != g.ex_name_tokens.end()) return it->second;
  const uint32_t token = static_cast<uint32_t>(g.ex_name_tokens.size());
  g.ex_name_tokens.emplace(name, token);
  return token;
}

ExploreOptions ReplayOptions(const Trace& trace) {
  ExploreOptions options;
  options.seed = trace.seed;
  std::vector<uint32_t> tokens(trace.threads.size(), kNoToken);
  options.forced.reserve(trace.entries.size());
  for (const TraceEntry& e : trace.entries) {
    uint32_t& token = tokens.at(e.thread);
    if (token == kNoToken) token = ExploreTokenForName(trace.threads[e.thread]);
    options.forced.push_back(token);
  }
  return options;
}

}  // namespace dynamast::sched
