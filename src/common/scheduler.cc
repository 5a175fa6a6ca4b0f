#include "common/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

namespace dynamast::sched {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kNoToken = 0xffffffffU;
// How long a replay gate waits for its recorded turn before declaring the
// run divergent and disarming (free-running the rest).
constexpr auto kReplayStall = std::chrono::seconds(5);
// Explore-mode watchdogs: how long the scheduler tolerates a non-quiescent
// state (an untracked thread doing work, a granted op stuck in native
// code) before it forces progress. Each firing is counted as a
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

uint64_t HashName(const char* name) {
  // FNV-1a; hook-class names are short string literals.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint64_t>(*p)) * 0x100000001b3ULL;
  }
  return h;
}

struct ObjectInfo {
  std::string label;
  std::string birth_thread;
  uint32_t birth_index = 0;
};

// One engine-side synchronization object during replay: the recorded
// per-object queue (indices into trace.entries) plus a cursor.
struct ReplayObject {
  std::vector<uint32_t> queue;
  size_t cursor = 0;
};

struct ExploreThread {
  enum class State { kRunning, kWaiting, kBlocked, kDone };
  std::string name;
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
  // The release store of `mode` publishes all Start*/Enable config.
  std::atomic<uint8_t> mode{0};
  // Relaxed: published by the release store of `mode`.
  std::atomic<bool> fuzz_layer{false};
  // `seed` and `epoch` are read for RNG mixing only (relaxed).
  std::atomic<uint64_t> seed{0};
  std::atomic<uint64_t> epoch{1};
  std::atomic<uint64_t> next_thread_token{0};
  std::atomic<uint64_t> points{0};
  std::atomic<uint64_t> perturbations{0};
  // Bumped on every Start*/Stop* so stale OpScopes / thread tokens from a
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

  // --- record ---
  bool recording = false;
  std::vector<TraceEntry> rec_entries;  // entry.object = engine uid
  std::vector<std::string> rec_threads;

  // --- replay ---
  bool replaying = false;
  bool replay_disarmed = false;
  Trace replay_trace;
  std::vector<ReplayObject> replay_objects;       // by trace object index
  std::map<std::string, uint32_t> replay_keys;    // object key -> trace idx
  std::map<uint32_t, int64_t> replay_uid2obj;     // engine uid -> trace idx
  std::vector<bool> replay_thread_claimed;
  std::vector<bool> replay_thread_exited;  // token deregistered (ThreadGuard)
  size_t replay_consumed = 0;
  size_t replay_unmatched = 0;
  size_t replay_skipped_exited = 0;
  std::vector<std::string> replay_divergences;

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
  bool ex_diverged = false;
  bool ex_hit_limit = false;
  bool ex_await_done = false;
  // Captured at grant time, consumed by FinishOp.
  std::vector<uint32_t> ex_grant_enabled;
  std::vector<uint32_t> ex_grant_sleeping;
};

Engine g_engine;

struct Tls {
  // Legacy fuzz layer.
  uint64_t epoch = 0;
  uint64_t rng = 0;
  uint32_t priority = 0;
  // Trace identity.
  std::string name;
  uint64_t run = 0;
  uint32_t token = kNoToken;
  bool divergence_noted = false;
};

thread_local Tls t_tls;

uint64_t NextRand(Tls& t) {
  t.rng = Mix(t.rng);
  return t.rng;
}

void Perturb(const char* site_name) {
  // The PR 2 PCT-lite layer, unchanged: priorities 0..7, 17% down to 3%
  // perturbation probability, mostly yields with occasional short sleeps.
  Engine& g = g_engine;
  Tls& t = t_tls;
  const uint64_t epoch = g.epoch.load(std::memory_order_relaxed);
  if (t.epoch != epoch) {
    t.epoch = epoch;
    const uint64_t token =
        g.next_thread_token.fetch_add(1, std::memory_order_relaxed);
    t.rng = Mix(g.seed.load(std::memory_order_relaxed) ^
                Mix(token + 0x51ed270b1a2f9d23ULL));
    t.priority = static_cast<uint32_t>(NextRand(t) & 7);
  }
  g.points.fetch_add(1, std::memory_order_relaxed);

  const uint64_t r = NextRand(t) ^ HashName(site_name);
  const uint64_t roll = r % 100;
  const uint64_t threshold = 17 - 2 * t.priority;
  if (roll >= threshold) return;
  g.perturbations.fetch_add(1, std::memory_order_relaxed);

  if ((r >> 8) % 4 != 0) {
    std::this_thread::yield();
  } else {
    const auto micros = 1 + ((r >> 16) % 100);
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

bool FuzzLayerActive(uint8_t mode) {
  return mode == static_cast<uint8_t>(Mode::kFuzz) ||
         (mode == static_cast<uint8_t>(Mode::kRecord) &&
          g_engine.fuzz_layer.load(std::memory_order_relaxed));
}

std::string ThreadNameOrAnon(uint32_t token) {
  if (!t_tls.name.empty()) return t_tls.name;
  return "anon/" + std::to_string(token);
}

// ---------------------------------------------------------------------------
// Record mode.

// Assigns (once per run) this thread's record token. Caller holds mu.
uint32_t RecordTokenLocked() {
  Engine& g = g_engine;
  Tls& t = t_tls;
  const uint64_t run = g.run_id.load(std::memory_order_relaxed);
  if (t.run != run) {
    t.run = run;
    t.token = static_cast<uint32_t>(g.rec_threads.size());
    g.rec_threads.push_back(ThreadNameOrAnon(t.token));
  }
  return t.token;
}

void RecordEntry(OpKind kind, uint32_t uid) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (!g.recording || uid == 0 || uid >= g.objects.size()) return;
  g.rec_entries.push_back(TraceEntry{RecordTokenLocked(), kind, uid});
}

// ---------------------------------------------------------------------------
// Replay mode.

void ReplayDivergeLocked(const std::string& why) {
  Engine& g = g_engine;
  if (g.replay_divergences.size() < 32) g.replay_divergences.push_back(why);
  g.replay_disarmed = true;
  g.cv.notify_all();
}

// Claims this thread's trace identity by name (lowest unclaimed trace
// thread with a matching name). Caller holds mu.
uint32_t ReplayTokenLocked() {
  Engine& g = g_engine;
  Tls& t = t_tls;
  const uint64_t run = g.run_id.load(std::memory_order_relaxed);
  if (t.run == run) return t.token;
  t.run = run;
  t.token = kNoToken;
  t.divergence_noted = false;
  const std::string name = ThreadNameOrAnon(0);
  for (size_t i = 0; i < g.replay_trace.threads.size(); ++i) {
    if (!g.replay_thread_claimed[i] && g.replay_trace.threads[i] == name) {
      g.replay_thread_claimed[i] = true;
      t.token = static_cast<uint32_t>(i);
      break;
    }
  }
  if (t.token == kNoToken && !t.divergence_noted) {
    t.divergence_noted = true;
    if (g.replay_divergences.size() < 32) {
      g.replay_divergences.push_back("unexpected thread \"" + name +
                                     "\" not present in trace");
    }
  }
  return t.token;
}

// Engine uid -> trace object index, or -1 if the trace never saw it.
// Caller holds mu.
int64_t ReplayObjectLocked(uint32_t uid) {
  Engine& g = g_engine;
  auto it = g.replay_uid2obj.find(uid);
  if (it != g.replay_uid2obj.end()) return it->second;
  int64_t idx = -1;
  if (uid < g.objects.size()) {
    const ObjectInfo& o = g.objects[uid];
    TraceObject key{o.label, o.birth_thread, o.birth_index};
    auto kit = g.replay_keys.find(key.Key());
    if (kit != g.replay_keys.end()) idx = kit->second;
  }
  g.replay_uid2obj[uid] = idx;
  return idx;
}

void ReplayConsumeHeadLocked(int64_t obj_idx) {
  Engine& g = g_engine;
  ReplayObject& ro = g.replay_objects[static_cast<size_t>(obj_idx)];
  ++ro.cursor;
  ++g.replay_consumed;
  g.cv.notify_all();
}

// Blocks until this (thread, kind) pair is at the head of its object's
// recorded queue. `consume` advances the queue before returning (release-
// like ops); acquire-like ops keep the head reserved and consume it from
// the OpScope destructor once the native acquisition completed.
// Returns false if replay is (or became) disarmed / untracked.
bool ReplayGate(OpKind kind, uint32_t uid, bool consume) {
  Engine& g = g_engine;
  std::unique_lock<std::mutex> lk(g.mu);
  if (!g.replaying || g.replay_disarmed) return false;
  const uint32_t token = ReplayTokenLocked();
  const int64_t obj_idx = ReplayObjectLocked(uid);
  if (token == kNoToken || obj_idx < 0 || uid == 0) {
    ++g.replay_unmatched;
    return false;
  }
  ReplayObject& ro = g.replay_objects[static_cast<size_t>(obj_idx)];
  auto start = Clock::now();
  while (true) {
    if (!g.replaying || g.replay_disarmed) return false;
    if (ro.cursor >= ro.queue.size()) {
      // More live operations than the trace recorded (post-measurement
      // teardown): pass through.
      ++g.replay_unmatched;
      return false;
    }
    const TraceEntry& head = g.replay_trace.entries[ro.queue[ro.cursor]];
    if (head.thread != token && head.thread < g.replay_thread_exited.size() &&
        g.replay_thread_exited[head.thread]) {
      // The recorded thread deregistered without performing this op: its
      // exit raced an untraced stop flag (it skipped a final no-op drain
      // iteration the recorded run happened to squeeze in). Shed the entry
      // so the stream keeps moving; a live expected thread still stalls
      // and flags below.
      ++g.replay_skipped_exited;
      ReplayConsumeHeadLocked(obj_idx);
      start = Clock::now();
      continue;
    }
    if (head.thread == token) {
      if (head.kind != kind) {
        std::ostringstream os;
        os << "thread \"" << g.replay_trace.threads[token] << "\" performed "
           << OpKindName(kind) << " on object "
           << g.replay_trace.objects[head.object].Key() << " but trace expects "
           << OpKindName(head.kind);
        ReplayDivergeLocked(os.str());
        return false;
      }
      if (consume) ReplayConsumeHeadLocked(obj_idx);
      return true;
    }
    if (Clock::now() - start > kReplayStall) {
      std::ostringstream os;
      os << "stalled " << ">" << kReplayStall.count() << "s: thread \""
         << g.replay_trace.threads[token] << "\" waiting to "
         << OpKindName(kind) << " object "
         << g.replay_trace.objects[g.replay_trace.entries[ro.queue[ro.cursor]]
                                       .object]
                .Key()
         << " but trace expects thread \""
         << g.replay_trace.threads[head.thread] << "\" to "
         << OpKindName(head.kind) << " first";
      ReplayDivergeLocked(os.str());
      return false;
    }
    g.cv.wait_for(lk, kCvPoll);
  }
}

// Destructor half of an acquire-like replayed op.
void ReplayFinishAcquire(OpKind kind, uint32_t uid) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (!g.replaying || g.replay_disarmed) return;
  const int64_t obj_idx = ReplayObjectLocked(uid);
  if (obj_idx < 0) return;
  ReplayObject& ro = g.replay_objects[static_cast<size_t>(obj_idx)];
  if (ro.cursor >= ro.queue.size()) return;
  const TraceEntry& head = g.replay_trace.entries[ro.queue[ro.cursor]];
  if (head.thread == t_tls.token && head.kind == kind) {
    ReplayConsumeHeadLocked(obj_idx);
  }
}

// A deregistering thread can never perform its remaining recorded
// entries. Mark its trace token dead so gates queued behind those entries
// shed them instead of stalling. Claims the token by name if the thread
// exited before its first traced op (without noting a divergence — a
// bystander thread absent from the trace is fine).
void ReplayMarkExited() {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (!g.replaying) return;
  Tls& t = t_tls;
  const uint64_t run = g.run_id.load(std::memory_order_relaxed);
  uint32_t token = t.run == run ? t.token : kNoToken;
  if (token == kNoToken) {
    const std::string name = ThreadNameOrAnon(0);
    for (size_t i = 0; i < g.replay_trace.threads.size(); ++i) {
      if (!g.replay_thread_claimed[i] && g.replay_trace.threads[i] == name) {
        g.replay_thread_claimed[i] = true;
        token = static_cast<uint32_t>(i);
        break;
      }
    }
  }
  if (token != kNoToken && token < g.replay_thread_exited.size()) {
    g.replay_thread_exited[token] = true;
    g.cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Explore mode.

uint32_t ExploreTokenLocked() {
  Engine& g = g_engine;
  Tls& t = t_tls;
  const uint64_t run = g.run_id.load(std::memory_order_relaxed);
  if (t.run == run && t.token != kNoToken) return t.token;
  t.run = run;
  const std::string base = ThreadNameOrAnon(0);
  const uint32_t instance = g.ex_name_instances[base]++;
  const std::string effective =
      instance == 0 ? base : base + "#" + std::to_string(instance);
  auto it = g.ex_name_tokens.find(effective);
  if (it == g.ex_name_tokens.end()) {
    const uint32_t token = static_cast<uint32_t>(g.ex_name_tokens.size());
    it = g.ex_name_tokens.emplace(effective, token).first;
  }
  t.token = it->second;
  ExploreThread& th = g.ex_threads[t.token];
  th.name = effective;
  th.state = ExploreThread::State::kRunning;
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
      g.ex_diverged = true;
      ++g.ex_stall_grants;
      g.exploring = false;
      g.cv.notify_all();
    }
    return;
  }
  std::sort(candidates.begin(), candidates.end());

  uint32_t chosen = kNoToken;
  if (g.ex_forced_cursor < g.ex_opts.forced.size()) {
    const uint32_t want = g.ex_opts.forced[g.ex_forced_cursor];
    if (std::find(candidates.begin(), candidates.end(), want) !=
        candidates.end()) {
      chosen = want;
      ++g.ex_forced_cursor;
    } else if (stalled) {
      // The forced thread never became runnable: the prefix no longer
      // matches this program. Report divergence and fall back to free
      // scheduling so the execution still completes.
      g.ex_diverged = true;
      g.ex_forced_cursor = g.ex_opts.forced.size();
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

void Enable(uint64_t seed) {
  Engine& g = g_engine;
  g.seed.store(seed, std::memory_order_relaxed);
  g.next_thread_token.store(0, std::memory_order_relaxed);
  g.points.store(0, std::memory_order_relaxed);
  g.perturbations.store(0, std::memory_order_relaxed);
  g.epoch.fetch_add(1, std::memory_order_relaxed);
  g.mode.store(static_cast<uint8_t>(Mode::kFuzz), std::memory_order_release);
}

void Disable() {
  g_engine.mode.store(static_cast<uint8_t>(Mode::kOff),
                      std::memory_order_release);
  std::lock_guard<std::mutex> lk(g_engine.mu);
  g_engine.cv.notify_all();
}

bool IsEnabled() { return CurrentMode() != Mode::kOff; }

uint64_t CurrentSeed() {
  return g_engine.seed.load(std::memory_order_relaxed);
}

uint64_t PointCount() {
  return g_engine.points.load(std::memory_order_relaxed);
}

uint64_t PerturbationCount() {
  return g_engine.perturbations.load(std::memory_order_relaxed);
}

void Point(const char* site_name) {
  const uint8_t m = g_engine.mode.load(std::memory_order_acquire);
  if (m == 0) return;
  if (FuzzLayerActive(m)) Perturb(site_name);
}

// ---------------------------------------------------------------------------
// Identity.

void BindThreadName(const std::string& name) { t_tls.name = name; }

std::string CurrentThreadName() { return t_tls.name; }

ThreadGuard::ThreadGuard(const std::string& name) {
  BindThreadName(name);
  if (CurrentMode() == Mode::kExplore) {
    ExSetThreadState(ExploreThread::State::kRunning, /*register_thread=*/true);
  }
}

ThreadGuard::~ThreadGuard() {
  const Mode m = CurrentMode();
  if (m == Mode::kExplore) {
    ExSetThreadState(ExploreThread::State::kDone, /*register_thread=*/false);
  } else if (m == Mode::kReplay) {
    ReplayMarkExited();
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
  const uint8_t m = g_engine.mode.load(std::memory_order_acquire);
  if (m == 0) return;
  kind_ = kind;
  object_ = object_uid;
  if (FuzzLayerActive(m)) Perturb(OpKindName(kind));
  switch (static_cast<Mode>(m)) {
    case Mode::kOff:
    case Mode::kFuzz:
      break;
    case Mode::kRecord:
      if (AcquireLike(kind)) {
        armed_ = m;  // record from the destructor, post-completion
      } else {
        RecordEntry(kind, object_uid);
      }
      break;
    case Mode::kReplay:
      if (AcquireLike(kind)) {
        if (ReplayGate(kind, object_uid, /*consume=*/false)) armed_ = m;
      } else {
        (void)ReplayGate(kind, object_uid, /*consume=*/true);
      }
      break;
    case Mode::kExplore:
      if (ExRequestOp(kind, object_uid)) armed_ = m;
      break;
  }
}

OpScope::~OpScope() {
  if (armed_ == 0) return;
  switch (static_cast<Mode>(armed_)) {
    case Mode::kRecord:
      RecordEntry(kind_, object_);
      break;
    case Mode::kReplay:
      ReplayFinishAcquire(kind_, object_);
      break;
    case Mode::kExplore:
      ExFinishOp(kind_, object_);
      break;
    default:
      break;
  }
}

ScopedBlocked::ScopedBlocked() {
  if (CurrentMode() != Mode::kExplore) return;
  armed_ = true;
  ExSetThreadState(ExploreThread::State::kBlocked, /*register_thread=*/true);
}

ScopedBlocked::~ScopedBlocked() {
  if (!armed_) return;
  if (CurrentMode() != Mode::kExplore) return;
  ExSetThreadState(ExploreThread::State::kRunning, /*register_thread=*/false);
}

// ---------------------------------------------------------------------------
// Condvar redirection.

bool CvRedirectArmed() {
  const Mode m = CurrentMode();
  return m == Mode::kRecord || m == Mode::kReplay || m == Mode::kExplore;
}

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
// Record / replay control.

void StartRecord(uint64_t seed, bool fuzz_layer) {
  Engine& g = g_engine;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    if (t_tls.name.empty()) t_tls.name = "main";
    g.recording = true;
    g.rec_entries.clear();
    g.rec_threads.clear();
    g.run_id.fetch_add(1, std::memory_order_relaxed);
  }
  g.seed.store(seed, std::memory_order_relaxed);
  g.fuzz_layer.store(fuzz_layer, std::memory_order_relaxed);
  g.next_thread_token.store(0, std::memory_order_relaxed);
  g.points.store(0, std::memory_order_relaxed);
  g.perturbations.store(0, std::memory_order_relaxed);
  g.epoch.fetch_add(1, std::memory_order_relaxed);
  g.mode.store(static_cast<uint8_t>(Mode::kRecord), std::memory_order_release);
}

Trace StopRecord() {
  Engine& g = g_engine;
  g.mode.store(static_cast<uint8_t>(Mode::kOff), std::memory_order_release);
  std::lock_guard<std::mutex> lk(g.mu);
  g.recording = false;
  g.run_id.fetch_add(1, std::memory_order_relaxed);

  Trace trace;
  trace.seed = g.seed.load(std::memory_order_relaxed);
  trace.threads = g.rec_threads;
  // Remap engine uids to a dense object table, ordered by first use.
  std::map<uint32_t, uint32_t> uid2dense;
  for (const TraceEntry& e : g.rec_entries) {
    auto [it, inserted] =
        uid2dense.emplace(e.object, static_cast<uint32_t>(trace.objects.size()));
    if (inserted) {
      const ObjectInfo& o = g.objects[e.object];
      trace.objects.push_back(TraceObject{o.label, o.birth_thread, o.birth_index});
    }
    trace.entries.push_back(TraceEntry{e.thread, e.kind, it->second});
  }
  g.rec_entries.clear();
  g.rec_threads.clear();
  g.cv.notify_all();
  return trace;
}

void StartReplay(const Trace& trace) {
  Engine& g = g_engine;
  std::lock_guard<std::mutex> lk(g.mu);
  if (t_tls.name.empty()) t_tls.name = "main";
  g.replaying = true;
  g.replay_disarmed = false;
  g.replay_trace = trace;
  g.replay_objects.assign(trace.objects.size(), ReplayObject{});
  g.replay_keys.clear();
  for (size_t i = 0; i < trace.objects.size(); ++i) {
    g.replay_keys.emplace(trace.objects[i].Key(), static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < trace.entries.size(); ++i) {
    g.replay_objects[trace.entries[i].object].queue.push_back(
        static_cast<uint32_t>(i));
  }
  g.replay_uid2obj.clear();
  g.replay_thread_claimed.assign(trace.threads.size(), false);
  g.replay_thread_exited.assign(trace.threads.size(), false);
  g.replay_consumed = 0;
  g.replay_unmatched = 0;
  g.replay_skipped_exited = 0;
  g.replay_divergences.clear();
  g.run_id.fetch_add(1, std::memory_order_relaxed);
  g.seed.store(trace.seed, std::memory_order_relaxed);
  g.fuzz_layer.store(false, std::memory_order_relaxed);
  g.mode.store(static_cast<uint8_t>(Mode::kReplay), std::memory_order_release);
}

ReplayResult StopReplay() {
  Engine& g = g_engine;
  g.mode.store(static_cast<uint8_t>(Mode::kOff), std::memory_order_release);
  std::lock_guard<std::mutex> lk(g.mu);
  // Shed trailing entries of threads that deregistered without performing
  // them (no gate was waiting behind these, so nobody skipped them live).
  // Only head runs are shed: an exited thread's entry queued behind a live
  // thread's unperformed op is still a real divergence.
  for (ReplayObject& ro : g.replay_objects) {
    while (ro.cursor < ro.queue.size()) {
      const TraceEntry& head = g.replay_trace.entries[ro.queue[ro.cursor]];
      if (head.thread >= g.replay_thread_exited.size() ||
          !g.replay_thread_exited[head.thread]) {
        break;
      }
      ++ro.cursor;
      ++g.replay_consumed;
      ++g.replay_skipped_exited;
    }
  }
  ReplayResult result;
  result.consumed = g.replay_consumed;
  result.total = g.replay_trace.entries.size();
  result.unmatched_ops = g.replay_unmatched;
  result.skipped_exited = g.replay_skipped_exited;
  result.divergences = g.replay_divergences;
  result.clean = !g.replay_disarmed && result.divergences.empty() &&
                 result.consumed == result.total;
  if (!g.replay_disarmed && result.consumed != result.total &&
      result.divergences.empty()) {
    result.divergences.push_back(
        "trace not fully consumed: " + std::to_string(result.consumed) + "/" +
        std::to_string(result.total) + " entries");
  }
  g.replaying = false;
  g.replay_disarmed = false;
  g.replay_trace = Trace{};
  g.replay_objects.clear();
  g.replay_keys.clear();
  g.replay_uid2obj.clear();
  g.replay_thread_claimed.clear();
  g.replay_thread_exited.clear();
  g.replay_skipped_exited = 0;
  g.run_id.fetch_add(1, std::memory_order_relaxed);
  g.cv.notify_all();
  return result;
}

std::string ReplayResult::ToString() const {
  std::ostringstream os;
  os << (clean ? "clean" : "DIVERGED") << " (" << consumed << "/" << total
     << " entries";
  if (unmatched_ops > 0) os << ", " << unmatched_ops << " unmatched ops";
  if (skipped_exited > 0) {
    os << ", " << skipped_exited << " shed for exited threads";
  }
  os << ")";
  for (const std::string& d : divergences) os << "; " << d;
  return os.str();
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
  g.ex_diverged = false;
  g.ex_hit_limit = false;
  g.ex_await_done = options.await_threads == 0;
  g.run_id.fetch_add(1, std::memory_order_relaxed);
  g.fuzz_layer.store(false, std::memory_order_relaxed);
  g.mode.store(static_cast<uint8_t>(Mode::kExplore), std::memory_order_release);
}

ExploreRun StopExplore() {
  Engine& g = g_engine;
  g.mode.store(static_cast<uint8_t>(Mode::kOff), std::memory_order_release);
  std::lock_guard<std::mutex> lk(g.mu);
  ExploreRun run;
  run.forced_consumed = g.ex_forced_cursor;
  run.diverged = g.ex_diverged;
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

}  // namespace dynamast::sched
