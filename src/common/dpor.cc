#include "common/dpor.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace dynamast::sched {
namespace {

// Sparse vector clock over explore-session thread tokens.
using VClock = std::map<uint32_t, uint64_t>;

void Join(VClock& into, const VClock& from) {
  for (const auto& [tok, v] : from) {
    uint64_t& slot = into[tok];
    slot = std::max(slot, v);
  }
}

bool IsRelease(OpKind k) {
  return k == OpKind::kMutexUnlock || k == OpKind::kMutexUnlockShared;
}

bool IsAcquire(OpKind k) {
  return k == OpKind::kMutexLock || k == OpKind::kMutexLockShared;
}

bool Contains(const std::vector<uint32_t>& v, uint32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

struct LastAccess {
  size_t step = 0;
  uint32_t thread = 0;
  OpKind kind = OpKind::kMarker;
  VClock clock;
};

}  // namespace

void DporExplorer::AddBacktrack(Frame& frame, uint32_t q, DporStats& stats) {
  if (Contains(frame.done, q) || Contains(frame.backtrack, q) ||
      Contains(frame.sleeping, q)) {
    return;
  }
  if (Contains(frame.enabled, q)) {
    frame.backtrack.push_back(q);
    ++stats.backtrack_points;
    return;
  }
  // q was not enabled at this point: conservatively schedule every other
  // enabled thread (the standard fallback when the racing thread cannot
  // be run here directly).
  bool added = false;
  for (uint32_t t : frame.enabled) {
    if (t == frame.chosen) continue;
    if (Contains(frame.done, t) || Contains(frame.backtrack, t) ||
        Contains(frame.sleeping, t)) {
      continue;
    }
    frame.backtrack.push_back(t);
    added = true;
  }
  if (added) ++stats.backtrack_points;
}

DporStats DporExplorer::Run(const std::function<DporOutcome()>& execution) {
  DporStats stats;
  std::vector<Frame> frames;

  auto finalize_frame = [&stats](const Frame& f) {
    // Enabled alternatives never executed at a finalized choice point are
    // the schedules partial-order reduction proved unnecessary.
    if (f.enabled.size() > f.done.size()) {
      stats.pruned += f.enabled.size() - f.done.size();
    }
  };

  std::vector<uint32_t> forced;
  std::vector<std::vector<uint32_t>> sleep_add;
  bool first = true;

  while (true) {
    if (stats.executed >= options_.max_executions) {
      stats.budget_exhausted = true;
      break;
    }

    ExploreOptions opts;
    opts.forced = forced;
    opts.sleep_add = sleep_add;
    opts.seed = options_.seed + stats.executed;
    opts.preemption_bound = options_.preemption_bound;
    opts.max_steps = options_.max_steps;
    opts.await_threads = options_.await_threads;
    opts.fresh_session = first;
    first = false;

    StartExplore(opts);
    DporOutcome outcome = execution();
    ExploreRun run = StopExplore();

    ++stats.executed;
    stats.stall_grants += run.stall_grants;
    if (run.hit_step_limit) stats.budget_exhausted = true;
    if (run.diverged) ++stats.divergences;

    if (outcome.failed) {
      stats.failure_found = true;
      stats.failure = outcome.note;
      stats.failure_trace = run.trace;
      if (options_.stop_on_failure) break;
    }

    // Fold this execution into the persistent frame stack. The first
    // forced_consumed steps re-traversed existing frames; everything
    // after is new.
    const std::vector<ExploreStep>& steps = run.steps;
    for (size_t i = 0; i < steps.size(); ++i) {
      const uint32_t chosen = steps[i].entry.thread;
      if (i < frames.size()) {
        if (!Contains(frames[i].done, chosen)) frames[i].done.push_back(chosen);
        frames[i].chosen = chosen;
        // Keep the union of enabled sets seen at this depth: a thread
        // enabled in any visit is a real alternative here.
        for (uint32_t t : steps[i].enabled) {
          if (!Contains(frames[i].enabled, t)) frames[i].enabled.push_back(t);
        }
      } else {
        Frame f;
        f.enabled = steps[i].enabled;
        f.sleeping = steps[i].sleeping;
        f.chosen = chosen;
        f.done.push_back(chosen);
        frames.push_back(std::move(f));
      }
    }

    // Happens-before analysis: vector clocks per thread; racing pairs
    // insert backtracking points.
    std::map<uint32_t, VClock> clocks;
    std::map<uint32_t, std::vector<LastAccess>> last;  // object -> accesses
    for (size_t i = 0; i < steps.size(); ++i) {
      const TraceEntry& e = steps[i].entry;
      VClock& mine = clocks[e.thread];
      auto& accesses = last[e.object];
      for (const LastAccess& a : accesses) {
        if (a.thread == e.thread) continue;
        if (!OpsConflict(a.kind, e.kind)) continue;
        // A release and a later acquisition of the same mutex are never
        // co-enabled (the acquisition waits for the release, or commutes
        // with it if both are shared): reversing them means reversing the
        // acquisitions, which is a race of its own.
        if (IsRelease(a.kind) && IsAcquire(e.kind)) continue;
        // Race check uses this thread's clock *before* joining the
        // object-induced edge: if the prior access is not already ordered
        // before us through other objects or program order, the pair
        // races and the earlier choice point gets a backtrack entry.
        auto it = mine.find(a.thread);
        const uint64_t seen = it == mine.end() ? 0 : it->second;
        if (a.clock.at(a.thread) > seen && a.step < frames.size()) {
          AddBacktrack(frames[a.step], e.thread, stats);
        }
      }
      // Apply the edges this operation creates.
      mine[e.thread] += 1;
      for (const LastAccess& a : accesses) {
        if (OpsConflict(a.kind, e.kind)) Join(mine, a.clock);
      }
      // Keep only the latest access per (thread, kind) pair per object:
      // older ones are ordered before it and subsumed for race purposes.
      accesses.erase(std::remove_if(accesses.begin(), accesses.end(),
                                    [&](const LastAccess& a) {
                                      return a.thread == e.thread &&
                                             a.kind == e.kind;
                                    }),
                     accesses.end());
      accesses.push_back(LastAccess{i, e.thread, e.kind, mine});
    }

    // Next branch: deepest frame with an untried backtrack alternative.
    size_t depth = frames.size();
    uint32_t next_choice = 0;
    bool found = false;
    while (depth > 0) {
      Frame& f = frames[depth - 1];
      for (uint32_t q : f.backtrack) {
        if (!Contains(f.done, q)) {
          next_choice = q;
          found = true;
          break;
        }
      }
      if (found) break;
      --depth;
    }
    if (!found) break;  // branch tree exhausted

    const size_t d = depth - 1;
    for (size_t i = d + 1; i < frames.size(); ++i) finalize_frame(frames[i]);
    frames.resize(d + 1);

    forced.clear();
    sleep_add.assign(d + 1, {});
    for (size_t i = 0; i < d; ++i) {
      forced.push_back(frames[i].chosen);
      // Sleep-set DPOR: alternatives already fully explored at earlier
      // choice points sleep while we pass through them again.
      for (uint32_t t : frames[i].done) {
        if (t != frames[i].chosen) sleep_add[i].push_back(t);
      }
    }
    forced.push_back(next_choice);
    for (uint32_t t : frames[d].done) sleep_add[d].push_back(t);
    frames[d].done.push_back(next_choice);
    frames[d].chosen = next_choice;
  }

  for (const Frame& f : frames) finalize_frame(f);
  return stats;
}

std::string DporStats::ToString() const {
  std::ostringstream os;
  os << "executed=" << executed << " pruned=" << pruned
     << " backtrack_points=" << backtrack_points
     << " divergences=" << divergences << " stall_grants=" << stall_grants
     << " budget_exhausted=" << (budget_exhausted ? 1 : 0)
     << " failure=" << (failure_found ? 1 : 0);
  if (failure_found && !failure.empty()) os << " (" << failure << ")";
  return os.str();
}

Trace MinimizeTracePrefix(const Trace& trace,
                          const std::function<bool(const Trace&)>& fails) {
  auto prefix = [&trace](size_t n) {
    Trace t = trace;
    if (n < t.entries.size()) t.entries.resize(n);
    return t;
  };
  if (!fails(trace)) return trace;  // flaky tail: keep the full trace

  size_t lo = 0;                     // longest known-good length
  size_t hi = trace.entries.size();  // shortest known-failing length
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (fails(prefix(mid))) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  Trace minimized = prefix(hi);
  if (!fails(minimized)) return trace;  // re-confirm; fall back if flaky
  return minimized;
}

}  // namespace dynamast::sched
