#!/usr/bin/env bash
# The full correctness gate (see DESIGN.md, "Correctness tooling" and
# "Schedule exploration & history auditing"):
#
#   format       .clang-format via scripts/format-check.sh
#   build        default build (everything: tests, examples, benches)
#   tier1/tier2  default ctest
#   repeat       the multi-master conservation audit, the LEAP and the
#                partition-store tests 200 times, the table-index growth
#                under concurrent readers 200 times, the LEAP and
#                partition-store race stress 10 times (default build):
#                schedule-dependent failures that one ctest run misses
#   ignored-inputs  fails if any file under src/ tests/ scripts/ bench/
#                examples/ perfbench/ is matched by .gitignore: such a
#                file exists in the working tree but can never be committed
#   lint-project scripts/dynamast-lint.py project-invariant linter
#                (lock-class registry, sched-op pairing, history
#                commit/abort pairing, metric naming, tsa-escape
#                justifications, lock-profile labels)
#   tsa          clang-tsa preset: src/ under -Werror=thread-safety,
#                plus the tests/tsa_compile_fail negative-compile suite
#   clang-tidy   .clang-tidy over src/ (compile_commands.json)
#   asan-ubsan   sanitizer preset build + ctest (invariants, lock checks)
#   tsan         ThreadSanitizer preset build + ctest
#   sched-fuzz-tier1  tier1 ctest on the schedule-exploration preset: the
#                sync-point hooks compiled in (and the invariants and
#                lock-order checks on), the engine off — no tier-1 test
#                steers the schedule
#   sched-fuzz-explore  tier2 schedule_explore_test: every system on YCSB
#                and SmallBank under $FUZZ_SEEDS seeded, preemption-bounded
#                explore schedules, histories audited by tools/si_checker
#   dpor         short-budget replay + partial-order reduction gate: two
#                forced-prefix replays of a seeded run must follow the
#                whole prefix and agree on the history hash for every
#                system (repeated 10 times), and the DPOR explorer must
#                prune at least one equivalent interleaving (engine-level
#                dpor_test plus the stock-workload suites)
#   break-si     deliberately broken grant wait; proves the auditor
#                detects the anomaly class (BreakSiProofTest) and that
#                the DPOR explorer finds the violation in fewer executed
#                schedules than random search, with a minimized
#                deterministically-replaying reproducer (BreakSiDporTest)
#   observability  short bench run with --metrics-out/--trace-out/
#                --history-out; jq-validates the JSON schemas (remaster
#                counts, refresh-delay and sleep-overshoot histograms,
#                routing-explain factor sums, correlated trace spans),
#                prints the sim_ families and reconciles metrics
#                against the history via si_checker --metrics
#   lock-profile the same short run on the lock-profile preset; prints
#                every lock_* series and fails unless site.state has a
#                measured hold time (runs and skips with observability)
#   figures      every figure of bench_figures at a tiny size; jq checks
#                the metrics rows: one per run (123), a distinct
#                (bench, point, system) triple each, the config that
#                ran (E12 sites 4/8/12/16, E1 clients 1/2/4), and a
#                system name each from the five systems' names
#
# Every stage runs even if an earlier one failed; the summary table at the
# end shows PASS/FAIL/SKIP per stage and the exit code propagates any
# failure. Stages needing tools the machine lacks (clang-format /
# clang-tidy / clang++ / python3) are SKIPped rather than failed, so the
# gate is still useful on a bare-gcc box.
#
# Environment knobs:
#   JOBS=<n>         parallel build jobs (default: nproc)
#   SKIP_ASAN=1      skip the asan-ubsan stage
#   SKIP_TSAN=1      skip the tsan stage (TSan doubles the wall time)
#   SKIP_OBS=1       skip the observability and lock-profile stages
#   OBS_OUT=<dir>    where the observability stage writes its artifacts
#                    (default: build/observability; CI uploads this)
#   SKIP_FUZZ=1      skip the sched-fuzz, dpor, and break-si stages
#   FUZZ_SEEDS=<n>   seeds per fuzzed test (default 5; CI weekly uses 50)
#   DPOR_EXECUTIONS=<n>  DPOR schedule budget (default 2; CI weekly uses more)
#   DYNAMAST_SCHED_SEED=<s>   replay one failing schedule seed exactly
#   DYNAMAST_SCHED_TRACE=<f>  replay one persisted decision-stream trace
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
FUZZ_SEEDS="${FUZZ_SEEDS:-5}"
DPOR_EXECUTIONS="${DPOR_EXECUTIONS:-2}"

stages=()
results=()
notes=()

record() {  # record <stage> <PASS|FAIL|SKIP> [note]
  stages+=("$1")
  results+=("$2")
  notes+=("${3:-}")
}

step() { echo; echo "==== check.sh: $* ===="; }

run_stage() {  # run_stage <name> <cmd...>
  local name="$1"
  shift
  step "$name"
  if "$@"; then
    record "$name" PASS
  else
    record "$name" FAIL
  fi
}

# 1. Formatting -------------------------------------------------------------
step "format"
if ! command -v clang-format >/dev/null 2>&1; then
  echo "check.sh: clang-format not found; skipping" >&2
  record format SKIP "clang-format not installed"
elif scripts/format-check.sh; then
  record format PASS
else
  record format FAIL
fi

# 2. Default build + tests --------------------------------------------------
# The repeat stage reruns tests whose failures depend on thread schedules.
repeat_stage() {
  ./build/tests/baselines_test --gtest_brief=1 \
    --gtest_filter='MultiMasterTest.ConcurrentMixConservesTotal:LeapTest.*:PartitionStoreTest.*' \
    --gtest_repeat=200 &&
    ./build/tests/storage_test --gtest_brief=1 \
      --gtest_filter='TableTest.GrowthUnderConcurrentReaders' \
      --gtest_repeat=200 &&
    ./build/tests/race_stress_test --gtest_brief=1 \
      --gtest_filter='*Leap*:*PartitionStore*' --gtest_repeat=10
}

step "build (default)"
if cmake --preset default && cmake --build build -j "$JOBS"; then
  record build PASS
  run_stage "tier1+tier2" ctest --preset default
  run_stage repeat repeat_stage
else
  record build FAIL
  record "tier1+tier2" SKIP "build failed"
  record repeat SKIP "build failed"
fi

# 3. Observability surface --------------------------------------------------
# A short real bench run must produce schema-valid, self-consistent
# telemetry: nonzero remaster counts, a populated refresh-delay histogram,
# per-factor routing-explain sums, every write phase timed in
# txn_phase_us, a Chrome trace whose route spans
# correlate with execute/commit spans, and metrics that reconcile exactly
# with the run's history (si_checker --metrics).
obs_bench() {  # obs_bench <build-dir> <extra bench flags...>
  local dir="$1"
  shift
  "./$dir/bench/bench_figures" --figure=E7 --seconds=0.5 --warmup=0.3 \
    --clients=8 --scale=0.1 --systems=dynamast "$@"
}

observability_stage() {
  local out="${OBS_OUT:-build/observability}"
  mkdir -p "$out"
  local m="$out/metrics.json" t="$out/trace.json" h="$out/history.txt"
  rm -f "$m" "$t" "$h"
  if ! obs_bench build --metrics-out="$m" --trace-out="$t" \
       --history-out="$h"; then
    echo "check.sh: observability bench run failed" >&2
    return 1
  fi
  # Metrics row schema + the signals the dashboards need.
  jq -e '
    .system == "dynamast" and
    (.report.committed > 0) and
    ([.metrics.metrics[] | select(.name == "selector_remaster_total")
       | .series[].value] | add > 0) and
    ([.metrics.metrics[] | select(.name == "site_refresh_delay_us")
       | .series[].count] | add > 0) and
    ([.metrics.metrics[] | select(.name == "sim_sleep_overshoot_us")
       | .series[].count] | add > 0) and
    ([.metrics.metrics[] | select(.name == "routing_explain_factor_sum")
       | .series[].labels.factor] | sort
       == ["balance", "delay", "inter", "intra"]) and
    ([.metrics.metrics[] | select(.name == "txn_phase_us") | .series[]
       | select(.count > 0) | .labels.phase] | sort
       == ["begin", "commit", "execute", "network", "route"])
  ' "$m" > /dev/null || {
    echo "check.sh: metrics JSON failed schema validation" >&2
    return 1
  }
  # Sleep fidelity of the simulated cost model (common/sim_clock).
  ./build/src/tools/metrics_dump --family=sim_ --nonzero "$m"
  # Trace schema: a remastered transaction's route span must correlate
  # (via the txn arg) with execute and commit spans.
  jq -e '
    ([.traceEvents[] | select(.name == "route" and .args.remastered == "1")
       | .args.txn][0]) as $txn
    | ($txn != null) and
      ([.traceEvents[] | select(.args.txn == $txn) | .name]
        | (contains(["execute"]) and contains(["commit"])))
  ' "$t" > /dev/null || {
    echo "check.sh: trace JSON lacks a correlated remastered txn" >&2
    return 1
  }
  # Cross-plane reconciliation, through the CLI.
  ./build/src/tools/si_checker --system=dynamast --metrics="$m" "$h"
}

# 3b. Lock profile ----------------------------------------------------------
# The observability run on the lock-profile preset (DYNAMAST_LOCK_PROFILE)
# prints the measured wait/hold time per lock class. Fails unless the site
# state lock, the one every commit takes, has a recorded hold time.
lock_profile_stage() {
  local out="${OBS_OUT:-build/observability}"
  local m="$out/lock_profile_metrics.json"
  mkdir -p "$out"
  rm -f "$m"
  cmake --preset lock-profile &&
    cmake --build build-lock-profile --target bench_figures metrics_dump \
      -j "$JOBS" || return 1
  obs_bench build-lock-profile --metrics-out="$m" || {
    echo "check.sh: lock-profile bench run failed" >&2
    return 1
  }
  ./build-lock-profile/src/tools/metrics_dump --family=lock_ --nonzero "$m"
  jq -e '
    [.metrics.metrics[] | select(.name == "lock_hold_us") | .series[]
       | select(.labels.lock_class == "site.state") | .count] | add > 0
  ' "$m" > /dev/null || {
    echo "check.sh: no lock_hold_us{lock_class=site.state} samples" >&2
    return 1
  }
}

if [[ "${SKIP_OBS:-0}" == "1" ]]; then
  record observability SKIP "SKIP_OBS=1"
  record lock-profile SKIP "SKIP_OBS=1"
elif ! command -v jq >/dev/null 2>&1; then
  record observability SKIP "jq not installed"
  record lock-profile SKIP "jq not installed"
elif [[ ! -x build/bench/bench_figures ]]; then
  record observability SKIP "build failed"
  record lock-profile SKIP "build failed"
else
  run_stage observability observability_stage
  run_stage lock-profile lock_profile_stage
fi

# 3c. Figures ----------------------------------------------------------------
# Every figure at a tiny size. Each run writes one metrics row, and each
# row must name its run and the config that actually ran.
figures_stage() {
  local out="${OBS_OUT:-build/observability}"
  local m="$out/figures_metrics.json"
  mkdir -p "$out"
  rm -f "$m"
  ./build/bench/bench_figures --figure=all --seconds=0.2 --warmup=0.1 \
    --clients=4 --scale=0.05 --metrics-out="$m" > "$out/figures.txt" || {
    echo "check.sh: bench_figures --figure=all failed" >&2
    return 1
  }
  jq -se '
    length == 123 and
    ([.[] | [.bench, .point, .system]] | unique | length) == 123 and
    ([.[] | select(.figure == "E12") | .config.sites] == [4, 8, 12, 16]) and
    ([.[] | select(.figure == "E1" and .system == "dynamast")
       | .config.clients] == [1, 2, 4]) and
    all(.[]; .system | IN("dynamast", "single-master", "multi-master",
                          "partition-store", "leap"))
  ' "$m" > /dev/null || {
    echo "check.sh: figure metrics rows failed validation" >&2
    return 1
  }
}

if ! command -v jq >/dev/null 2>&1; then
  record figures SKIP "jq not installed"
elif [[ ! -x build/bench/bench_figures ]]; then
  record figures SKIP "build failed"
else
  run_stage figures figures_stage
fi

# 4. Ignored inputs ---------------------------------------------------------
# A source, test or script file that .gitignore matches is present in the
# working tree but can never be committed, so a fresh clone silently lacks
# it. Fail on any such file.
step "ignored-inputs"
ignored=$(git ls-files -oi --exclude-standard -- \
  src tests scripts bench examples perfbench)
if [[ -z "$ignored" ]]; then
  record ignored-inputs PASS
else
  echo "check.sh: files ignored by .gitignore (never committed):" >&2
  echo "$ignored" >&2
  record ignored-inputs FAIL "$(echo "$ignored" | wc -l) file(s)"
fi

# 5. Project-invariant linter ----------------------------------------------
step "lint-project"
if command -v python3 >/dev/null 2>&1; then
  if python3 scripts/dynamast-lint.py; then
    record lint-project PASS
  else
    record lint-project FAIL
  fi
else
  echo "check.sh: python3 not found; skipping" >&2
  record lint-project SKIP "python3 not installed"
fi

# 6. Clang thread-safety analysis -------------------------------------------
# Builds src/ with -Werror=thread-safety plus the tsa_compile_fail
# negative-compile suite; needs clang++ (GCC has no such analysis).
step "tsa"
if command -v clang++ >/dev/null 2>&1; then
  if cmake --preset clang-tsa &&
     cmake --build build-clang-tsa -j "$JOBS" &&
     ctest --test-dir build-clang-tsa -R '^tsa_' --output-on-failure; then
    record tsa PASS
  else
    record tsa FAIL
  fi
else
  echo "check.sh: clang++ not found; skipping" >&2
  record tsa SKIP "clang++ not installed"
fi

# 7. clang-tidy -------------------------------------------------------------
step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t tidy_files < <(git ls-files 'src/*.cc')
  if clang-tidy -p build --quiet "${tidy_files[@]}"; then
    record clang-tidy PASS
  else
    record clang-tidy FAIL
  fi
else
  echo "check.sh: clang-tidy not found; skipping" >&2
  record clang-tidy SKIP "clang-tidy not installed"
fi

# 8. Sanitizer configurations ----------------------------------------------
sanitizer_stage() {  # sanitizer_stage <preset>
  local preset="$1"
  step "$preset build (tests only)"
  # Build through the build preset: a preset's binaryDir need not be
  # build-<preset> (asan-ubsan builds in build-asan).
  if cmake --preset "$preset" &&
     cmake --build --preset "$preset" --target dynamast_tests -j "$JOBS"; then
    run_stage "$preset" ctest --preset "$preset"
  else
    record "$preset" FAIL "build failed"
  fi
}

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  sanitizer_stage asan-ubsan
else
  record asan-ubsan SKIP "SKIP_ASAN=1"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  sanitizer_stage tsan
else
  record tsan SKIP "SKIP_TSAN=1"
fi

# 9. Schedule exploration + SI audit ---------------------------------------
if [[ "${SKIP_FUZZ:-0}" != "1" ]]; then
  step "sched-fuzz build (tests only)"
  if cmake --preset sched-fuzz &&
     cmake --build build-sched-fuzz --target dynamast_tests -j "$JOBS"; then
    step "sched-fuzz: tier1 with the sync-point hooks compiled in"
    if ctest --preset sched-fuzz -L tier1; then
      record sched-fuzz-tier1 PASS
    else
      record sched-fuzz-tier1 FAIL
    fi
    step "sched-fuzz: schedule_explore ($FUZZ_SEEDS seeds, si_checker audit)"
    if DYNAMAST_SCHED_SEEDS="$FUZZ_SEEDS" \
       ./build-sched-fuzz/tests/schedule_explore_test; then
      record sched-fuzz-explore PASS "$FUZZ_SEEDS seeds"
    else
      # The test prints the failing DYNAMAST_SCHED_SEED (or persisted
      # trace path) and dumps the offending history for offline
      # si_checker analysis.
      record sched-fuzz-explore FAIL "see replay seed/trace above"
    fi
    # Exact replay + partial-order reduction on a short budget. The
    # filtered suites assert hash stability (two replays of a recorded
    # run agree, per system and workload; repeated, since a replay that
    # depends on host timing fails only now and then) and that DPOR
    # prunes at least one equivalent interleaving; dpor_test covers the
    # engine itself.
    step "dpor: exact replay + reduction ($DPOR_EXECUTIONS executions)"
    if ./build-sched-fuzz/tests/dpor_test &&
       DYNAMAST_SCHED_SEEDS=1 ./build-sched-fuzz/tests/schedule_explore_test \
         --gtest_filter='*ExactReplayTest.*' --gtest_repeat=10 &&
       DYNAMAST_DPOR_EXECUTIONS="$DPOR_EXECUTIONS" DYNAMAST_SCHED_SEEDS=1 \
       ./build-sched-fuzz/tests/schedule_explore_test \
         --gtest_filter='TraceReplayTest.*:DporExploreTest.*'; then
      record dpor PASS "executed/pruned reported above"
    else
      record dpor FAIL "replay hash drift or no pruning"
    fi
  else
    record sched-fuzz-tier1 FAIL "build failed"
    record sched-fuzz-explore SKIP "build failed"
    record dpor SKIP "build failed"
  fi

  step "break-si build (auditor + explorer detection proof)"
  if cmake --preset break-si &&
     cmake --build build-break-si --target schedule_explore_test -j "$JOBS"; then
    if ./build-break-si/tests/schedule_explore_test \
         --gtest_filter='BreakSiProofTest.*:BreakSiDporTest.*'; then
      record break-si PASS
    else
      record break-si FAIL "auditor or explorer missed the injected anomaly"
    fi
  else
    record break-si FAIL "build failed"
  fi
else
  record sched-fuzz-tier1 SKIP "SKIP_FUZZ=1"
  record sched-fuzz-explore SKIP "SKIP_FUZZ=1"
  record dpor SKIP "SKIP_FUZZ=1"
  record break-si SKIP "SKIP_FUZZ=1"
fi

# ---- Summary --------------------------------------------------------------
echo
echo "==== check.sh summary ===="
failures=0
for i in "${!stages[@]}"; do
  printf '  %-20s %-4s %s\n' "${stages[$i]}" "${results[$i]}" "${notes[$i]}"
  [[ "${results[$i]}" == "FAIL" ]] && failures=$((failures + 1))
done
echo
if [[ $failures -gt 0 ]]; then
  echo "check.sh: FAILED ($failures stage(s) failed)" >&2
  exit 1
fi
echo "check.sh: all stages passed"
