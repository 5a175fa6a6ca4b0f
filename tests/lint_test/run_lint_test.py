#!/usr/bin/env python3
"""End-to-end tests for scripts/dynamast-lint.py.

Runs the linter over the fixture trees in fixtures/ — one seeded
violation per rule plus a clean tree — and asserts both the exit code
and the per-rule messages. Exits non-zero on the first failed
expectation, printing what was expected against the actual output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "scripts", "dynamast-lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

failures = []


def run_lint(root, rules=()):
    cmd = [sys.executable, LINT, "--root", root]
    for rule in rules:
        cmd += ["--rule", rule]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(name, root, rules, want_exit, want_substrings=(), forbid=()):
    code, output = run_lint(os.path.join(FIXTURES, root), rules)
    problems = []
    if code != want_exit:
        problems.append(f"exit code {code}, wanted {want_exit}")
    for want in want_substrings:
        if want not in output:
            problems.append(f"output lacks {want!r}")
    for bad in forbid:
        if bad in output:
            problems.append(f"output unexpectedly contains {bad!r}")
    if problems:
        failures.append(name)
        print(f"FAIL {name}: " + "; ".join(problems))
        print("  --- linter output ---")
        for line in output.splitlines():
            print(f"  {line}")
    else:
        print(f"ok   {name}")


def main():
    check("clean tree passes all rules", "clean", (), want_exit=0,
          forbid=("dynamast-lint:",))

    check("lock-class: malformed + unregistered + stale", "lock_class_bad",
          ("lock-class",), want_exit=1,
          want_substrings=(
              'lock-class: src/site/bad.h:7: lock class "Bad.Class"',
              'lock class "site.rogue" is not listed',
              'registry row "site.ghost"',
              "stale entry",
          ),
          forbid=('"site.state"',))

    check("sched-op: bogus kind + count + name-table gap", "sched_op_bad",
          ("sched-op",), want_exit=1,
          want_substrings=(
              "sched hook uses kBogus",
              "kNumOpKinds is 4 but OpKind declares 3",
              "OpKindName has no case for OpKind::kGateGrant",
          ),
          forbid=("kNetDeliver",))

    check("history-pairing: commit without abort", "history_bad",
          ("history-pairing",), want_exit=1,
          want_substrings=(
              "history-pairing: src/site/bad.cc",
              "unpaired emission",
          ))

    check("metric-naming: family, suffix and label key", "metric_bad",
          ("metric-naming",), want_exit=1,
          want_substrings=(
              'metric family "BadName_total" is not snake_case',
              'counter "foo_count" does not end in "_total"',
              'label key "BadKey"',
          ),
          forbid=("fine_latency_us",))

    check("escape-justification: three bad markers", "escape_bad",
          ("escape-justification",), want_exit=1,
          want_substrings=(
              "escape-justification: src/site/bad.cc:6: "
              "NO_THREAD_SAFETY_ANALYSIS without a",
              'src/site/bad.cc:18: tsa-escape names lock class "site.ghost"',
              "src/site/bad.cc:30: tsa-escape marker has an empty reason",
          ),
          forbid=("bad.cc:43",))

    check("lock-profile-label: unregistered class in lock_class label",
          "lock_profile_bad", ("lock-profile-label",), want_exit=1,
          want_substrings=(
              "lock-profile-label: src/common/bad.cc:9: "
              'lock_class label "site.ghost"',
          ),
          forbid=('"site.state"',))

    # Each bad fixture is bad in exactly one rule: the others stay quiet.
    check("lock_class_bad is clean for metric-naming", "lock_class_bad",
          ("metric-naming",), want_exit=0)
    check("metric_bad is clean for history-pairing", "metric_bad",
          ("history-pairing",), want_exit=0)
    check("lock_profile_bad is clean for metric-naming", "lock_profile_bad",
          ("metric-naming",), want_exit=0)

    if failures:
        print(f"\n{len(failures)} lint_test failure(s)", file=sys.stderr)
        return 1
    print("\nall lint_test checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
