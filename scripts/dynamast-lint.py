#!/usr/bin/env python3
"""dynamast-lint: project-invariant linter for the DynaMast repo.

Checks invariants that neither the compiler nor clang-tidy can see,
because they span files or live in string literals:

  lock-class      every DebugMutex/DebugSharedMutex declaration names a
                  `subsystem.name` lock class listed in DESIGN.md's
                  lock-class registry table, and every registry row still
                  corresponds to a declaration in src/.
  sched-op        every DYNAMAST_SCHED_OP / DYNAMAST_SCHED_OP_SCOPE hook
                  uses a declared sched::OpKind; OpKindName covers every
                  enumerator; kNumOpKinds equals the enumerator count.
  history-pairing any file referencing history EventKind::kCommit also
                  references EventKind::kAbort (and vice versa), so no
                  emitter records commits without the abort path the SI
                  auditor needs.
  metric-naming   metric family names passed to GetCounter/GetGauge/
                  GetHistogram are snake_case, counter names end in
                  `_total`, and label keys are snake_case.
  escape-justification
                  every DYNAMAST_NO_THREAD_SAFETY_ANALYSIS site carries a
                  `tsa-escape(<lock.class>): reason` comment naming a
                  registered lock class.
  lock-profile-label
                  every literal `{"lock_class", "<name>"}` label passed to
                  GetCounter/GetGauge/GetHistogram names a class in
                  DESIGN.md's lock-class registry, so the contention
                  profiler's lock_* series stay joinable against the
                  registry table (a typo'd class would silently fork a
                  series no lock ever feeds).

Usage: dynamast-lint.py [--root DIR] [--rule RULE]...
Exit status 0 when clean, 1 when violations were found, 2 on usage or
tree-shape errors. Messages: `dynamast-lint: <rule>: <file>:<line>: ...`.
"""

import argparse
import os
import re
import sys

RULES = ("lock-class", "sched-op", "history-pairing", "metric-naming",
         "escape-justification", "lock-profile-label")

SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
LOCK_CLASS_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")

REGISTRY_BEGIN = "<!-- lock-class-registry:begin -->"
REGISTRY_END = "<!-- lock-class-registry:end -->"

# `mutable DebugMutex mu_{"site.state"};`, `DebugSharedMutex mu{"x.y"};`
MUTEX_DECL_RE = re.compile(
    r"\bDebug(?:Shared)?Mutex\s+\w+\s*[{(]\s*\"([^\"]*)\"")

SCHED_OP_RE = re.compile(r"\bDYNAMAST_SCHED_OP\(\s*(k\w+)")
SCHED_OP_SCOPE_RE = re.compile(r"\bDYNAMAST_SCHED_OP_SCOPE\(\s*\w+\s*,\s*(k\w+)")

METRIC_CALL_RE = re.compile(r"\bGet(Counter|Gauge|Histogram)\s*\(")
LABEL_KEY_RE = re.compile(r"\{\s*\"([^\"]*)\"")
# A literal lock_class label pair: {"lock_class", "site.state"}
LOCK_CLASS_LABEL_RE = re.compile(r"\{\s*\"lock_class\"\s*,\s*\"([^\"]*)\"")

ESCAPE_RE = re.compile(r"\bDYNAMAST_NO_THREAD_SAFETY_ANALYSIS\b")
# `// tsa-escape(selector.partition): dynamic lock set — ...`
ESCAPE_MARKER_RE = re.compile(r"tsa-escape\(([^()]*)\):\s*(\S.*)?")
# Lines of comment context searched above an escape site for its marker.
ESCAPE_WINDOW = 8


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []
        self._registry = None

    def report(self, rule, path, line, message):
        rel = os.path.relpath(path, self.root)
        self.violations.append(f"dynamast-lint: {rule}: {rel}:{line}: {message}")

    # ---------------------------------------------------------------- util

    def src_files(self, exts=(".h", ".cc")):
        src = os.path.join(self.root, "src")
        for dirpath, _, names in sorted(os.walk(src)):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)

    @staticmethod
    def read(path):
        with open(path, encoding="utf-8") as f:
            return f.read()

    @staticmethod
    def line_of(text, offset):
        return text.count("\n", 0, offset) + 1

    # ---------------------------------------------------------- lock-class

    def parse_registry(self):
        """Registry rows from DESIGN.md: {class name: line number}.

        Cached: several rules consult the registry; tree-shape problems
        are only reported once (under the lock-class rule).
        """
        if self._registry is not None:
            return self._registry
        self._registry = self._parse_registry_uncached()
        return self._registry

    def _parse_registry_uncached(self):
        design = os.path.join(self.root, "DESIGN.md")
        if not os.path.exists(design):
            self.report("lock-class", design, 1, "DESIGN.md not found")
            return {}
        text = self.read(design)
        begin = text.find(REGISTRY_BEGIN)
        end = text.find(REGISTRY_END)
        if begin < 0 or end < 0 or end < begin:
            self.report("lock-class", design, 1,
                        "lock-class registry markers not found "
                        f"({REGISTRY_BEGIN} ... {REGISTRY_END})")
            return {}
        entries = {}
        base_line = self.line_of(text, begin)
        for i, row in enumerate(text[begin:end].splitlines()):
            m = re.match(r"\|\s*`([^`]+)`\s*\|", row)
            if m:
                entries[m.group(1)] = base_line + i
        if not entries:
            self.report("lock-class", design, base_line,
                        "lock-class registry table is empty")
        return entries

    def rule_lock_class(self):
        registry = self.parse_registry()
        declared = set()
        for path in self.src_files():
            if os.path.basename(path) in ("debug_mutex.h", "debug_mutex.cc"):
                continue  # wrapper definitions, not lock declarations
            text = self.read(path)
            for m in MUTEX_DECL_RE.finditer(text):
                cls = m.group(1)
                line = self.line_of(text, m.start())
                declared.add(cls)
                if not LOCK_CLASS_RE.match(cls):
                    self.report("lock-class", path, line,
                                f'lock class "{cls}" is not of the form '
                                "subsystem.name (lowercase snake_case)")
                elif registry and cls not in registry:
                    self.report("lock-class", path, line,
                                f'lock class "{cls}" is not listed in the '
                                "DESIGN.md lock-class registry")
        design = os.path.join(self.root, "DESIGN.md")
        for cls, line in sorted(registry.items()):
            if cls not in declared:
                self.report("lock-class", design, line,
                            f'registry row "{cls}" matches no '
                            "DebugMutex/DebugSharedMutex declaration in src/ "
                            "(stale entry)")

    # ------------------------------------------------------------ sched-op

    def rule_sched_op(self):
        header = os.path.join(self.root, "src", "common", "sched_trace.h")
        impl = os.path.join(self.root, "src", "common", "sched_trace.cc")

        enumerators = {}
        declared_count = None
        if os.path.exists(header):
            text = self.read(header)
            m = re.search(r"enum\s+class\s+OpKind[^{]*\{([^}]*)\}", text)
            if m:
                for em in re.finditer(r"(k\w+)\s*=?", m.group(1)):
                    enumerators[em.group(1)] = self.line_of(
                        text, m.start(1) + em.start())
            else:
                self.report("sched-op", header, 1,
                            "enum class OpKind not found")
            cm = re.search(r"kNumOpKinds\s*=\s*(\d+)", text)
            if cm:
                declared_count = (int(cm.group(1)),
                                  self.line_of(text, cm.start()))

        # Hook sites must use declared kinds.
        used = False
        for path in self.src_files():
            text = self.read(path)
            for m in list(SCHED_OP_RE.finditer(text)) + list(
                    SCHED_OP_SCOPE_RE.finditer(text)):
                line_start = text.rfind("\n", 0, m.start()) + 1
                if text[line_start:m.start()].lstrip().startswith("#define"):
                    continue  # the hook macro's own definition
                used = True
                kind = m.group(1)
                if enumerators and kind not in enumerators:
                    self.report("sched-op", path, self.line_of(text, m.start()),
                                f"sched hook uses {kind}, which is not a "
                                "declared sched::OpKind")
        if used and not enumerators:
            self.report("sched-op", header, 1,
                        "sched hooks are used but no OpKind enum was found")
        if not enumerators:
            return

        if declared_count is not None and declared_count[0] != len(enumerators):
            self.report("sched-op", header, declared_count[1],
                        f"kNumOpKinds is {declared_count[0]} but OpKind "
                        f"declares {len(enumerators)} enumerators")

        # The trace codec's name table must cover every kind, or record/
        # replay dumps become unauditable for the missing ones.
        if os.path.exists(impl):
            text = self.read(impl)
            fn = re.search(
                r"OpKindName\s*\([^)]*\)\s*\{(.*?)\n\}", text, re.DOTALL)
            if not fn:
                self.report("sched-op", impl, 1,
                            "OpKindName definition not found")
                return
            cases = set(re.findall(r"case\s+OpKind::(k\w+)", fn.group(1)))
            for kind, line in sorted(enumerators.items()):
                if kind not in cases:
                    self.report("sched-op", impl,
                                self.line_of(text, fn.start()),
                                f"OpKindName has no case for OpKind::{kind} "
                                f"(declared at sched_trace.h:{line})")

    # ----------------------------------------------------- history-pairing

    def rule_history_pairing(self):
        # Emission happens in .cc files; headers only declare the enum.
        for path in self.src_files(exts=(".cc",)):
            text = self.read(path)
            commit = re.search(r"EventKind::kCommit\b", text)
            abort = re.search(r"EventKind::kAbort\b", text)
            if commit and not abort:
                self.report("history-pairing", path,
                            self.line_of(text, commit.start()),
                            "file references history EventKind::kCommit but "
                            "never EventKind::kAbort (unpaired emission)")
            elif abort and not commit:
                self.report("history-pairing", path,
                            self.line_of(text, abort.start()),
                            "file references history EventKind::kAbort but "
                            "never EventKind::kCommit (unpaired emission)")

    # ------------------------------------------------------- metric-naming

    @staticmethod
    def call_args(text, open_paren):
        """Text of a balanced (...) argument list starting at open_paren."""
        depth = 0
        for i in range(open_paren, len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    return text[open_paren + 1:i]
        return text[open_paren + 1:]

    def rule_metric_naming(self):
        for path in self.src_files():
            if os.path.basename(path) in ("metrics.h", "metrics.cc"):
                continue  # the registry implementation itself
            text = self.read(path)
            for m in METRIC_CALL_RE.finditer(text):
                line = self.line_of(text, m.start())
                kind = m.group(1)
                args = self.call_args(text, m.end() - 1)
                name_m = re.match(r'\s*"([^"]*)"', args)
                if not name_m:
                    continue  # name passed as a variable; can't lint
                name = name_m.group(1)
                if not SNAKE_RE.match(name):
                    self.report("metric-naming", path, line,
                                f'metric family "{name}" is not snake_case')
                if kind == "Counter" and not name.endswith("_total"):
                    self.report("metric-naming", path, line,
                                f'counter "{name}" does not end in "_total"')
                for lm in LABEL_KEY_RE.finditer(args[name_m.end():]):
                    key = lm.group(1)
                    if not SNAKE_RE.match(key):
                        self.report("metric-naming", path, line,
                                    f'label key "{key}" on metric "{name}" '
                                    "is not snake_case")


    # -------------------------------------------------- lock-profile-label

    def rule_lock_profile_label(self):
        registry = self.parse_registry()
        if not registry:
            return  # tree-shape problem already reported under lock-class
        for path in self.src_files():
            text = self.read(path)
            for m in METRIC_CALL_RE.finditer(text):
                args = self.call_args(text, m.end() - 1)
                for lm in LOCK_CLASS_LABEL_RE.finditer(args):
                    cls = lm.group(1)
                    if cls in registry:
                        continue
                    line = self.line_of(text, m.end() + lm.start())
                    self.report(
                        "lock-profile-label", path, line,
                        f'lock_class label "{cls}" is not in the DESIGN.md '
                        "lock-class registry (lock_* profiler series must "
                        "be keyed by registered classes; a typo here forks "
                        "a series no lock ever feeds)")

    # ----------------------------------------------- escape-justification

    def rule_escape_justification(self):
        registry = self.parse_registry()
        for path in self.src_files():
            if os.path.basename(path) == "thread_annotations.h":
                continue  # the macro's definition and documentation
            text = self.read(path)
            lines = text.splitlines()
            for m in ESCAPE_RE.finditer(text):
                line_start = text.rfind("\n", 0, m.start()) + 1
                if text[line_start:m.start()].lstrip().startswith("#define"):
                    continue
                line = self.line_of(text, m.start())
                marker = None
                window = lines[max(0, line - 1 - ESCAPE_WINDOW):line - 1]
                for candidate in reversed(window):
                    if "//" not in candidate:
                        continue
                    mm = ESCAPE_MARKER_RE.search(candidate)
                    if mm:
                        marker = mm
                        break
                if marker is None:
                    self.report(
                        "escape-justification", path, line,
                        "NO_THREAD_SAFETY_ANALYSIS without a "
                        "`// tsa-escape(<lock.class>): reason` comment in "
                        f"the {ESCAPE_WINDOW} lines above (say which lock "
                        "class TSA cannot model here, and why the code is "
                        "still safe)")
                    continue
                cls = marker.group(1).strip()
                reason = (marker.group(2) or "").strip()
                if registry and cls not in registry:
                    self.report(
                        "escape-justification", path, line,
                        f'tsa-escape names lock class "{cls}", which is '
                        "not in the DESIGN.md lock-class registry")
                if not reason:
                    self.report(
                        "escape-justification", path, line,
                        "tsa-escape marker has an empty reason")


def main():
    parser = argparse.ArgumentParser(
        prog="dynamast-lint",
        description="Project-invariant linter for the DynaMast repo.")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root to lint (default: this script's repo)")
    parser.add_argument(
        "--rule", action="append", choices=RULES, dest="rules",
        help="run only this rule (repeatable; default: all rules)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"dynamast-lint: error: no src/ directory under {root}",
              file=sys.stderr)
        return 2

    linter = Linter(root)
    rules = args.rules or list(RULES)
    dispatch = {
        "lock-class": linter.rule_lock_class,
        "sched-op": linter.rule_sched_op,
        "history-pairing": linter.rule_history_pairing,
        "metric-naming": linter.rule_metric_naming,
        "escape-justification": linter.rule_escape_justification,
        "lock-profile-label": linter.rule_lock_profile_label,
    }
    for rule in rules:
        dispatch[rule]()

    for violation in linter.violations:
        print(violation)
    if linter.violations:
        print(f"dynamast-lint: {len(linter.violations)} violation(s) in "
              f"{root}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
