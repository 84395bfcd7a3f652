#!/usr/bin/env python3
"""Repo-custom concurrency lint for the AnoT codebase.

The Clang thread-safety analysis (`-DANOT_THREAD_SAFETY=ON`, see
src/util/thread_annotations.h) checks lock discipline at compile time —
but only for capabilities it can see.  A raw std::mutex is invisible to
it, a detached thread outlives every annotation, and a by-reference
lambda shipped to the ThreadPool can share anything with anyone.  This
lint closes those escape hatches lexically, riding the shared
comment-stripping / annotation engine in tools/lint_common.py:

  raw-sync         std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable (and friends) outside
                   src/util/thread_annotations.h.  Shared state must go
                   through the annotated anot::Mutex / MutexLock /
                   CondVar wrappers so the capability analysis covers it.
  detached-thread  a .detach() call: a detached thread cannot be joined,
                   so nothing orders its writes before process teardown.
  unjoined-thread  a std::thread (or std::vector<std::thread>) member or
                   global declared in a file that never calls .join():
                   ownership without a join path is a leak of execution.
  shared-capture   a by-reference lambda capture handed to
                   ThreadPool::Submit.  The task may run after the
                   captured frame is gone, and `&` shares every named
                   local with every worker; each such site needs an
                   explicit lifetime/ownership argument.
  atomic-contract  a std::atomic object declared without a structured
                   `anot-sync:` contract comment.  Atomics are the one
                   synchronization tool the capability analysis cannot
                   model, so the publication contract (who stores, who
                   loads, which memory order, and why it suffices) must
                   be written where the analysis would otherwise check.

Audited sites carry an annotation on the flagged line or the contiguous
`//` comment block directly above it — the reason is mandatory, an
annotation without one stays a finding:

    // anot-lint: raw-sync-ok <why the wrapper cannot be used here>
    // anot-lint: thread-ok   <who joins this thread, and when>
    // anot-lint: shared-ok   <why the captured state outlives the task>
    // anot-sync: <the atomic's publication contract>

Usage:
    concurrency_lint.py [paths...]     lint .h/.cc files (dirs recurse);
                                       exit 1 when findings remain
    concurrency_lint.py --self-test    run the fixture suite under
                                       tools/lint_selftest/
                                       (concurrency_must_flag.cc lines
                                       marked `// expect-flag: <rule>`
                                       must each fire exactly that rule;
                                       concurrency_must_pass.cc must
                                       stay silent)
"""

import argparse
import os
import re
import sys
from typing import List, Set, Tuple

from lint_common import (
    Finding,
    annotation_near,
    line_of,
    load_files,
    run_fixture_selftest,
    scan_balanced,
    strip_comments,
)

RULES = (
    "raw-sync",
    "detached-thread",
    "unjoined-thread",
    "shared-capture",
    "atomic-contract",
)

# The one file allowed to touch the std primitives: it wraps them in the
# annotated capability types everything else must use.
WRAPPER_HEADER = "thread_annotations.h"

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock"
    r")\b"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
THREAD_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*vector\s*<\s*)?std\s*::\s*thread\s*>?\s+"
    r"([A-Za-z_]\w*)\s*[;{=]"
)
JOIN_RE = re.compile(r"\.\s*join\s*\(")
SUBMIT_RE = re.compile(r"\bSubmit\s*\(")
ATOMIC_RE = re.compile(r"\bstd\s*::\s*atomic\s*<")

RAW_SYNC_OK_RE = re.compile(r"anot-lint:\s*raw-sync-ok(?:\s+(\S.*))?")
THREAD_OK_RE = re.compile(r"anot-lint:\s*thread-ok(?:\s+(\S.*))?")
SHARED_OK_RE = re.compile(r"anot-lint:\s*shared-ok(?:\s+(\S.*))?")
ANOT_SYNC_RE = re.compile(r"anot-sync:(?:\s+(\S.*))?")


def lint_file(path: str, text: str) -> List[Finding]:
    code = strip_comments(text)
    lines = text.splitlines()
    findings: List[Finding] = []
    seen: Set[Tuple[int, str]] = set()

    def emit(lineno: int, rule: str, message: str,
             annotation_re: "re.Pattern[str]") -> None:
        note_line, reason = annotation_near(lines, lineno, annotation_re)
        if note_line and reason:
            return  # audited site
        if note_line and not reason:
            message += " (annotation present but missing the mandatory" \
                       " reason)"
        if (lineno, rule) in seen:
            return
        seen.add((lineno, rule))
        findings.append(Finding(path, lineno, rule, message))

    # ---- raw std synchronization primitives ------------------------------
    if os.path.basename(path) != WRAPPER_HEADER:
        for m in RAW_SYNC_RE.finditer(code):
            emit(
                line_of(code, m.start()),
                "raw-sync",
                f"raw std::{m.group(1)} outside {WRAPPER_HEADER}: the "
                "thread-safety analysis cannot see it — use the annotated "
                "anot::Mutex / MutexLock / CondVar wrappers",
                RAW_SYNC_OK_RE,
            )

    # ---- detached / unjoined threads -------------------------------------
    for m in DETACH_RE.finditer(code):
        emit(
            line_of(code, m.start()),
            "detached-thread",
            "detached thread: nothing can join it, so no happens-before "
            "edge orders its writes — keep the handle and join it",
            THREAD_OK_RE,
        )
    has_join = JOIN_RE.search(code) is not None
    for m in THREAD_DECL_RE.finditer(code) if not has_join else ():
        emit(
            line_of(code, m.start()),
            "unjoined-thread",
            f"std::thread '{m.group(1)}' declared but this file never "
            "calls .join(): thread ownership needs a join path (or an "
            "audited '// anot-lint: thread-ok <who joins it>')",
            THREAD_OK_RE,
        )

    # ---- by-reference captures into ThreadPool::Submit -------------------
    for m in SUBMIT_RE.finditer(code):
        open_paren = code.index("(", m.start())
        cap_open = open_paren + 1
        while cap_open < len(code) and code[cap_open] in " \t\n":
            cap_open += 1
        if cap_open >= len(code) or code[cap_open] != "[":
            continue  # not an inline lambda
        cap_end = scan_balanced(code, cap_open, "[", "]")
        capture_list = code[cap_open:cap_end]
        if "&" not in capture_list:
            continue  # by-value captures: the task owns its state
        emit(
            line_of(code, m.start()),
            "shared-capture",
            "by-reference capture handed to ThreadPool::Submit: the task "
            "shares the captured frame with every worker — justify the "
            "lifetime with '// anot-lint: shared-ok <reason>' or capture "
            "by value",
            SHARED_OK_RE,
        )

    # ---- atomics without a publication contract --------------------------
    for m in ATOMIC_RE.finditer(code):
        open_angle = code.index("<", m.start())
        end = scan_balanced(code, open_angle, "<", ">")
        rest = code[end:]
        dm = re.match(r"\s*([A-Za-z_]\w*)\s*[;{=]", rest)
        if not dm:
            continue  # pointer/reference params, template args, casts
        emit(
            line_of(code, m.start()),
            "atomic-contract",
            f"std::atomic '{dm.group(1)}' declared without an "
            "'// anot-sync: <contract>' comment: atomics bypass the "
            "capability analysis, so the store/load pairing, memory "
            "orders, and what they publish must be documented at the "
            "declaration",
            ANOT_SYNC_RE,
        )

    return findings


def run_lint(paths: List[str]) -> List[Finding]:
    files = load_files(paths)
    findings: List[Finding] = []
    for path, text in files.items():
        findings.extend(lint_file(path, text))
    return findings


def self_test() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_dir = os.path.join(here, "lint_selftest")
    return run_fixture_selftest(
        "concurrency_lint",
        RULES,
        os.path.join(fixture_dir, "concurrency_must_flag.cc"),
        os.path.join(fixture_dir, "concurrency_must_pass.cc"),
        run_lint,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", help=".h/.cc files or directories")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the fixture suite under tools/lint_selftest/",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.paths:
        parser.error("no paths given (and --self-test not requested)")

    findings = run_lint(args.paths)
    for f in findings:
        print(f)
    if findings:
        print(
            f"\n{len(findings)} concurrency finding(s). Move onto the "
            "annotated wrappers (src/util/thread_annotations.h), or audit "
            "the site and annotate it with the matching "
            "'// anot-lint: ...-ok <reason>' / '// anot-sync: <contract>'."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
