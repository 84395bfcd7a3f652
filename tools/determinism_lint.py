#!/usr/bin/env python3
"""Repo-custom determinism lint for the AnoT codebase.

Every parallel path in this repo (offline build, batched scoring, async
refresh, sweeps) is pinned bit-identical to a serial reference.  The classes of code that have broken — or nearly broken — that
contract are mechanical to spot:

  unordered-iter   iteration over a std::unordered_{map,set,multimap,multiset}
                   whose per-element effects can escape into merges,
                   accumulation, or output.  Hash-table iteration order is
                   unspecified and varies across libstdc++ versions, seeds,
                   and insertion histories.
  float-accum      a floating-point reduction (`x += ...` into a float/double)
                   inside such a loop: even when the element *set* is fixed,
                   float addition is not associative, so hash order changes
                   the sum bit pattern.  Deterministic float reductions
                   belong in a sorted collect-then-reduce.
  pointer-key      std::{map,set,multimap,multiset} keyed by a pointer (or a
                   std::less<T*> comparator): iteration order replays the
                   allocator's address assignment, which varies run to run.
  stale-annotation an `ordered-ok` annotation that suppresses no finding
                   (say, above a loop whose container is no longer
                   unordered): it claims an audit nothing needs, and would
                   silently cover a hazard added near it later.

The checker is a lexical (regex + balanced-scan) engine over the same
patterns a clang-query AST matcher would bind: declarations and accessors
with unordered types feed a symbol table; range-for / .begin() loops whose
range resolves to that table are findings.  The engine itself lives in
tools/lint_common.py, shared with the concurrency and lifetime lints.
It is intentionally conservative: *every* unordered iteration must either
be rewritten over a deterministic order or carry an audited-site annotation

    // anot-lint: ordered-ok <why iteration order cannot escape>

on the flagged line or the line directly above it.  The reason is
mandatory; an annotation without one stays a finding.

Usage:
    determinism_lint.py [paths...]     lint .h/.cc files (dirs recurse);
                                       exit 1 when findings remain
    determinism_lint.py --self-test    run the fixture suite under
                                       tools/lint_selftest/ (must_flag.cc
                                       lines marked `// expect-flag: <rule>`
                                       must each fire exactly that rule;
                                       must_pass.cc must stay silent)
"""

import argparse
import os
import re
import sys
from typing import List, Set

from lint_common import (
    EXPECT_RE,
    Finding,
    annotation_near,
    find_loop_body_span,
    line_of,
    load_files,
    match_paren,
    run_fixture_selftest,
    scan_balanced_angles,
    strip_comments,
    top_level_colon,
)

# Re-exported for backward compatibility: earlier revisions of
# tools/concurrency_lint.py imported the engine from this module.
__all__ = [
    "EXPECT_RE",
    "Finding",
    "SymbolTable",
    "annotation_near",
    "line_of",
    "load_files",
    "run_lint",
    "strip_comments",
]

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
POINTER_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
)
POINTER_LESS_RE = re.compile(r"\bstd\s*::\s*less\s*<\s*[\w:]+\s*\*\s*>")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(&?\s*)?([A-Za-z_]\w*)\b")
ANNOTATION_RE = re.compile(r"anot-lint:\s*ordered-ok(?:\s+(\S.*))?")

RULES = ("unordered-iter", "float-accum", "pointer-key", "stale-annotation")


class SymbolTable:
    """Identifiers that resolve to unordered containers: variable /
    parameter / member names, and accessor functions returning one."""

    def __init__(self) -> None:
        self.variables: Set[str] = set()
        self.functions: Set[str] = set()

    def collect(self, code: str) -> None:
        for m in UNORDERED_DECL_RE.finditer(code):
            open_pos = code.index("<", m.start())
            end = scan_balanced_angles(code, open_pos)
            rest = code[end:]
            dm = re.match(
                r"\s*[&*]?\s*(?:const\s+)?([A-Za-z_]\w*)\s*([;,=({)\[]|$)",
                rest,
                re.MULTILINE,
            )
            if not dm:
                continue
            name, delim = dm.group(1), dm.group(2)
            if delim == "(":
                self.functions.add(name)
            else:
                self.variables.add(name)

    def resolves_unordered(self, range_expr: str) -> bool:
        expr = range_expr.strip().lstrip("*&").strip()
        # Trailing call: obj.accessor() / accessor()
        call = re.search(r"([A-Za-z_]\w*)\s*\(\s*\)\s*$", expr)
        if call:
            return call.group(1) in self.functions
        tail = re.search(r"([A-Za-z_]\w*)\s*$", expr)
        return bool(tail) and tail.group(1) in self.variables


def collect_float_vars(code: str) -> Set[str]:
    out: Set[str] = set()
    for m in FLOAT_DECL_RE.finditer(code):
        out.add(m.group(2))
    return out


def lint_file(path: str, text: str, symbols: SymbolTable) -> List[Finding]:
    code = strip_comments(text)
    lines = text.splitlines()
    float_vars = collect_float_vars(code)
    findings: List[Finding] = []
    used_annotations: Set[int] = set()

    def emit(lineno: int, rule: str, message: str) -> None:
        note_line, reason = annotation_near(lines, lineno, ANNOTATION_RE)
        used_annotations.add(note_line)
        if note_line and reason:
            return  # audited site
        if note_line and not reason:
            message += " (ordered-ok annotation present but missing the" \
                       " mandatory reason)"
        findings.append(Finding(path, lineno, rule, message))

    # ---- pointer-keyed ordering ------------------------------------------
    for m in POINTER_KEY_RE.finditer(code):
        emit(
            line_of(code, m.start()),
            "pointer-key",
            "ordered container keyed by a pointer: iteration order replays "
            "allocator addresses, which vary run to run",
        )
    for m in POINTER_LESS_RE.finditer(code):
        emit(
            line_of(code, m.start()),
            "pointer-key",
            "std::less over a pointer type orders by address, which varies "
            "run to run",
        )

    # ---- unordered iteration ---------------------------------------------
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = code.index("(", m.start())
        close_paren = match_paren(code, open_paren)
        header = code[open_paren + 1 : close_paren]
        lineno = line_of(code, m.start())

        range_expr = None
        colon = top_level_colon(header)
        if colon >= 0:
            range_expr = header[colon + 1 :]
        else:
            it = re.search(
                r"=\s*([A-Za-z_][\w.\->]*(?:\(\s*\))?)\s*[.]\s*c?begin\s*\(",
                header,
            )
            if it:
                range_expr = it.group(1)
        if range_expr is None or not symbols.resolves_unordered(range_expr):
            continue

        body_begin, body_end = find_loop_body_span(code, close_paren)
        body = code[body_begin:body_end]
        accum = None
        for fm in re.finditer(r"([A-Za-z_]\w*)\s*\+=", body):
            if fm.group(1) in float_vars:
                accum = fm.group(1)
                break
        if accum is not None:
            emit(
                lineno,
                "float-accum",
                f"floating-point reduction into '{accum}' over an unordered "
                "container: float addition is not associative, so hash order "
                "changes the sum — use a sorted collect-then-reduce",
            )
        else:
            emit(
                lineno,
                "unordered-iter",
                "iteration over an unordered container: hash order is "
                "unspecified — sort before the effects escape, or annotate "
                "'// anot-lint: ordered-ok <reason>' after auditing",
            )

    # ---- stale annotations -----------------------------------------------
    for lineno, line in enumerate(lines, start=1):
        m = ANNOTATION_RE.search(line)
        comment = line.find("//")
        if m and 0 <= comment < m.start() and lineno not in used_annotations:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "stale-annotation",
                    "ordered-ok annotation suppresses no finding: delete it",
                )
            )
    return findings


def run_lint(paths: List[str]) -> List[Finding]:
    files = load_files(paths)
    # Pass 1: one shared symbol table, so a .cc iterating a member declared
    # in its header (or an accessor like pair_sequences()) still resolves.
    symbols = SymbolTable()
    for text in files.values():
        symbols.collect(strip_comments(text))
    # Pass 2: findings.
    findings: List[Finding] = []
    for path, text in files.items():
        findings.extend(lint_file(path, text, symbols))
    return findings


def self_test() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_dir = os.path.join(here, "lint_selftest")
    return run_fixture_selftest(
        "determinism_lint",
        RULES,
        os.path.join(fixture_dir, "must_flag.cc"),
        os.path.join(fixture_dir, "must_pass.cc"),
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
            f"\n{len(findings)} determinism finding(s). Rewrite over a "
            "deterministic order, or audit the site and annotate it with "
            "'// anot-lint: ordered-ok <reason>'."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
