#!/usr/bin/env python3
"""Shared lexical engine for the AnoT repo lints.

Three lints ride on this module — tools/determinism_lint.py,
tools/concurrency_lint.py, and tools/lifetime_lint.py.  Each owns its
rules and annotation tags; everything mechanical lives here:

  strip_comments       comment/string blanking that preserves offsets and
                       newlines, so byte offsets map back to line numbers
  scan_balanced        generic balanced-delimiter scan ((), [], {})
  scan_balanced_angles template-argument <> scan
  match_paren          index of the ')' matching an '('
  top_level_colon      range-for ':' detection at nesting depth 0
  find_loop_body_span  extent of a loop body (braced block or statement)
  line_of              offset -> 1-based line number
  annotation_near      audited-site lookup: the flagged line or the
                       contiguous `//` block above it; returns the
                       annotation's line and its reason capture (group 1),
                       which is mandatory for the site to pass
  load_files           .h/.cc/.cpp/.hpp collection with stable ordering
  Finding              one finding: path, 1-based line, rule, message
  run_fixture_selftest the shared `--self-test` driver: every
                       `// expect-flag: <rule>` line in the must-flag
                       fixture must fire exactly that rule, nothing else
                       may fire, and the must-pass fixture must be silent
"""

import os
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

EXPECT_RE = re.compile(r"expect-flag:\s*([\w-]+)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Replaces comment and string-literal bodies with spaces, preserving
    offsets and newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def scan_balanced(code: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Index one past the delimiter matching code[open_pos]."""
    depth = 0
    for j in range(open_pos, len(code)):
        if code[j] == open_ch:
            depth += 1
        elif code[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(code)


def scan_balanced_angles(text: str, open_pos: int) -> int:
    """Given text[open_pos] == '<', returns the index one past the matching
    '>' (template-argument context: only <> nest)."""
    return scan_balanced(text, open_pos, "<", ">")


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_paren(code: str, open_pos: int) -> int:
    depth = 0
    for j in range(open_pos, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(code) - 1


def top_level_colon(header: str) -> int:
    """Position of a range-for ':' at paren/angle depth 0 (not '::')."""
    depth = 0
    i = 0
    n = len(header)
    while i < n:
        c = header[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif c == ":" and depth == 0:
            if i + 1 < n and header[i + 1] == ":":
                i += 2
                continue
            if i > 0 and header[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def find_loop_body_span(code: str, close_paren: int) -> Tuple[int, int]:
    """Extent of the loop body following a for(...) header: a braced block
    or a single statement."""
    i = close_paren + 1
    n = len(code)
    while i < n and code[i] in " \t\n":
        i += 1
    if i < n and code[i] == "{":
        depth = 0
        j = i
        while j < n:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    return (i, j + 1)
            j += 1
        return (i, n)
    j = code.find(";", i)
    return (i, n if j < 0 else j + 1)


def annotation_near(
    lines: List[str], lineno: int, annotation_re: "re.Pattern[str]"
) -> Tuple[int, Optional[str]]:
    """Finds the annotation covering the 1-based flagged line: on that line
    or in the contiguous `//` comment block directly above it, matching
    `annotation_re` (group 1 = reason). Returns (the annotation's 1-based
    line, reason), or (0, None) when there is none."""
    if 1 <= lineno <= len(lines):
        m = annotation_re.search(lines[lineno - 1])
        if m:
            return lineno, m.group(1)
    idx = lineno - 2
    while 0 <= idx < len(lines) and lines[idx].strip().startswith("//"):
        m = annotation_re.search(lines[idx])
        if m:
            return idx + 1, m.group(1)
        idx -= 1
    return 0, None


def load_files(paths: List[str]) -> Dict[str, str]:
    files: Dict[str, str] = {}
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                        full = os.path.join(root, name)
                        with open(full, encoding="utf-8") as f:
                            files[full] = f.read()
        else:
            with open(p, encoding="utf-8") as f:
                files[p] = f.read()
    return dict(sorted(files.items()))


def run_fixture_selftest(
    lint_name: str,
    rules: Sequence[str],
    must_flag: str,
    must_pass: str,
    run_lint: Callable[[List[str]], List[Finding]],
) -> int:
    """The shared --self-test driver: every `// expect-flag: <rule>` line
    in `must_flag` must fire exactly that rule, nothing unexpected may
    fire, and `must_pass` must stay silent."""
    failures: List[str] = []

    with open(must_flag, encoding="utf-8") as f:
        flag_lines = f.read().splitlines()
    expected: Dict[int, str] = {}
    for i, line in enumerate(flag_lines, start=1):
        m = EXPECT_RE.search(line)
        if m:
            if m.group(1) not in rules:
                failures.append(f"{must_flag}:{i}: unknown rule in marker")
            expected[i] = m.group(1)
    got = {(f.line, f.rule) for f in run_lint([must_flag])}
    for lineno, rule in sorted(expected.items()):
        if (lineno, rule) not in got:
            failures.append(
                f"{must_flag}:{lineno}: expected [{rule}] did not fire"
            )
    for lineno, rule in sorted(got):
        if expected.get(lineno) != rule:
            failures.append(
                f"{must_flag}:{lineno}: unexpected finding [{rule}]"
            )

    for f in run_lint([must_pass]):
        failures.append(f"must_pass fixture flagged: {f}")

    if failures:
        print(f"{lint_name} self-test FAILED:")
        for msg in failures:
            print("  " + msg)
        return 1
    print(
        f"{lint_name} self-test OK: {len(expected)} must-flag "
        "fixtures fired, must-pass fixtures silent"
    )
    return 0
