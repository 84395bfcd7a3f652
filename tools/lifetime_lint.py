#!/usr/bin/env python3
"""Repo-custom lifetime/ownership lint for the AnoT codebase.

Clang's lifetime analysis (`-DANOT_LIFETIME=ON`, see src/util/lifetime.h)
reports a dangling reference at the call site — but only when the accessor
is annotated `ANOT_LIFETIME_BOUND`, and only for the statement-local
patterns the compiler can see.  A raw pointer member that silently
outlives its owner (the PR 1 Scorer/Updater bug) needs a *contract*, not a
diagnostic.  This lint closes both gaps lexically, riding the shared
engine in tools/lint_common.py:

  ptr-member    a raw pointer / reference / string_view *data member* at
                class scope.  The member borrows storage it does not own,
                so the declaration must say who the owner is and why it
                outlives the holder:
                    // anot-own: <owner outlives holder because ...>
                (std::unique_ptr / std::optional / containers pass: they
                own.  `not_null<T*>` documents non-null but still borrows —
                spell the owner.)
  ref-return    a function declared to return a reference, pointer, or
                string_view without `ANOT_LIFETIME_BOUND` in its
                declaration.  Unannotated, Clang cannot connect the
                returned view to the owner argument, and a caller binding
                `const auto& x = MakeOwner().accessor();` dangles with no
                diagnostic.  Returns of static-storage data (string
                literals, function-local statics) are audited instead:
                    // anot-lint: lifetime-ok <why the referent is immortal>
  this-capture  a lambda capturing `this` handed to ThreadPool::Submit.
                The task may outlive the object whose `this` it captured;
                the site needs an `// anot-own: <reason>` note naming what
                keeps the object alive until the pool drains.

The reason is mandatory; an annotation without one stays a finding.

Usage:
    lifetime_lint.py [paths...]     lint .h/.cc files (dirs recurse);
                                    exit 1 when findings remain
    lifetime_lint.py --self-test    run the fixture suite under
                                    tools/lint_selftest/
                                    (lifetime_must_flag.cc lines marked
                                    `// expect-flag: <rule>` must each
                                    fire exactly that rule;
                                    lifetime_must_pass.cc must stay
                                    silent)
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

RULES = ("ptr-member", "ref-return", "this-capture")

ANOT_OWN_RE = re.compile(r"anot-own:(?:\s+(\S.*))?")
LIFETIME_OK_RE = re.compile(r"anot-lint:\s*lifetime-ok(?:\s+(\S.*))?")
SUBMIT_RE = re.compile(r"\bSubmit\s*\(")
# Repo annotation macros are transparent for declaration parsing:
# ANOT_GUARDED_BY(mu_) on a member, ANOT_REQUIRES(...) on a function.
ANOT_MACRO_RE = re.compile(r"\bANOT_[A-Z_]+\s*\([^()]*\)|\bANOT_[A-Z_]+\b")
ACCESS_LABEL_RE = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)*")
# Statement kinds that are never borrowed data members / accessors.
SKIP_STMT_RE = re.compile(
    r"^\s*(?:using\b|typedef\b|friend\b|static_assert\b|#|"
    r"enum\b|class\b|struct\b|namespace\b|extern\b)"
)
TEMPLATE_PREFIX_RE = re.compile(r"^\s*template\s*<")
IDENT_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_][\w]*|operator\s*[^\s(]+)\s*\($")
# Assignment/stream operators conventionally return *this / the stream the
# caller passed in; annotating them buys nothing (the returned ref is the
# argument itself, visible at the call site).
CONVENTION_OPERATOR_RE = re.compile(
    r"operator\s*(?:=|<<|>>|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=|\+\+|--)\s*$"
)


def classify_brace(code: str, open_pos: int) -> str:
    """Scope kind introduced by the '{' at open_pos: the stretch back to
    the previous ';' / '{' / '}' names it (class/struct -> "class",
    namespace -> "namespace", enum / function body / initializer ->
    "other")."""
    i = open_pos - 1
    while i >= 0 and code[i] not in ";{}":
        i -= 1
    stretch = code[i + 1 : open_pos]
    # Drop template-parameter/argument lists so `template <class T>` ahead
    # of a function body does not read as a class head.
    depth = 0
    flat: List[str] = []
    for ch in stretch:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            flat.append(ch)
    stretch = "".join(flat)
    if re.search(r"\benum\b", stretch):
        return "other"
    if "(" in stretch:
        return "other"  # parameter list: a function body, not a type head
    if re.search(r"\b(?:class|struct|union)\b", stretch):
        return "class"
    if re.search(r"\bnamespace\b", stretch):
        return "namespace"
    return "other"


def declaration_statements(code: str) -> List[Tuple[str, str, int, bool]]:
    """Statements at class or namespace scope, as
    (scope_kind, text, start_offset, ends_with_brace).  Function bodies
    ("other" scopes) are skipped wholesale; a statement ends at ';' or at
    the '{' opening a nested scope."""
    out: List[Tuple[str, str, int, bool]] = []
    stack: List[str] = []
    stmt_start = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "{":
            kind = classify_brace(code, i)
            scope = stack[-1] if stack else "namespace"
            if scope in ("class", "namespace"):
                out.append((scope, code[stmt_start:i], stmt_start, True))
            stack.append(kind)
            stmt_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            stmt_start = i + 1
        elif c == ";":
            scope = stack[-1] if stack else "namespace"
            if scope in ("class", "namespace"):
                out.append((scope, code[stmt_start:i], stmt_start, False))
            stmt_start = i + 1
        i += 1
    return out


def strip_anot_macros(stmt: str) -> str:
    return ANOT_MACRO_RE.sub(" ", stmt)


def strip_template_prefix(stmt: str) -> str:
    """Drops leading `template <...>` heads (member templates declare
    view-returning accessors too — dense_map::at / operator[])."""
    while True:
        m = TEMPLATE_PREFIX_RE.match(stmt)
        if not m:
            return stmt
        open_pos = stmt.index("<", m.start())
        stmt = stmt[scan_balanced(stmt, open_pos, "<", ">"):]


def angle_depth0_has_ptr_or_ref(s: str) -> bool:
    """Whether '*' or '&' occurs outside template argument lists (so
    unique_ptr<T> passes but `T* p` and `const T& r` do not)."""
    depth = 0
    for idx, c in enumerate(s):
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif c in "*&" and depth == 0:
            # '&&' in a default initializer is a logical and; a member
            # cannot be an rvalue reference, so treat '&&' as non-decl.
            if c == "&" and (s[idx + 1 : idx + 2] == "&" or
                             s[idx - 1 : idx] == "&"):
                continue
            return True
    return False


def split_signature(stmt: str) -> Tuple[str, str]:
    """For a statement containing '(', returns (return_type_text, name).
    The name is the identifier (or operator token) directly before the
    first top-level '('."""
    # First '(' at angle depth 0.
    depth = 0
    paren = -1
    for idx, c in enumerate(stmt):
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif c == "(" and depth == 0:
            paren = idx
            break
    if paren < 0:
        return "", ""
    head = stmt[:paren].rstrip()
    m = re.search(r"(operator\s*[^\s]*|[A-Za-z_~][\w]*)$", head)
    if not m:
        return "", ""
    name = m.group(1)
    ret = head[: m.start()].rstrip()
    return ret, name


def collect_annotated_names(code: str, lines: List[str]) -> Set[str]:
    """Names of functions whose declaration carries ANOT_LIFETIME_BOUND or
    an audited lifetime-ok annotation — their out-of-line / .cc
    definitions need no second annotation."""
    names: Set[str] = set()
    for _scope, stmt, start, _brace in declaration_statements(code):
        if "(" not in stmt:
            continue
        ret, name = split_signature(stmt)
        if not name:
            continue
        label = ACCESS_LABEL_RE.match(stmt)
        off = label.end() if label else 0
        rest = stmt[off:]
        lineno = line_of(code, start + off + len(rest) - len(rest.lstrip()))
        note_line, reason = annotation_near(lines, lineno, LIFETIME_OK_RE)
        if "ANOT_LIFETIME_BOUND" in stmt or (note_line and reason):
            names.add(name.replace(" ", ""))
    return names


def lint_file(path: str, text: str, annotated_names: Set[str]) -> List[Finding]:
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

    for scope, stmt, start, ends_with_brace in declaration_statements(code):
        # Line of the declaration itself: skip leading whitespace AND any
        # access labels, so the flag (and the annotation lookup) lands on
        # the member/function line, not on `private:` above it.
        label = ACCESS_LABEL_RE.match(stmt)
        off = label.end() if label else 0
        body = stmt[off:]
        stripped = strip_template_prefix(body)
        off += len(body) - len(stripped)
        body = stripped
        lineno = line_of(code, start + off + len(body) - len(body.lstrip()))
        if SKIP_STMT_RE.match(body):
            continue
        clean = strip_anot_macros(body)

        # ---- ptr-member: borrowed-storage data members -------------------
        if (scope == "class" and not ends_with_brace
                and "(" not in clean
                and not re.search(r"\b(?:static|constexpr)\b", clean)
                and (angle_depth0_has_ptr_or_ref(clean)
                     or re.search(r"\bstring_view\b", clean))):
            emit(
                lineno,
                "ptr-member",
                "raw pointer/reference/string_view data member: it borrows "
                "storage it does not own — declare the contract with "
                "'// anot-own: <owner outlives holder because ...>'",
                ANOT_OWN_RE,
            )
            continue

        # ---- ref-return: view-returning functions ------------------------
        if "(" in clean:
            ret, name = split_signature(clean)
            if not ret or not name:
                continue
            if "ANOT_LIFETIME_BOUND" in stmt:
                continue
            if CONVENTION_OPERATOR_RE.search(name):
                continue
            # Out-of-line definitions (Class::member, ns-qualified): the
            # annotation lives on the in-class/header declaration.
            tail = clean[: clean.rindex(name)] if name in clean else ""
            if tail.rstrip().endswith("::"):
                continue
            if name.replace(" ", "") in annotated_names:
                continue
            returns_view = (
                ret.endswith("*") or ret.endswith("&")
                or re.search(r"\bstring_view\s*$", ret)
            )
            if not returns_view:
                continue
            emit(
                lineno,
                "ref-return",
                f"'{name}' returns a reference/pointer/view without "
                "ANOT_LIFETIME_BOUND: Clang cannot tie the result to its "
                "owner, so call-site dangles go undiagnosed — annotate the "
                "declaration, or audit a static-storage return with "
                "'// anot-lint: lifetime-ok <reason>'",
                LIFETIME_OK_RE,
            )

    # ---- this-capturing lambdas into ThreadPool::Submit ------------------
    for m in SUBMIT_RE.finditer(code):
        open_paren = code.index("(", m.start())
        cap_open = open_paren + 1
        while cap_open < len(code) and code[cap_open] in " \t\n":
            cap_open += 1
        if cap_open >= len(code) or code[cap_open] != "[":
            continue  # not an inline lambda
        cap_end = scan_balanced(code, cap_open, "[", "]")
        capture_list = code[cap_open:cap_end]
        if not re.search(r"\bthis\b", capture_list):
            continue
        emit(
            line_of(code, m.start()),
            "this-capture",
            "lambda capturing `this` handed to ThreadPool::Submit: the "
            "task can outlive the object — note what keeps it alive until "
            "the pool drains with '// anot-own: <reason>'",
            ANOT_OWN_RE,
        )

    return findings


def run_lint(paths: List[str]) -> List[Finding]:
    files = load_files(paths)
    # Pass 1: a shared table of annotated function names, so a .cc
    # definition of a header-annotated accessor is not re-flagged.
    annotated_names: Set[str] = set()
    for text in files.values():
        annotated_names |= collect_annotated_names(
            strip_comments(text), text.splitlines()
        )
    # Pass 2: findings.
    findings: List[Finding] = []
    for path, text in files.items():
        findings.extend(lint_file(path, text, annotated_names))
    return findings


def self_test() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_dir = os.path.join(here, "lint_selftest")
    return run_fixture_selftest(
        "lifetime_lint",
        RULES,
        os.path.join(fixture_dir, "lifetime_must_flag.cc"),
        os.path.join(fixture_dir, "lifetime_must_pass.cc"),
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
            f"\n{len(findings)} lifetime finding(s). Annotate the accessor "
            "with ANOT_LIFETIME_BOUND (src/util/lifetime.h), declare the "
            "member's owner with '// anot-own: <reason>', or audit a "
            "static-storage return with "
            "'// anot-lint: lifetime-ok <reason>'."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
