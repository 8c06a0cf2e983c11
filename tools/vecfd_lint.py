#!/usr/bin/env python3
"""vecfd-lint — static checker for this repo's measurement/threading contracts.

Every hard bug in PRs 2-5 was a violated *implicit* contract, found by hand
after the fact.  This tool encodes those contracts as machine-checked rules
(see DESIGN.md §7 for the rule-by-rule rationale and the historical bug each
one fences):

  measured-alloc        no allocation churn of measured buffers inside a
                        measurement region (the PR 3 canonical-line aliasing
                        bug class)
  shard-exchange        no raw store into a halo/ghost buffer inside a
                        Vpu&-taking function — ghost slots move only through
                        sim::HaloExchange::exchange, which prices the
                        transfer in the halo counters
  raw-thread            no std::thread / std::mutex / lock types outside
                        core/parallel.h + core/thread_annotations.h (keeps
                        -Wthread-safety's annotated surface exhaustive)
  solve-report-history  every function returning SolveReport funnels every
                        exit through solver::checked(...) (the PR 4
                        history.size() == iterations + 1 invariant)
  csv-phase-literal     no hard-coded per-phase column names ("ph9_...") in
                        src/ or tools/ — CSV schemas derive columns from
                        miniapp::kNumInstrumentedPhases (the PR 2 desync)
  counter-registry      sim::Counters is an X-macro registry
                        (VECFD_COUNTERS): fields are declared only through
                        it, operator+=/operator-= expand it, and the
                        registry consumers (core/csv.cpp, the
                        conservation test) never enumerate counters by
                        hand — subsumes and strengthens PR 6's
                        counter-aggregation rule: wiring drift is now
                        structurally impossible instead of merely detected
  strip-mine-contract   inside Vpu&-taking kernel functions, raw loops must
                        not call set_vl or issue vector ops — strip-mining
                        goes through the for_strips helper, whose tail strip
                        carries the effective-AVL accounting (the PR 2
                        tail-mask/AVL bug class)
  determinism-audit     no order-sensitive FP accumulation across
                        parallel_for_index iterations (per-slot results
                        only) and no std::unordered_map/set in the
                        CSV/report output layer — the two hazards that
                        break the byte-identical serial/parallel guarantee
  dead-symbol           every function declared in src/**/*.h is named by
                        a shipped program (src/ tools/ bench/ vecfd_bench/
                        examples/) beyond its own declarations and
                        definitions — code only the tests call is deleted,
                        or lives in tests/support/ when it is an oracle;
                        conservative by name, so it never flags live code

The checkpoint field list needs no rule: serialize_state() and
deserialize_state() bind every TimeLoopCheckpoint field by name, so the
compiler rejects a field that either direction misses.

Engines: with the libclang python bindings installed (`python3-clang`),
function boundaries/signatures come from a real clang parse (--engine
libclang or auto); otherwise a built-in C++ lexer provides them (--engine
lex, always available).  Both engines feed the same rule implementations
and agree on the fixture suite under tests/lint/.

Usage:
  vecfd_lint.py [--repo-root DIR] [--engine auto|lex|libclang] [PATH...]
  vecfd_lint.py --self-test          # run the fixture suite
  vecfd_lint.py --list-rules

With no PATHs, scans src/ tools/ bench/ tests/support/ under the repo
root (the repo-level rules always read their own fixed files).  Exit codes
follow the vecfd-run contract: 0 clean, 1 findings, 2 usage/internal error.

Suppressions (every suppression carries a justification):
  * inline, on the offending line or the line above:
      // vecfd-lint: allow(rule-id) <justification>
  * repo-wide, one per line in .vecfd-lint-suppressions at the repo root:
      rule-id  path/glob  [expires=PR<N>]  <justification>
    An `expires=PR<N>` field marks the entry for re-justification: once the
    repo is past PR N (current PR inferred from CHANGES.md, override with
    --current-pr), the entry still suppresses but vecfd-lint warns on
    stderr that it is past due.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# shared lexing: comment/string stripping with positions preserved
# --------------------------------------------------------------------------


@dataclass
class StringLiteral:
    line: int
    text: str


@dataclass
class SourceFile:
    path: str  # repo-relative, '/'-separated
    raw: str
    stripped: str  # comments and literal *contents* blanked, layout kept
    strings: list  # list[StringLiteral]
    raw_lines: list  # list[str]


def lex_source(path: str, raw: str) -> SourceFile:
    """Blank comments and string/char literal contents (keeping newlines so
    offsets and line numbers survive), recording string literals for rules
    that inspect them."""
    out = []
    strings = []
    i, n = 0, len(raw)
    line = 1
    mode = "code"  # code | line_comment | block_comment | string | char
    literal = []

    def blank(ch):
        out.append("\n" if ch == "\n" else " ")

    while i < n:
        ch = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if mode == "code":
            if ch == "/" and nxt == "/":
                mode = "line_comment"
                blank(ch)
            elif ch == "/" and nxt == "*":
                mode = "block_comment"
                blank(ch)
            elif ch == '"':
                mode = "string"
                literal = []
                out.append('"')
            elif ch == "'":
                mode = "char"
                out.append("'")
            else:
                out.append(ch)
        elif mode == "line_comment":
            if ch == "\n":
                mode = "code"
            blank(ch)
        elif mode == "block_comment":
            if ch == "*" and nxt == "/":
                blank(ch)
                blank(nxt)
                i += 2
                line += raw[i - 2 : i].count("\n")
                mode = "code"
                continue
            blank(ch)
        elif mode == "string":
            if ch == "\\" and i + 1 < n:
                literal.append(raw[i : i + 2])
                blank(ch)
                blank(nxt)
                i += 2
                line += raw[i - 2 : i].count("\n")
                continue
            if ch == '"':
                strings.append(StringLiteral(line, "".join(literal)))
                out.append('"')
                mode = "code"
            else:
                literal.append(ch)
                blank(ch)
        elif mode == "char":
            if ch == "\\" and i + 1 < n:
                blank(ch)
                blank(nxt)
                i += 2
                line += raw[i - 2 : i].count("\n")
                continue
            if ch == "'":
                out.append("'")
                mode = "code"
            else:
                blank(ch)
        if ch == "\n":
            line += 1
        i += 1

    return SourceFile(
        path=path,
        raw=raw,
        stripped="".join(out),
        strings=strings,
        raw_lines=raw.splitlines(),
    )


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# function extraction (lex engine + optional libclang engine)
# --------------------------------------------------------------------------


@dataclass
class FunctionDef:
    name: str
    ret: str  # return-type text ('' when unknown)
    params: str  # parameter-list text
    body_start: int  # offset of the opening '{' in the stripped text
    body_end: int  # offset one past the closing '}'
    line: int


_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "do",
    "else", "new", "delete", "throw", "case", "default", "alignof",
    "static_assert", "decltype",
}

# A function head: return-type tokens, a name, a parameter list, optional
# specifiers, then the body's '{'.  The return type must end in a
# separator ([\s&*>]) so a bare call statement `foo(args) {` cannot be
# split into ret='f' name='oo'.
_FUNC_RE = re.compile(
    r"(?P<ret>[A-Za-z_][\w:<>,&*\s\[\]]*?[\s&*>])\s*"
    r"(?P<name>~?[A-Za-z_]\w*)\s*"
    r"\((?P<params>[^;{}]*?)\)\s*"
    r"(?P<spec>(?:const|noexcept|override|final|mutable|->\s*[\w:<>&*\s]+"
    r"|VECFD_\w+(?:\([^)]*\))?|\s)*)"
    r"\{"
)


def match_braces(text: str, open_idx: int) -> int:
    """Offset one past the brace matching text[open_idx] (which is '{')."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def find_functions_lex(src: SourceFile) -> list:
    funcs = []
    for m in _FUNC_RE.finditer(src.stripped):
        name = m.group("name").lstrip("~")
        if name in _CONTROL_KEYWORDS:
            continue
        body_start = m.end() - 1
        funcs.append(
            FunctionDef(
                name=name,
                ret=" ".join(m.group("ret").split()),
                params=" ".join(m.group("params").split()),
                body_start=body_start,
                body_end=match_braces(src.stripped, body_start),
                line=line_of(src.stripped, m.start("name")),
            )
        )
    return funcs


def _libclang_index():
    import clang.cindex  # noqa: F401  (ImportError → caller falls back)

    return clang.cindex.Index.create()


def find_functions_libclang(src: SourceFile, repo_root: str) -> list:
    """Function extents from a real clang parse.  Any failure (missing
    bindings, unloadable library, parse wreckage) falls back to the lexer:
    the rules only need extents + signatures, which both engines provide."""
    import clang.cindex as ci

    index = _libclang_index()
    tu = index.parse(
        src.path,
        args=["-std=c++20", "-x", "c++", "-I", os.path.join(repo_root, "src")],
        unsaved_files=[(src.path, src.raw)],
        options=ci.TranslationUnit.PARSE_INCOMPLETE,
    )
    # Offsets from clang refer to the raw text; the stripped text has
    # identical layout (stripping is length-preserving), so they transfer.
    kinds = {
        ci.CursorKind.FUNCTION_DECL,
        ci.CursorKind.CXX_METHOD,
        ci.CursorKind.CONSTRUCTOR,
        ci.CursorKind.DESTRUCTOR,
        ci.CursorKind.FUNCTION_TEMPLATE,
    }
    funcs = []

    def visit(cursor):
        for child in cursor.get_children():
            if (
                child.kind in kinds
                and child.is_definition()
                and child.location.file is not None
                and child.location.file.name == src.path
            ):
                ext = child.extent
                start, end = ext.start.offset, ext.end.offset
                body = src.stripped.find("{", start, end)
                if body < 0:
                    continue
                params = ", ".join(
                    a.type.spelling + " " + (a.spelling or "")
                    for a in child.get_arguments()
                )
                funcs.append(
                    FunctionDef(
                        name=child.spelling,
                        ret=child.result_type.spelling,
                        params=params,
                        body_start=body,
                        body_end=match_braces(src.stripped, body),
                        line=child.location.line,
                    )
                )
            visit(child)

    visit(tu.cursor)
    return funcs


def find_functions(src: SourceFile, engine: str, repo_root: str) -> list:
    if engine in ("auto", "libclang"):
        try:
            return find_functions_libclang(src, repo_root)
        except Exception as e:  # noqa: BLE001 — any failure → lexer
            if engine == "libclang":
                print(
                    f"vecfd-lint: libclang engine unavailable ({e}); "
                    "falling back to lex",
                    file=sys.stderr,
                )
    return find_functions_lex(src)


# --------------------------------------------------------------------------
# findings and suppressions
# --------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_INLINE_ALLOW_RE = re.compile(r"vecfd-lint:\s*allow\(([\w\-,\s]+)\)\s*(\S.*)?")


def inline_suppressed(src: SourceFile, finding: Finding) -> bool:
    """`// vecfd-lint: allow(rule) why` on the finding's line or the line
    above.  A marker with no justification text does NOT suppress."""
    for lineno in (finding.line, finding.line - 1):
        if 1 <= lineno <= len(src.raw_lines):
            m = _INLINE_ALLOW_RE.search(src.raw_lines[lineno - 1])
            if m and m.group(2):
                rules = [r.strip() for r in m.group(1).split(",")]
                if finding.rule in rules:
                    return True
    return False


_EXPIRES_RE = re.compile(r"^expires=PR(\d+)$")


@dataclass
class Suppression:
    rule: str
    glob: str
    lineno: int
    expires_pr: int | None = None  # still suppresses past due, but warns


@dataclass
class SuppressionFile:
    entries: list = field(default_factory=list)  # list[Suppression]
    used: set = field(default_factory=set)

    @staticmethod
    def load(path: str) -> "SuppressionFile":
        sup = SuppressionFile()
        if not os.path.exists(path):
            return sup
        with open(path, encoding="utf-8") as f:
            for lineno, raw_line in enumerate(f, 1):
                s = raw_line.strip()
                if not s or s.startswith("#"):
                    continue
                parts = s.split(None, 3)
                expires = None
                if len(parts) >= 3:
                    m = _EXPIRES_RE.match(parts[2])
                    if m:
                        expires = int(m.group(1))
                        del parts[2]
                if len(parts) < 3:
                    raise SystemExit(
                        f"{path}:{lineno}: suppression needs 'rule-id "
                        "path-glob [expires=PRn] justification'"
                    )
                sup.entries.append(
                    Suppression(parts[0], parts[1], lineno, expires)
                )
        return sup

    def matches(self, finding: Finding) -> bool:
        hit = False
        for e in self.entries:
            if e.rule == finding.rule and fnmatch.fnmatch(finding.path, e.glob):
                self.used.add(e.lineno)
                hit = True
        return hit


# --------------------------------------------------------------------------
# rules
# --------------------------------------------------------------------------

RULES = {}


def rule(rule_id, doc):
    def deco(fn):
        RULES[rule_id] = (fn, doc)
        fn.rule_id = rule_id
        return fn

    return deco


_VPU_PARAM_RE = re.compile(r"(?:sim\s*::\s*)?Vpu\s*[&*]\s*(\w+)")
_ALLOC_CHURN_RE = re.compile(
    r"(?P<decl>\bstd\s*::\s*vector\s*<[^;()]{0,80}>\s+\w+\s*[;({=])"
    r"|(?P<free>\.\s*(?:resize|shrink_to_fit)\s*\()"
    r"|(?P<del>\bdelete\b)"
)


@rule(
    "measured-alloc",
    "inside a function taking a Vpu&, no local std::vector declaration, "
    ".resize()/.shrink_to_fit() or delete after the first use of the Vpu — "
    "freed host lines let later allocations re-alias canonical cache lines "
    "(PR 3 bug class); hoist workspaces out of the measured region",
)
def rule_measured_alloc(src: SourceFile, funcs: list) -> list:
    findings = []
    for fn in funcs:
        pm = _VPU_PARAM_RE.search(fn.params)
        if not pm:
            continue
        vpu = pm.group(1) or "vpu"
        body = src.stripped[fn.body_start : fn.body_end]
        first_use = re.search(rf"\b{re.escape(vpu)}\b", body)
        if not first_use:
            continue
        for m in _ALLOC_CHURN_RE.finditer(body, first_use.start()):
            if m.group("decl") and "&" in m.group("decl"):
                continue  # reference binding, not a new buffer
            what = (m.group("decl") or m.group("free") or m.group("del")).strip()
            findings.append(
                Finding(
                    src.path,
                    line_of(src.stripped, fn.body_start + m.start()),
                    "measured-alloc",
                    f"allocation churn `{what}` inside the measurement "
                    f"region of {fn.name}() (after first use of Vpu "
                    f"`{vpu}`); hoist the buffer into a reusable workspace",
                )
            )
    return findings


_HALO_WRITE_RE = re.compile(
    r"\b(?P<buf>\w*(?:halo|ghost)\w*)\s*"
    r"(?:\.\s*\w+\s*(?:\(\s*\))?\s*)?"  # .data() / member access
    r"\[[^\]]*\]\s*(?:[+\-*/|&^]?=)(?!=)"
)
_SHARD_EXCHANGE_ALLOWED = ("src/sim/halo_exchange.cpp",)


@rule(
    "shard-exchange",
    "inside a function taking a Vpu&, no raw store into a halo/ghost-named "
    "buffer after the first use of the Vpu — ghost slots are refreshed "
    "only by sim::HaloExchange::exchange, which prices the transfer in "
    "the halo_lines_sent/recv/halo_messages counters; a raw store moves "
    "remote data for free and desynchronizes the volume model "
    "(same measurement-integrity class as measured-alloc)",
)
def rule_shard_exchange(src: SourceFile, funcs: list) -> list:
    if src.path in _SHARD_EXCHANGE_ALLOWED:
        return []
    findings = []
    for fn in funcs:
        pm = _VPU_PARAM_RE.search(fn.params)
        if not pm:
            continue
        vpu = pm.group(1) or "vpu"
        body = src.stripped[fn.body_start : fn.body_end]
        first_use = re.search(rf"\b{re.escape(vpu)}\b", body)
        if not first_use:
            continue
        for m in _HALO_WRITE_RE.finditer(body, first_use.start()):
            findings.append(
                Finding(
                    src.path,
                    line_of(src.stripped, fn.body_start + m.start()),
                    "shard-exchange",
                    f"raw store into ghost/halo buffer `{m.group('buf')}` "
                    f"inside the measurement region of {fn.name}() (after "
                    f"first use of Vpu `{vpu}`); ghost slots are written "
                    "only by sim::HaloExchange::exchange so the transfer "
                    "is priced in the halo counters",
                )
            )
    return findings


_RAW_THREAD_RE = re.compile(
    r"\bstd\s*::\s*(thread|jthread|mutex|recursive_mutex|shared_mutex|"
    r"timed_mutex|recursive_timed_mutex|condition_variable(?:_any)?|"
    r"scoped_lock|lock_guard|unique_lock|shared_lock|async|promise|"
    r"packaged_task)\b"
)
_RAW_THREAD_ALLOWED = ("src/core/parallel.h", "src/core/thread_annotations.h")


@rule(
    "raw-thread",
    "std::thread/std::mutex/lock primitives only in core/parallel.h and "
    "core/thread_annotations.h — all fan-out goes through "
    "parallel_for_index and all locking through the annotated core::Mutex, "
    "so clang -Wthread-safety sees every lock in the process",
)
def rule_raw_thread(src: SourceFile, funcs: list) -> list:
    if src.path in _RAW_THREAD_ALLOWED:
        return []
    return [
        Finding(
            src.path,
            line_of(src.stripped, m.start()),
            "raw-thread",
            f"raw std::{m.group(1)} outside core/parallel.h; use "
            "core::parallel_for_index / core::Mutex (thread_annotations.h) "
            "so the threading surface stays annotated and TSan-covered",
        )
        for m in _RAW_THREAD_RE.finditer(src.stripped)
    ]


_REPORT_RET_RE = re.compile(
    r"^(?:static\s+)?(?:solver\s*::\s*)?"
    r"(?:std\s*::\s*vector\s*<\s*(?:solver\s*::\s*)?SolveReport\s*>|"
    r"SolveReport)$"
)
_REPORT_DECL_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*vector\s*<\s*(?:solver\s*::\s*)?SolveReport\s*>"
    r"|(?:solver\s*::\s*)?SolveReport)\s+(\w+)\s*[;({=]"
)
_RETURN_ID_RE = re.compile(r"\breturn\s+(\w+)\s*;")
_RETURN_BRACE_RE = re.compile(r"\breturn\s+(?:solver\s*::\s*)?SolveReport\s*\{")


@rule(
    "solve-report-history",
    "every function returning SolveReport (or a vector of them) must route "
    "each return through solver::checked(...), the always-on gate for the "
    "history.size() == iterations + 1 contract (PR 4 invariant)",
)
def rule_solve_report_history(src: SourceFile, funcs: list) -> list:
    findings = []
    for fn in funcs:
        if not _REPORT_RET_RE.match(fn.ret.strip()):
            continue
        body = src.stripped[fn.body_start : fn.body_end]
        report_vars = {m.group(1) for m in _REPORT_DECL_RE.finditer(body)}
        for m in _RETURN_ID_RE.finditer(body):
            if m.group(1) in report_vars:
                findings.append(
                    Finding(
                        src.path,
                        line_of(src.stripped, fn.body_start + m.start()),
                        "solve-report-history",
                        f"{fn.name}() returns `{m.group(1)}` without "
                        "solver::checked(...); every SolveReport exit must "
                        "pass the history-invariant gate (krylov.h)",
                    )
                )
        for m in _RETURN_BRACE_RE.finditer(body):
            findings.append(
                Finding(
                    src.path,
                    line_of(src.stripped, fn.body_start + m.start()),
                    "solve-report-history",
                    f"{fn.name}() returns a SolveReport literal without "
                    "solver::checked(...)",
                )
            )
    return findings


_PH_LITERAL_RE = re.compile(r"ph\d")


@rule(
    "csv-phase-literal",
    'no hard-coded per-phase column name ("ph9_cycles", ...) in string '
    "literals — both CSV schemas derive their phase columns from "
    "miniapp::kNumInstrumentedPhases (the PR 2 header/row desync).  "
    "bench/'s human-readable display tables are exempted repo-wide in "
    ".vecfd-lint-suppressions",
)
def rule_csv_phase_literal(src: SourceFile, funcs: list) -> list:
    return [
        Finding(
            src.path,
            s.line,
            "csv-phase-literal",
            f'string literal "{s.text}" hard-codes a phase column; derive '
            "phase columns from miniapp::kNumInstrumentedPhases",
        )
        for s in src.strings
        if _PH_LITERAL_RE.search(s.text)
    ]


_COUNTER_FIELD_RE = re.compile(
    r"^\s*(?:std\s*::\s*)?(?:uint64_t|double)\s+(\w+)\s*=", re.M
)
_REGISTRY_ENTRY_RE = re.compile(r"^\s*X\(\s*(\w+)\s*,", re.M)


def _member_section(text: str, signature: str) -> str:
    """Body of the *definition* of `signature` (skipping declarations: the
    occurrence must be followed by a parameter list and then '{', not ';')."""
    pos = 0
    while True:
        i = text.find(signature, pos)
        if i < 0:
            return ""
        pos = i + len(signature)
        after = text[pos:].lstrip()
        if after.startswith("{"):  # struct/class body: no parameter list
            open_idx = text.index("{", pos)
            return text[open_idx : match_braces(text, open_idx)]
        paren = text.find("(", pos)
        if paren < 0:
            return ""
        depth, j = 0, paren
        while j < len(text):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        tail = text[j + 1 :].lstrip()
        if tail.startswith("{"):
            open_idx = text.index("{", j + 1)
            return text[open_idx : match_braces(text, open_idx)]


def _registry_block(stripped: str):
    """(start, end) offsets of the `#define VECFD_COUNTERS(X)` macro body —
    the define line plus every backslash-continued line — or None."""
    m = re.search(r"#\s*define\s+VECFD_COUNTERS\s*\(", stripped)
    if not m:
        return None
    end = m.start()
    while True:
        nl = stripped.find("\n", end)
        if nl < 0:
            return (m.start(), len(stripped))
        line = stripped[end:nl]
        if not line.rstrip().endswith("\\"):
            return (m.start(), nl)
        end = nl + 1


def _mask_nested_braces(text: str) -> str:
    """Blank everything inside brace pairs (member-function bodies inside a
    struct body), keeping layout, so member-declaration regexes only see
    the struct's own declaration lines."""
    out = list(text)
    depth = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
            continue
        if ch == "}":
            depth -= 1
            continue
        if depth > 0 and ch != "\n":
            out[i] = " "
    return "".join(out)


def _load_stripped(repo_root: str, relpath: str):
    abspath = os.path.join(repo_root, relpath.replace("/", os.sep))
    if not os.path.exists(abspath):
        return None
    return lex_source(relpath, open(abspath, encoding="utf-8").read())


# Files generated from the counter registry: these may iterate it
# (visit / visit_fields / visit_pairs / VECFD_COUNTERS expansion) but must
# never name an individual counter, or the hand-kept enumeration can drift
# the moment the registry grows.
_REGISTRY_CONSUMERS = (
    "src/core/csv.cpp",
    "tests/test_time_loop_conservation.cpp",
)


@rule(
    "counter-registry",
    "sim::Counters is an X-macro registry: every field is declared through "
    "VECFD_COUNTERS, operator+= / operator-= expand the registry instead of "
    "enumerating fields, and the registry consumers (core/csv.cpp, the "
    "conservation test) go through the visit*() visitors — so a counter "
    "added to the registry is wired everywhere at once, and a hand-kept "
    "per-field list anywhere is a finding (subsumes PR 6's "
    "counter-aggregation rule)",
)
def rule_counter_registry(repo_root: str) -> list:
    src = _load_stripped(repo_root, "src/sim/counters.h")
    if src is None:
        return []
    findings = []

    block = _registry_block(src.stripped)
    if block is None:
        return [
            Finding(
                "src/sim/counters.h", 1, "counter-registry",
                "no VECFD_COUNTERS X-macro registry — counters must be "
                "declared through the registry (see DESIGN.md §7)",
            )
        ]
    fields = _REGISTRY_ENTRY_RE.findall(src.stripped[block[0] : block[1]])
    if not fields:
        return [
            Finding(
                "src/sim/counters.h", line_of(src.stripped, block[0]),
                "counter-registry",
                "VECFD_COUNTERS registry is empty",
            )
        ]

    # 1. No bare data members in struct Counters outside the registry: a
    #    smuggled field silently skips aggregation, CSV and conservation.
    struct_start = src.stripped.find("struct Counters")
    struct_body = _member_section(src.stripped, "struct Counters")
    if struct_body:
        open_idx = src.stripped.index("{", struct_start)
        decl_surface = _mask_nested_braces(struct_body[1:-1])
        for m in _COUNTER_FIELD_RE.finditer(decl_surface):
            findings.append(
                Finding(
                    "src/sim/counters.h",
                    line_of(src.stripped, open_idx + 1 + m.start(1)),
                    "counter-registry",
                    f"data member `{m.group(1)}` declared outside the "
                    "VECFD_COUNTERS registry; add it as a registry entry "
                    "so aggregation, CSV schemas and the conservation "
                    "test pick it up",
                )
            )

    # 2. The aggregation operators must be macro expansions, not hand lists.
    for op in ("operator+=", "operator-="):
        body = _member_section(src.stripped, op)
        if not body:
            findings.append(
                Finding(
                    "src/sim/counters.h", 1, "counter-registry",
                    f"Counters::{op} has no definition expanding "
                    "VECFD_COUNTERS",
                )
            )
            continue
        pos = src.stripped.find(op)
        if "VECFD_COUNTERS" not in body:
            findings.append(
                Finding(
                    "src/sim/counters.h", line_of(src.stripped, pos),
                    "counter-registry",
                    f"Counters::{op} does not expand the VECFD_COUNTERS "
                    "registry — hand-written aggregation drifts the moment "
                    "a counter is added",
                )
            )
            continue
        named = [n for n in fields if re.search(rf"\b{n}\b", body)]
        if named:
            findings.append(
                Finding(
                    "src/sim/counters.h", line_of(src.stripped, pos),
                    "counter-registry",
                    f"Counters::{op} names counter(s) "
                    + ", ".join(f"`{n}`" for n in named)
                    + " alongside the VECFD_COUNTERS expansion; the "
                    "operator body must be a pure registry expansion",
                )
            )

    # 3. Registry consumers never name individual counters — they iterate
    #    the registry through the visitors, so coverage is structural.
    for rel in _REGISTRY_CONSUMERS:
        consumer = _load_stripped(repo_root, rel)
        if consumer is None:
            continue
        for name in fields:
            for m in re.finditer(rf"\b{name}\b", consumer.stripped):
                f = Finding(
                    rel, line_of(consumer.stripped, m.start()),
                    "counter-registry",
                    f"registry consumer names counter `{name}` directly; "
                    "iterate the registry (Counters::visit / visit_fields "
                    "/ visit_pairs) so new counters cannot be skipped",
                )
                if not inline_suppressed(consumer, f):
                    findings.append(f)
    return findings


_LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
_FOR_STRIPS_CALL_RE = re.compile(r"\bfor_strips\s*(?:<[^>]*>\s*)?\(")


def match_parens(text: str, open_idx: int) -> int:
    """Offset one past the ')' matching text[open_idx] (which is '(')."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


@rule(
    "strip-mine-contract",
    "inside a Vpu&-taking kernel function, raw for/while loops must not "
    "call vpu.set_vl() or issue vector ops (vpu.v*) — strip-mining goes "
    "through the for_strips helper, whose tail strip carries the "
    "effective-AVL/tail-mask accounting (the PR 2 bug class where a "
    "hand-rolled tail strip ran at the wrong AVL).  The for_strips "
    "definition itself is exempt; slab loops inside a for_strips lambda "
    "run at a granted vl and are fine",
)
def rule_strip_mine(src: SourceFile, funcs: list) -> list:
    findings = []
    for fn in funcs:
        if fn.name == "for_strips":
            continue
        pm = _VPU_PARAM_RE.search(fn.params)
        if not pm:
            continue
        vpu = pm.group(1) or "vpu"
        body = src.stripped[fn.body_start : fn.body_end]

        # Extents of for_strips(...) calls: everything inside (including the
        # strip-body lambda) is the sanctioned pattern.
        exempt = []
        for m in _FOR_STRIPS_CALL_RE.finditer(body):
            open_idx = body.index("(", m.start())
            exempt.append((m.start(), match_parens(body, open_idx)))

        def exempted(pos):
            return any(a <= pos < b for a, b in exempt)

        # Extents of raw loops outside those calls.
        loops = []
        for m in _LOOP_RE.finditer(body):
            if exempted(m.start()):
                continue
            open_idx = body.index("(", m.start())
            head_end = match_parens(body, open_idx)
            tail = body[head_end:]
            brace = len(tail) - len(tail.lstrip())
            if tail.lstrip().startswith("{"):
                end = match_braces(body, head_end + brace)
            else:
                end = body.find(";", head_end)
                end = len(body) if end < 0 else end + 1
            loops.append((m.start(), end))

        issue_re = re.compile(
            rf"\b{re.escape(vpu)}\s*\.\s*(set_vl|v\w+)\s*\("
        )
        offenders = [
            m for m in issue_re.finditer(body)
            if not exempted(m.start())
            and any(a <= m.start() < b for a, b in loops)
        ]
        if offenders:
            first = offenders[0]
            findings.append(
                Finding(
                    src.path,
                    line_of(src.stripped, fn.body_start + first.start()),
                    "strip-mine-contract",
                    f"{fn.name}() issues `{vpu}.{first.group(1)}` inside a "
                    f"raw loop ({len(offenders)} vector issue(s) outside "
                    "for_strips); strip-mine through for_strips so the "
                    "tail strip carries the effective-AVL accounting",
                )
            )
    return findings


_UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set)\b")
# The layers whose bytes reach CSV/JSON/report output: iteration order must
# be deterministic there.  (mem/ and solver/ internals may hash freely.)
_OUTPUT_LAYER_PREFIXES = (
    "src/core/", "src/metrics/", "src/stats/", "src/trace/", "tools/",
    "bench/",
)
_PARALLEL_CALL_RE = re.compile(r"\bparallel_for_index\s*\(")
_COMPOUND_ASSIGN_RE = re.compile(r"(?<![\w\].])(\w+)\s*[+\-*/]=(?!=)")


@rule(
    "determinism-audit",
    "two hazards that break the byte-identical serial/parallel guarantee: "
    "(1) compound assignment into a variable captured from outside a "
    "parallel_for_index callback — iteration interleaving makes FP "
    "accumulation order-dependent; write per-slot results and reduce after "
    "the join; (2) std::unordered_map/unordered_set anywhere in the "
    "CSV/report output layer (src/core, src/metrics, src/stats, src/trace, "
    "tools, bench) — iteration order is unspecified and varies across "
    "libstdc++ versions, so emitted rows silently reorder",
)
def rule_determinism_audit(src: SourceFile, funcs: list) -> list:
    findings = []

    # (1) cross-iteration accumulation in parallel callbacks.
    for call in _PARALLEL_CALL_RE.finditer(src.stripped):
        open_idx = src.stripped.index("(", call.start())
        extent = src.stripped[open_idx:match_parens(src.stripped, open_idx)]
        for m in _COMPOUND_ASSIGN_RE.finditer(extent):
            name = m.group(1)
            # Declared inside the callback (a per-iteration local
            # accumulator) is fine: a type-ish token precedes the name.
            if re.search(
                rf"[A-Za-z_][\w:<>]*[\s&]\s*{re.escape(name)}\s*[={{;(]",
                extent[: m.start()],
            ):
                continue
            findings.append(
                Finding(
                    src.path,
                    line_of(src.stripped, open_idx + m.start()),
                    "determinism-audit",
                    f"`{name}` is accumulated across parallel_for_index "
                    "iterations; the interleaving makes the reduction "
                    "order-dependent — write per-slot results and reduce "
                    "deterministically after the join",
                )
            )

    # (2) unordered containers in the output layer.  Bare fixture names
    # (no directory) opt in so the fixture pair can exercise the rule.
    in_output_layer = "/" not in src.path or src.path.startswith(
        _OUTPUT_LAYER_PREFIXES
    )
    if in_output_layer:
        for m in _UNORDERED_RE.finditer(src.stripped):
            findings.append(
                Finding(
                    src.path,
                    line_of(src.stripped, m.start()),
                    "determinism-audit",
                    f"std::unordered_{m.group(1)} in the output layer: "
                    "iteration order is unspecified, so CSV/report bytes "
                    "depend on the standard library — use std::map / "
                    "std::set or sort before emitting",
                )
            )
    return findings


# The shipped programs: a function declared in src/**/*.h must be named
# somewhere in these trees beyond its own declarations and definitions.
_SHIPPED_DIRS = ("src", "tools", "bench", "vecfd_bench", "examples")

# Brace heads that open a scope whose members are declarations; every other
# brace (function body, initializer, enum) is blanked by _scope_level.
_SCOPE_HEAD_RE = re.compile(
    r"\s*(?:(?:public|private|protected)\s*:\s*)*"
    r"(?:template\s*<[^;{}]*>\s*)?"
    r"(?:inline\s+)?(?:namespace|class|struct|union)\b"
    r"|\s*extern\s*\""
)
_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
_CLASS_NAME_RE = re.compile(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)")
# Names followed by '(' that are never a declared function, and words that
# make the following name a use (return f(...)) or not a function name
# (operator bool()).
_NOT_FUNCTION_NAMES = _CONTROL_KEYWORDS | {
    "alignas", "noexcept", "requires", "operator", "explicit", "void",
    "bool", "char", "int", "long", "short", "float", "double", "unsigned",
    "signed", "auto", "const", "volatile", "typename", "template", "using",
    "typedef",
}
_USE_PREFIX_WORDS = {
    "return", "new", "delete", "throw", "else", "case", "co_return",
    "co_yield", "operator", "sizeof", "decltype", "goto",
}
_SPEC_RE = re.compile(
    r"\s*(?:const|volatile|noexcept(?:\s*\([^()]*\))?|override|final|&&|&"
    r"|VECFD_\w+(?:\s*\([^()]*\))?)"
)


def _scope_level(stripped: str) -> str:
    """@p stripped with preprocessor lines and the contents of every
    non-scope brace pair blanked (braces and layout kept): what remains is
    namespace- and class-level text, where every `name(` with a type before
    it is a function declaration or definition head."""
    text = re.sub(
        r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*",
        lambda m: re.sub(r"[^\n]", " ", m.group(0)),
        stripped,
        flags=re.M,
    )
    out = list(text)
    masked = 0  # brace depth inside a blanked body
    seg = 0  # start of the current declaration head
    for i, ch in enumerate(text):
        if masked:
            if ch == "{":
                masked += 1
            elif ch == "}":
                masked -= 1
                if masked == 0:
                    seg = i + 1
                    continue
            if ch != "\n":
                out[i] = " "
        elif ch == "{":
            if _SCOPE_HEAD_RE.match(text, seg, i):
                seg = i + 1
            else:
                masked = 1
        elif ch in ";}":
            seg = i + 1
    return "".join(out)


def _function_heads(scope: str) -> list:
    """(name, offset) of every function declaration/definition head in the
    scope-level text @p scope.  Deleted and defaulted functions, operators,
    destructors and macro-like ALL_CAPS names are left out."""
    heads = []
    for m in _CALL_RE.finditer(scope):
        name = m.group(1)
        if (
            name in _NOT_FUNCTION_NAMES
            or name.startswith("__")
            or name.upper() == name
        ):
            continue
        # What precedes the (possibly qualified) name must end a type.
        j = m.start(1)
        while True:
            k = j
            while k > 0 and scope[k - 1] in " \t\n":
                k -= 1
            if scope[k - 2 : k] != "::":
                break
            k -= 2
            while k > 0 and scope[k - 1] in " \t\n":
                k -= 1
            q = re.search(r"[A-Za-z_]\w*\s*(?:<[^;{}()]*>)?\s*$", scope[:k])
            if not q:
                break
            j = q.start()
        prev = scope[k - 1] if k > 0 else ""
        if not (prev.isalnum() or prev in "_&*>]"):
            continue
        word = re.search(r"([A-Za-z_]\w*)\s*$", scope[:k])
        if word and word.group(1) in _USE_PREFIX_WORDS:
            continue
        # After the parameter list: specifiers, then ; { = : or ->.
        end = match_parens(scope, m.end() - 1)
        spec = _SPEC_RE.match(scope, end)
        while spec and spec.end() > end:
            end = spec.end()
            spec = _SPEC_RE.match(scope, end)
        rest = scope[end:].lstrip()
        if not rest or rest[0] not in ";{=:-":
            continue
        if re.match(r"=\s*(?:delete|default)\b", rest):
            continue
        if rest[0] == "-" and not rest.startswith("->"):
            continue
        heads.append((name, m.start(1)))
    return heads


@rule(
    "dead-symbol",
    "a function declared in src/**/*.h must be named somewhere in the "
    "shipped programs (src/, tools/, bench/, vecfd_bench/, examples/) "
    "besides its own declarations and definitions — code only the tests "
    "call is deleted, or moved to tests/support/ when it is a test oracle.  "
    "Conservative by name: a use of any overload or any same-named member "
    "counts, so it can miss dead code but never flags live code.  A "
    "function may stay only with `// vecfd-lint: allow(dead-symbol) why`",
)
def rule_dead_symbol(repo_root: str) -> list:
    uses = {}  # name -> token count minus head count, over shipped files
    declared = []  # (SourceFile, name, line) of each src/**/*.h head
    class_names = set()
    for top in _SHIPPED_DIRS:
        base = os.path.join(repo_root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith(_SCAN_EXTS):
                    continue
                rel = os.path.relpath(
                    os.path.join(dirpath, fname), repo_root
                ).replace(os.sep, "/")
                src = _load_stripped(repo_root, rel)
                for tok in _IDENT_RE.findall(src.stripped):
                    uses[tok] = uses.get(tok, 0) + 1
                class_names.update(_CLASS_NAME_RE.findall(src.stripped))
                seen = set()
                for name, off in _function_heads(_scope_level(src.stripped)):
                    uses[name] -= 1
                    if (
                        rel.startswith("src/")
                        and rel.endswith(".h")
                        and name not in seen
                    ):
                        seen.add(name)
                        declared.append(
                            (src, name, line_of(src.stripped, off))
                        )
    findings = []
    for src, name, line in declared:
        if uses[name] > 0 or name in class_names:
            continue  # named elsewhere, or a constructor
        f = Finding(
            src.path, line, "dead-symbol",
            f"`{name}` is named only by its own declarations and "
            "definitions in the shipped programs (src/ tools/ bench/ "
            "vecfd_bench/ examples/); delete it, move a test oracle to "
            "tests/support/, or justify it with "
            "`// vecfd-lint: allow(dead-symbol) <reason>`",
        )
        if not inline_suppressed(src, f):
            findings.append(f)
    return findings


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

_SCAN_EXTS = (".h", ".cpp", ".cc", ".hpp")
_FILE_RULES = [
    rule_measured_alloc,
    rule_shard_exchange,
    rule_raw_thread,
    rule_solve_report_history,
    rule_csv_phase_literal,
    rule_strip_mine,
    rule_determinism_audit,
]
# Repo-level rules: they inspect fixed files relative to a repo root (the
# real one, or a mini-root fixture dir under tests/lint/).
_REPO_RULES = [
    rule_counter_registry,
    rule_dead_symbol,
]


def scan_file(abspath: str, relpath: str, engine: str, repo_root: str) -> list:
    raw = open(abspath, encoding="utf-8", errors="replace").read()
    src = lex_source(relpath.replace(os.sep, "/"), raw)
    funcs = find_functions(src, engine, repo_root)
    findings = []
    for fn_rule in _FILE_RULES:
        findings.extend(f for f in fn_rule(src, funcs) if not inline_suppressed(src, f))
    return findings


def scan_tree(repo_root: str, paths: list, engine: str) -> list:
    findings = []
    for p in paths:
        absp = p if os.path.isabs(p) else os.path.join(repo_root, p)
        if os.path.isfile(absp):
            rel = os.path.relpath(absp, repo_root)
            findings.extend(scan_file(absp, rel, engine, repo_root))
            continue
        for dirpath, _dirnames, filenames in os.walk(absp):
            for name in sorted(filenames):
                if not name.endswith(_SCAN_EXTS):
                    continue
                fp = os.path.join(dirpath, name)
                rel = os.path.relpath(fp, repo_root)
                findings.extend(scan_file(fp, rel, engine, repo_root))
    for repo_rule in _REPO_RULES:
        findings.extend(repo_rule(repo_root))
    return findings


# --------------------------------------------------------------------------
# fixture self-test: every fixture file declares its expected findings with
# `EXPECT-FINDING(rule-id)` comment markers on the offending lines; clean
# fixtures carry none and must produce none.
# --------------------------------------------------------------------------

_EXPECT_RE = re.compile(r"EXPECT-FINDING\(([\w\-]+)\)")


def _expect_markers(path: str) -> list:
    """(line, rule-id) of every EXPECT-FINDING marker in the file at @p path."""
    raw = open(path, encoding="utf-8").read()
    return [
        (lineno, m.group(1))
        for lineno, text in enumerate(raw.splitlines(), 1)
        for m in _EXPECT_RE.finditer(text)
    ]


def self_test(repo_root: str, engine: str) -> int:
    fixture_dir = os.path.join(repo_root, "tests", "lint")
    if not os.path.isdir(fixture_dir):
        print(f"vecfd-lint: no fixture dir at {fixture_dir}", file=sys.stderr)
        return 2
    failures = 0
    cases = 0
    covered = set()  # rule ids named by some EXPECT-FINDING marker

    def check(name, got, want):
        nonlocal failures, cases
        cases += 1
        got, want = sorted(got), sorted(want)
        if got != want:
            failures += 1
            print(f"FAIL {name}")
            for g in got:
                marker = "unexpected" if g not in want else "ok"
                print(f"  got  ({marker}): {g}")
            for w in want:
                if w not in got:
                    print(f"  missing      : {w}")
        else:
            print(f"ok   {name} ({len(want)} expected finding(s))")

    for name in sorted(os.listdir(fixture_dir)):
        path = os.path.join(fixture_dir, name)
        if os.path.isfile(path) and name.endswith(_SCAN_EXTS):
            want = _expect_markers(path)
            covered.update(r for _line, r in want)
            # Scanned under their bare name: fixtures exercise every rule,
            # including ones whose tree scope excludes tests/.
            got = [
                (f.line, f.rule)
                for f in scan_file(path, name, engine, repo_root)
            ]
            check(name, got, want)
        elif os.path.isdir(path) and os.path.isdir(
            os.path.join(path, "src")
        ):
            # Repo-level-rule fixtures: a mini repo root.  Every repo rule
            # runs against it (each skips when its files are absent), and
            # findings can land in any file, so EXPECT markers are
            # collected from every file and keyed by repo-relative path.
            want = []
            for dirpath, _dn, filenames in os.walk(path):
                for fname in sorted(filenames):
                    if not fname.endswith(_SCAN_EXTS):
                        continue
                    fp = os.path.join(dirpath, fname)
                    rel = os.path.relpath(fp, path).replace(os.sep, "/")
                    want.extend((rel, *m) for m in _expect_markers(fp))
            covered.update(r for _rel, _line, r in want)
            got = [
                (f.path, f.line, f.rule)
                for repo_rule in _REPO_RULES
                for f in repo_rule(path)
            ]
            check(name + "/", got, want)

    # Every rule has a fixture that makes it fire: a rule added without a
    # violating fixture is untested, and a marker naming a deleted rule has
    # already failed its own fixture case above.
    check("rule coverage", [r for r in RULES if r in covered], list(RULES))

    # current-PR inference reads both CHANGES.md entry shapes
    changes = "- PR 11: old shape\n- PR 13 [simplicity] new shape\n"
    check("current-pr inference", [_next_pr(changes)], [14])

    print(f"{cases} fixture case(s), {failures} failure(s)")
    return 1 if failures else 0


# A CHANGES.md entry opens with `- PR n:` or `- PR n [tag] …`.
_CHANGES_PR_RE = re.compile(r"^- PR (\d+)(?::|\s+\[)", re.M)


def _next_pr(changes_text: str):
    """The PR under development = highest PR entry in @p changes_text, plus
    one (CHANGES.md records *merged* PRs).  None when there is none."""
    nums = _CHANGES_PR_RE.findall(changes_text)
    return max(int(n) for n in nums) + 1 if nums else None


def _infer_current_pr(repo_root: str):
    """_next_pr of the repo's CHANGES.md; None when it is absent."""
    path = os.path.join(repo_root, "CHANGES.md")
    if not os.path.exists(path):
        return None
    return _next_pr(open(path, encoding="utf-8").read())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="vecfd-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument(
        "paths", nargs="*",
        help="files/dirs (default: src tools bench tests/support)",
    )
    ap.add_argument("--repo-root", default=".", help="repository root")
    ap.add_argument(
        "--engine", choices=("auto", "lex", "libclang"), default="auto",
        help="function-boundary engine (auto: libclang if importable)",
    )
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the tests/lint fixture suite")
    ap.add_argument(
        "--current-pr", type=int, default=None,
        help="PR number for expires=PR<N> checks (default: inferred from "
        "the highest '- PR n:' / '- PR n [tag]' entry in CHANGES.md, plus "
        "one)",
    )
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule_id, (_fn, doc) in sorted(RULES.items()):
            print(f"{rule_id}\n    {doc}\n")
        return 0

    repo_root = os.path.abspath(args.repo_root)
    if args.self_test:
        return self_test(repo_root, args.engine)

    paths = args.paths or ["src", "tools", "bench", "tests/support"]
    suppressions = SuppressionFile.load(
        os.path.join(repo_root, ".vecfd-lint-suppressions")
    )
    findings = [
        f for f in scan_tree(repo_root, paths, args.engine)
        if not suppressions.matches(f)
    ]
    for f in findings:
        print(f)
    current_pr = (
        args.current_pr
        if args.current_pr is not None
        else _infer_current_pr(repo_root)
    )
    for e in suppressions.entries:
        if e.lineno not in suppressions.used:
            print(
                f"vecfd-lint: note: unused suppression at "
                f".vecfd-lint-suppressions:{e.lineno} ({e.rule} {e.glob})",
                file=sys.stderr,
            )
        if (
            e.expires_pr is not None
            and current_pr is not None
            and current_pr > e.expires_pr
        ):
            print(
                f"vecfd-lint: warning: suppression at "
                f".vecfd-lint-suppressions:{e.lineno} ({e.rule} {e.glob}) "
                f"expired at PR{e.expires_pr} (current PR{current_pr}); "
                "re-justify or remove it",
                file=sys.stderr,
            )
    if findings:
        print(f"vecfd-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("vecfd-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
