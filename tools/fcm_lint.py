#!/usr/bin/env python3
"""fcm_lint: repo-specific static analysis the compiler can't do.

Two engines share one rule set (DESIGN.md §10):

  regex   Always available. Works on comment-stripped text with
          balanced-paren/brace extraction for function bodies and call
          argument lists.
  ast     libclang-backed (python3 `clang` bindings). Refines the regex
          facts — it drops atomic-rule findings whose receiver is provably
          not a std::atomic, and adds findings regex cannot see (implicit
          seq-cst through `operator=`/`operator++` on atomics). When
          libclang is unavailable the analyzer silently degrades to the
          regex engine (`--engine=ast` makes that an error instead).

Rules:

  narrowing-cast   No bare narrowing ``static_cast`` onto counter types
                   (``uint8_t``/``uint16_t``/``uint32_t`` and signed
                   variants) inside ``src/fcm``, ``src/pisa`` and
                   ``src/runtime``. Counter narrowing must go through
                   ``fcm::common::checked_narrow``, which asserts value
                   preservation. (Bit-exact counter semantics are exactly
                   what breaks silently under optimization — FCM-sketch
                   §6-§8.)

  rand-seeding     No ``std::rand``/``rand()``/``srand``/``random()`` and no
                   seeding from ``time(0)``/``time(NULL)``/``std::time``.
                   All randomness goes through the deterministic
                   ``fcm::common::Xoshiro256`` so experiments reproduce.

  pragma-once      Every header carries ``#pragma once``.

  register-access  Every ``RegisterArray`` cell access goes through the
                   bounds-checked ``.at(...)`` accessor; direct
                   ``.cells[...]`` indexing is banned.

  thread-join      No plain ``std::thread`` inside ``src/``: a joinable
                   ``std::thread`` whose destructor runs calls
                   ``std::terminate``. Use ``std::jthread`` (joins on
                   destruction). ``std::this_thread``, ``std::jthread`` and
                   nested names like ``std::thread::id`` do not match.

  raw-atomic       No ``std::atomic`` inside ``src/`` outside
                   ``src/common/`` and ``src/obs/``. Cross-thread telemetry
                   belongs in ``obs::MetricsRegistry``; genuine control
                   state (e.g. a stop flag) carries an explicit ``allow``
                   marker with a justification.

  atomic-order     Inside ``src/common``, ``src/obs`` and ``src/runtime``
                   (the only homes of raw atomics), every atomic
                   ``load``/``store``/``exchange``/``fetch_*``/
                   ``compare_exchange_*`` must name an explicit
                   ``std::memory_order``. Seq-cst-by-default hides the
                   intended protocol and costs fences the SPSC/metrics hot
                   paths were designed to avoid. The AST engine also flags
                   implicit seq-cst through atomic ``operator=`` /
                   ``operator++`` / ``operator--``.

  acquire-release-pair
                   Same directories: publication protocol audit per atomic
                   member, per file. A ``store(memory_order_relaxed)`` on a
                   member that is acquire-loaded elsewhere in the file
                   publishes nothing (the acquire has no release to pair
                   with); conversely an acquire ``load`` of a member whose
                   stores are all relaxed synchronizes with nothing. This
                   is the rule that keeps the SPSC cursors' release-store /
                   acquire-load protocol intact under refactoring.

  guarded-field    Members annotated ``FCM_GUARDED_BY(cap)``
                   (common/thread_annotations.h) may only be touched inside
                   a function that (a) is declared ``FCM_REQUIRES`` (here
                   or in the sibling header), or (b) visibly enters the
                   capability — takes a ``MutexLock``/``lock_guard``/
                   ``unique_lock``/``scoped_lock`` or calls
                   ``assert_held()``/``assume_producer()``/
                   ``assume_consumer()``. Function-granular by design: the
                   statement-precise version of this check is Clang's
                   -Wthread-safety (the clang-thread-safety CI job); this
                   rule is the net that still catches lock-free access
                   under GCC-only builds.

  hot-path-lock    The batched hot-path entry points (the hot-path-alloc
                   function list) may not take locks: no ``MutexLock``,
                   ``lock_guard``, ``unique_lock``, ``scoped_lock`` or
                   ``.lock()`` in their bodies. One blocking mutex in the
                   per-packet loop serializes every shard.

  hot-path-alloc   No heap allocation (``new``, ``make_unique``,
                   ``std::vector<...>`` construction) inside the bodies of
                   the per-packet entry points in ``src/`` — the batched
                   sketch kernel (``add_batch``, ``process_batch``,
                   ``index_block``, ``apply_block``; DESIGN.md §9) and the
                   runtime's driver staging path (``ingest``,
                   ``ingest_keys``, ``ingest_packets``, ``open_block``,
                   ``publish_block``, ``stage_unit``, ``stage_pair``,
                   ``stage_demotion``, ``offer_cached``; DESIGN.md §13).

  datapath-bounds  Inside ``src/datapath`` (hostile-input territory: every
                   byte comes off the wire), no ``reinterpret_cast``, no
                   ``memcpy``/``memmove``/``memset``, and no raw pointer
                   arithmetic or indexing off ``.data()``. All capture-byte
                   access goes through the bounds-checked ``ByteCursor``
                   (``src/common/byte_cursor.h``, outside the rule's
                   directory) so a truncated or lying caplen can never turn
                   into an out-of-bounds read. No fixed-extent span either
                   (``.first<N>()``/``.last<N>()``/``.subspan<...>()``,
                   ``std::span<T, N>``): a ``FixedBytes<N>`` header view is
                   born only from ``ByteCursor::take``/``peek``'s one bounds
                   check. The AST engine also sees fixed-extent spans that
                   no spelling names (``auto``, class template argument
                   deduction).

  staging-ownership
                   Inside ``src/runtime`` (the block-staged ingest layer),
                   the driver's staging state — open-block buffers
                   (``open_``), staging arrays (``*staging*_``), and
                   round-robin cursors (``rr_*_``) — must be declared
                   ``FCM_GUARDED_BY`` the driver role on the same line, so
                   the ownership rule "only the driver thread stages
                   blocks" is visible to Clang's thread-safety analysis.
                   Additionally, the span-ingest bodies (``ingest``,
                   ``ingest_keys``, ``ingest_packets``, ``stage_*``,
                   ``offer_cached``, ``drain_cache``, ``flush_staging``,
                   ``flush``) may not call per-item
                   ``try_push``/``try_push_bulk``: the hand-off is
                   whole blocks through ``BlockQueue::try_open``/
                   ``publish`` — per-packet queue pushes reintroduce the
                   fan-out tax the block staging exists to kill
                   (DESIGN.md §13).

  simd-confinement Everywhere except the two sanctioned homes
                   (``src/fcm/fcm_kernel_avx2.cpp`` — the only TU built
                   with ``-mavx2`` — and ``src/common/simd_dispatch.h``,
                   which declares its entry points on plain pointers):
                   no ``<immintrin.h>``-family includes, no ``_mm*_``
                   intrinsic calls, no ``__m128``/``__m256``/``__m512``
                   vector types. Vector code that leaks into a baseline-ISA
                   TU either fails to compile on older CPUs or, worse,
                   compiles and SIGILLs at runtime only on machines the CI
                   fleet does not have (DESIGN.md §14).

  unused-suppression
                   Every ``// fcm-lint: allow(<rule>)`` marker must name a
                   known rule that actually fires on its line; stale or
                   misspelled suppressions are findings themselves, so
                   carve-outs cannot outlive the code they excused.

Suppression: append ``// fcm-lint: allow(<rule>)`` (or
``allow(<rule-a>, <rule-b>)``) to the offending line.

Self-test: ``tools/fcm_lint.py --self-test`` lints the deliberately-broken
corpus under ``tests/lint/`` and fails on any missed or spurious finding.
Corpus files declare their pretend location with ``// fcm-lint-path:
src/...`` (which drives the per-directory rule gating) and mark each
expected finding with ``// fcm-lint-expect: <rule>`` on the offending line
(``// fcm-lint-expect-ast: <rule>`` for AST-engine-only findings). The
corpus is excluded from normal lint walks.

Usage:  tools/fcm_lint.py [--engine=auto|ast|regex] [--self-test] [paths...]
        (default paths: src tests bench examples)
Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import glob as globmod
import re
import sys
from dataclasses import dataclass
from pathlib import Path

HEADER_SUFFIXES = {".h", ".hpp", ".hh"}
SOURCE_SUFFIXES = HEADER_SUFFIXES | {".cc", ".cpp", ".cxx"}

KNOWN_RULES = {
    "narrowing-cast",
    "rand-seeding",
    "pragma-once",
    "register-access",
    "thread-join",
    "raw-atomic",
    "atomic-order",
    "acquire-release-pair",
    "guarded-field",
    "hot-path-lock",
    "hot-path-alloc",
    "wire-encoding",
    "datapath-bounds",
    "staging-ownership",
    "simd-confinement",
}

# Rule: narrowing-cast — only inside these top-level directories.
NARROWING_DIRS = ("src/fcm", "src/pisa", "src/runtime")
NARROWING_RE = re.compile(r"static_cast<\s*(?:std::)?u?int(?:8|16|32)_t\s*>")

RAND_RE = re.compile(r"(?<![\w:])(?:std::)?(?:rand|srand|srandom|random)\s*\(")
TIME_SEED_RE = re.compile(
    r"(?<![\w:])(?:std::)?time\s*\(\s*(?:0|NULL|nullptr)\s*\)"
)

CELLS_INDEX_RE = re.compile(r"\.cells\s*\[")

# Rule: thread-join — only inside src/ (tests/benches may query
# std::thread::hardware_concurrency or build scratch threads). Matches the
# exact token std::thread; std::jthread and std::this_thread do not match.
THREAD_DIRS = ("src",)
THREAD_RE = re.compile(r"(?<![\w:])std::thread\b(?!::)")

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$", re.MULTILINE)

# Rule: raw-atomic — src/ only, with the two sanctioned homes exempt.
ATOMIC_DIRS = ("src",)
ATOMIC_EXEMPT_DIRS = ("src/common", "src/obs")
ATOMIC_RE = re.compile(r"(?<![\w:])std::atomic\b")

# Rules: atomic-order / acquire-release-pair — the directories where raw
# atomics legitimately live (the exempt homes plus the runtime's sanctioned
# stop flag).
ATOMIC_ORDER_DIRS = ("src/common", "src/obs", "src/runtime")
ATOMIC_OP_RE = re.compile(
    r"(\w+)\s*\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and"
    r"|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)
MEMORY_ORDER_ARG_RE = re.compile(r"memory_order_(\w+)")

# Rule: wire-encoding — src/agg only. The wire format is explicit
# little-endian, one byte at a time: written through WireWriter and read
# through common::ByteCursor (DESIGN.md §11); memcpy'ing or
# reinterpret_cast'ing counter memory onto the wire silently bakes host
# endianness, struct padding, and type-punning UB into frames that must
# round-trip bit-exactly across machines.
WIRE_DIRS = ("src/agg",)
WIRE_RE = re.compile(
    r"(?<![\w:])(?:std::)?memcpy\s*\(|(?<![\w:])reinterpret_cast\s*<"
)

# Rule: datapath-bounds — src/datapath only. Capture parsing is the one
# place where attacker-controlled lengths meet raw buffers; every access
# must go through ByteCursor's checked reads (src/common/byte_cursor.h, the
# one place a fixed-width view is cut).
DATAPATH_DIRS = ("src/datapath",)
DATAPATH_RE = re.compile(
    r"(?<![\w:])reinterpret_cast\s*<"
    r"|(?<![\w:])(?:std::)?mem(?:cpy|move|set)\s*\("
    r"|\.\s*data\s*\(\s*\)\s*(?:\+|\[)"
)
# Fixed-extent spans: `.first<N>(`, `.last<N>(`, `.subspan<O, N>(` (with or
# without `template`) and `std::span<T, N>`. A FixedBytes<N> view is the only
# fixed-width window onto capture bytes, and ByteCursor::take/peek the only
# place one is cut, after a bounds check.
DATAPATH_FIXED_SPAN_RE = re.compile(
    r"\.\s*(?:template\s+)?(?:first|last|subspan)\s*<[^<>;()]*>\s*\("
    r"|(?<![\w:])(?:std::)?span\s*<[^<>;]*,[^<>;]*>"
)

# Rules: guarded-field / hot-path-* — src/ only.
GUARDED_DIRS = ("src",)
HOTPATH_DIRS = ("src",)
HOTPATH_FN_NAMES = {
    "add_batch",
    "process_batch",
    "index_block",
    "apply_block",
    "ingest",
    "ingest_keys",
    "ingest_packets",
    "open_block",
    "publish_block",
    "stage_unit",
    "stage_pair",
    "stage_demotion",
    "offer_cached",
}
HOTPATH_ALLOC_RE = re.compile(r"(?<![\w:])new\b|\bmake_unique\b|std::vector\s*<")
HOTPATH_LOCK_RE = re.compile(
    r"\b(?:MutexLock|lock_guard|unique_lock|scoped_lock)\b|\.\s*lock\s*\("
)

# Rule: staging-ownership — src/runtime only. The block-staged ingest path
# (DESIGN.md §13) keeps the driver's staging state (open blocks, staging
# buffers, round-robin cursors) as plain unsynchronized members whose
# safety contract is "only the driver thread stages blocks"; that contract
# only holds if the members are FCM_GUARDED_BY the driver role so Clang's
# analysis can see violations. Declaration heuristic: a
# type token, then a staging-style member name, then ;/=/{ — a guarded
# declaration has FCM_GUARDED_BY between the name and the terminator, so
# it never matches. The leading keyword guard keeps `return rr_next_;`
# from parsing as a declaration.
STAGING_DIRS = ("src/runtime",)
STAGING_DECL_RE = re.compile(
    r"^\s*(?!return\b|throw\b|case\b|using\b|delete\b|goto\b|co_return\b)"
    r"[A-Za-z_][\w:]*(?:\s*<[^;{}()=]*>)?[\s*&]+"
    r"(\w*staging\w*_|rr_\w+_|open_|pending_block\w*_)\s*[;={]"
)
# Span-ingest bodies must hand off whole blocks; per-item queue pushes are
# the fan-out tax the staging layer exists to remove.
STAGING_PUSH_RE = re.compile(r"\.\s*try_push(?:_bulk)?\s*\(")
STAGING_INGEST_FN_NAMES = {
    "ingest",
    "ingest_keys",
    "ingest_packets",
    "stage_unit",
    "stage_pair",
    "stage_demotion",
    "offer_cached",
    "drain_cache",
    "flush_staging",
    "flush",
}

# Rule: simd-confinement — every linted file except the two sanctioned
# homes. The AVX2 kernel TU is the only one compiled with -mavx2; an
# intrinsic (or a vector type, which only exists under the intrinsic
# headers) anywhere else either breaks the build on baseline-ISA targets or
# SIGILLs at runtime on CPUs without the extension. The dispatch header
# stays exempt so its doc comments and the kernel's entry points (declared
# on plain pointers) can name the machinery.
SIMD_EXEMPT_FILES = {
    "src/fcm/fcm_kernel_avx2.cpp",
    "src/common/simd_dispatch.h",
}
SIMD_RE = re.compile(
    r"#\s*include\s*[<\"](?:[\w/]*/)?"
    r"(?:immintrin|x86intrin|x86gprintrin|[a-z0-9]*mmintrin|avx\w*intrin)"
    r"\.h[>\"]"
    r"|(?<![\w:])_mm(?:256|512)?_\w+"
    r"|(?<![\w:])__m(?:64|128|256|512)[di]?\b"
)

# Tokens that mark a function as visibly holding/entering a capability.
CAPABILITY_TOKEN_RE = re.compile(
    r"\b(?:MutexLock|lock_guard|unique_lock|scoped_lock|assert_held"
    r"|assume_producer|assume_consumer|FCM_REQUIRES(?:_SHARED)?"
    r"|FCM_ASSERT_CAPABILITY|FCM_ACQUIRE|FCM_NO_THREAD_SAFETY_ANALYSIS)\b"
)

GUARDED_DECL_RE = re.compile(r"\b(\w+)\s+FCM_GUARDED_BY\s*\(")
# Identifiers GUARDED_DECL_RE can capture that are not member names (the
# macro's own #define in thread_annotations.h).
GUARDED_DECL_IGNORE = {"define"}

REQUIRES_RE = re.compile(r"\bFCM_REQUIRES(?:_SHARED)?\s*\(")

ALLOW_RE = re.compile(r"//\s*fcm-lint:\s*allow\(([a-z\-,\s]+)\)")

FN_CANDIDATE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
FN_SKIP_KEYWORDS = {
    "alignas",
    "alignof",
    "assert",
    "case",
    "catch",
    "co_await",
    "co_return",
    "co_yield",
    "decltype",
    "defined",
    "delete",
    "do",
    "else",
    "for",
    "if",
    "new",
    "noexcept",
    "requires",
    "return",
    "sizeof",
    "static_assert",
    "switch",
    "throw",
    "while",
}

# contracts.h implements checked_narrow itself; its internal static_cast is
# the sanctioned primitive.
EXEMPT_FILES = {"src/common/contracts.h"}

# The self-test corpus is deliberately broken; keep it out of normal walks.
CORPUS_DIR = "tests/lint"


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allows_on(raw_line: str) -> list[str]:
    """All rule names suppressed by fcm-lint allow markers on this line."""
    rules: list[str] = []
    for match in ALLOW_RE.finditer(raw_line):
        for name in match.group(1).split(","):
            name = name.strip()
            if name:
                rules.append(name)
    return rules


def strip_comments_keep_lines(text: str) -> str:
    """Blank out // and /* */ comment bodies so rules don't fire on prose,
    while preserving line numbering and the fcm-lint allow markers."""
    out = []
    i = 0
    n = len(text)
    in_block = False
    in_line = False
    in_string: str | None = None
    while i < n:
        c = text[i]
        if in_block:
            if c == "\n":
                out.append("\n")
            elif text.startswith("*/", i):
                in_block = False
                out.append("  ")
                i += 2
                continue
            else:
                out.append(" ")
            i += 1
            continue
        if in_line:
            if c == "\n":
                in_line = False
                out.append("\n")
            else:
                out.append(" ")  # allow markers are matched on the raw line
            i += 1
            continue
        if in_string:
            out.append(c)
            if c == "\\":
                if i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
            elif c == in_string:
                in_string = None
            i += 1
            continue
        if text.startswith("/*", i):
            in_block = True
            out.append("  ")
            i += 2
            continue
        if text.startswith("//", i):
            in_line = True
            out.append("//")
            i += 2
            continue
        if c in "\"'":
            in_string = c
        out.append(c)
        i += 1
    return "".join(out)


def blank_strings(text: str) -> str:
    """Blank string/char literal bodies (post comment-strip) so brace/paren
    balancing and identifier scans can't be confused by quoted code."""
    out = []
    i = 0
    n = len(text)
    quote: str | None = None
    while i < n:
        c = text[i]
        if quote:
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                quote = None
                out.append(c)
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if c in "\"'":
            quote = c
        out.append(c)
        i += 1
    return "".join(out)


def _skip_balanced(text: str, i: int, open_ch: str, close_ch: str) -> int:
    """i points just past an opening delimiter; return index just past its
    match (or len(text) when unbalanced)."""
    depth = 1
    n = len(text)
    while i < n and depth:
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
        i += 1
    return i


@dataclass
class FnDef:
    name: str
    start: int       # offset of the name token
    param_end: int   # offset just past the parameter list's ')'
    body_open: int   # offset of the body '{'
    body_end: int    # offset just past the matching '}'
    line: int        # 1-based line of the name token


def function_definitions(text: str) -> list[FnDef]:
    """Enumerate function definitions: an identifier + balanced parameter
    list followed by '{' before any ';' (specifier parens like noexcept(...)
    or attribute macros are skipped). Heuristic, but the repo's style keeps
    it reliable; run on comment-stripped, string-blanked text."""
    defs: list[FnDef] = []
    n = len(text)
    for m in FN_CANDIDATE_RE.finditer(text):
        name = m.group(1)
        if name in FN_SKIP_KEYWORDS:
            continue
        param_end = _skip_balanced(text, m.end(), "(", ")")
        j = param_end
        body_open = -1
        while j < n:
            c = text[j]
            if c == "{":
                body_open = j
                break
            if c in ";)}":
                # ';' = declaration/statement; a stray ')' or '}' means the
                # candidate was a call inside an enclosing expression (e.g.
                # `while (q.size() > cap) {`), not a definition header.
                break
            if c == "(":
                j = _skip_balanced(text, j + 1, "(", ")")
                continue
            j += 1
        if body_open < 0:
            continue
        body_end = _skip_balanced(text, body_open + 1, "{", "}")
        defs.append(
            FnDef(
                name,
                m.start(),
                param_end,
                body_open,
                body_end,
                text.count("\n", 0, m.start()) + 1,
            )
        )
    return defs


def functions_with_requires(text: str) -> set[str]:
    """Names of functions whose declaration carries FCM_REQUIRES[_SHARED]
    (searched backwards from the attribute over specifier tokens to the
    parameter list, then to the identifier before it)."""
    names: set[str] = set()
    for m in REQUIRES_RE.finditer(text):
        i = m.start() - 1
        while True:
            while i >= 0 and text[i] in " \t\n\r":
                i -= 1
            j = i
            while j >= 0 and (text[j].isalnum() or text[j] == "_"):
                j -= 1
            word = text[j + 1 : i + 1]
            if word in ("const", "noexcept", "override", "final", "mutable"):
                i = j
                continue
            break
        if i < 0 or text[i] != ")":
            continue
        depth = 1
        i -= 1
        while i >= 0 and depth:
            if text[i] == ")":
                depth += 1
            elif text[i] == "(":
                depth -= 1
            i -= 1
        while i >= 0 and text[i] in " \t\n\r":
            i -= 1
        j = i
        while j >= 0 and (text[j].isalnum() or text[j] == "_"):
            j -= 1
        name = text[j + 1 : i + 1]
        if name:
            names.add(name)
    return names


def guarded_members(text: str) -> set[str]:
    """Member names declared with FCM_GUARDED_BY(...)."""
    members: set[str] = set()
    for m in GUARDED_DECL_RE.finditer(text):
        name = m.group(1)
        if name not in GUARDED_DECL_IGNORE:
            members.add(name)
    return members


@dataclass
class AtomicOp:
    receiver: str
    op: str
    orders: list[str]  # memory_order_<X> names in the argument list
    line: int


def scan_atomic_ops(text: str) -> list[AtomicOp]:
    ops: list[AtomicOp] = []
    for m in ATOMIC_OP_RE.finditer(text):
        arg_end = _skip_balanced(text, m.end(), "(", ")")
        args = text[m.end() : arg_end - 1]
        ops.append(
            AtomicOp(
                m.group(1),
                m.group(2),
                MEMORY_ORDER_ARG_RE.findall(args),
                text.count("\n", 0, m.start()) + 1,
            )
        )
    return ops


class AstOracle:
    """libclang refinement layer. Every query fails open: a file that can't
    be parsed (or a binding surface that misbehaves) degrades that file to
    pure regex behavior rather than dropping findings."""

    ATOMIC_METHODS = {
        "load",
        "store",
        "exchange",
        "fetch_add",
        "fetch_sub",
        "fetch_and",
        "fetch_or",
        "fetch_xor",
        "compare_exchange_weak",
        "compare_exchange_strong",
    }
    IMPLICIT_OPERATORS = {"operator=", "operator++", "operator--"}

    def __init__(self, cindex, repo_root: Path):
        self.cindex = cindex
        self.repo_root = repo_root
        self.index = cindex.Index.create()
        self._cache: dict[str, object] = {}

    @staticmethod
    def try_create(repo_root: Path) -> "AstOracle | None":
        try:
            from clang import cindex
        except ImportError:
            return None
        try:
            return AstOracle(cindex, repo_root)
        except Exception:
            pass
        # The python bindings are installed but libclang.so was not found on
        # the default path; probe the usual Linux install locations.
        for pattern in (
            "/usr/lib/llvm-*/lib/libclang.so*",
            "/usr/lib/llvm-*/lib/libclang-*.so*",
            "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
            "/usr/lib/*/libclang.so*",
        ):
            for candidate in sorted(globmod.glob(pattern), reverse=True):
                try:
                    cindex.Config.set_library_file(candidate)
                    return AstOracle(cindex, repo_root)
                except Exception:
                    continue
        return None

    def _translation_unit(self, path: Path):
        key = str(path)
        if key in self._cache:
            return self._cache[key]
        tu = None
        try:
            args = ["-x", "c++", "-std=c++20", "-I", str(self.repo_root / "src")]
            candidate = self.index.parse(str(path), args=args)
            fatal = any(
                d.severity >= self.cindex.Diagnostic.Fatal
                for d in candidate.diagnostics
            )
            if not fatal:
                tu = candidate
        except Exception:
            tu = None
        self._cache[key] = tu
        return tu

    def _own_cursors(self, path: Path):
        tu = self._translation_unit(path)
        if tu is None:
            return None
        target = str(path)
        for cursor in tu.cursor.walk_preorder():
            loc = cursor.location
            if loc.file is not None and loc.file.name == target:
                yield cursor

    def atomic_op_lines(self, path: Path) -> set[int] | None:
        """Lines covered by a member call on a std::atomic receiver (full
        extents, so multi-line calls are covered). None = could not parse;
        callers must fail open and keep their regex facts."""
        cursors = self._own_cursors(path)
        if cursors is None:
            return None
        lines: set[int] = set()
        try:
            for cursor in cursors:
                if cursor.kind != self.cindex.CursorKind.CXX_MEMBER_CALL_EXPR:
                    continue
                if cursor.spelling not in self.ATOMIC_METHODS:
                    continue
                children = list(cursor.get_children())
                if not children:
                    continue
                base = children[0]
                spelling = base.type.spelling
                canonical = base.type.get_canonical().spelling
                if "atomic" in spelling or "atomic" in canonical:
                    for line in range(
                        cursor.extent.start.line, cursor.extent.end.line + 1
                    ):
                        lines.add(line)
        except Exception:
            return None
        return lines

    # Canonical spelling of a std::span with a numeric extent; the dynamic
    # extent is size_t(-1).
    FIXED_SPAN_TYPE_RE = re.compile(r"\bspan<.*,\s*(\d+)[uUlL]*\s*>")
    DYNAMIC_EXTENT = 2**64 - 1

    def fixed_extent_span_lines(self, path: Path) -> set[int]:
        """Lines that declare or construct a std::span of static extent,
        including spellings regex cannot see (`auto`, class template argument
        deduction). Mere uses of such a span are not reported: the line that
        made it already is. Empty on failure: the regex facts stand."""
        cursors = self._own_cursors(path)
        if cursors is None:
            return set()
        kinds = {
            self.cindex.CursorKind.VAR_DECL,
            self.cindex.CursorKind.PARM_DECL,
            self.cindex.CursorKind.FIELD_DECL,
            self.cindex.CursorKind.CALL_EXPR,
        }
        lines: set[int] = set()
        try:
            for cursor in cursors:
                if cursor.kind not in kinds:
                    continue
                spelling = cursor.type.get_canonical().spelling
                m = self.FIXED_SPAN_TYPE_RE.search(spelling)
                if m and int(m.group(1)) != self.DYNAMIC_EXTENT:
                    lines.add(cursor.location.line)
        except Exception:
            return set()
        return lines

    def implicit_seqcst_sites(self, path: Path) -> list[tuple[int, str]]:
        """(line, operator) pairs for atomic operator=/++/-- uses — the
        seq-cst-by-default spellings regex cannot see. [] on failure."""
        cursors = self._own_cursors(path)
        if cursors is None:
            return []
        sites: list[tuple[int, str]] = []
        try:
            for cursor in cursors:
                if cursor.kind != self.cindex.CursorKind.CXX_OPERATOR_CALL_EXPR:
                    continue
                ref = cursor.referenced
                if ref is None or ref.spelling not in self.IMPLICIT_OPERATORS:
                    continue
                parent = ref.semantic_parent
                if parent is not None and parent.spelling == "atomic":
                    sites.append((cursor.location.line, ref.spelling))
        except Exception:
            return []
        return sites


def _sibling_header_text(path: Path) -> str | None:
    if path.suffix in HEADER_SUFFIXES:
        return None
    for suffix in sorted(HEADER_SUFFIXES):
        sibling = path.with_suffix(suffix)
        if sibling.is_file():
            return strip_comments_keep_lines(
                sibling.read_text(encoding="utf-8", errors="replace")
            )
    return None


def lint_file(
    path: Path,
    repo_root: Path,
    rel: str | None = None,
    oracle: AstOracle | None = None,
) -> list[Finding]:
    rel = rel or path.relative_to(repo_root).as_posix()
    if rel in EXEMPT_FILES:
        return []
    raw = path.read_text(encoding="utf-8", errors="replace")
    text = strip_comments_keep_lines(raw)
    scan = blank_strings(text)
    raw_lines = raw.splitlines()
    findings: list[Finding] = []
    used_suppressions: set[tuple[int, str]] = set()

    def add(lineno: int, rule: str, message: str) -> None:
        raw_line = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        if rule in allows_on(raw_line):
            used_suppressions.add((lineno, rule))
            return
        findings.append(Finding(path, lineno, rule, message))

    def in_dirs(dirs: tuple[str, ...]) -> bool:
        return any(rel.startswith(d + "/") for d in dirs)

    if path.suffix in HEADER_SUFFIXES and not PRAGMA_ONCE_RE.search(raw):
        add(1, "pragma-once", "header is missing '#pragma once'")

    check_narrowing = in_dirs(NARROWING_DIRS)
    check_threads = in_dirs(THREAD_DIRS)
    check_atomics = in_dirs(ATOMIC_DIRS) and not in_dirs(ATOMIC_EXEMPT_DIRS)
    check_wire = in_dirs(WIRE_DIRS)
    check_datapath = in_dirs(DATAPATH_DIRS)
    raw_access_lines: set[int] = set()
    fixed_span_lines: set[int] = set()
    check_staging = in_dirs(STAGING_DIRS)
    check_simd = rel not in SIMD_EXEMPT_FILES

    for lineno, line in enumerate(text.splitlines(), start=1):
        if check_narrowing and NARROWING_RE.search(line):
            add(
                lineno,
                "narrowing-cast",
                "bare narrowing static_cast on a counter type; use "
                "fcm::common::checked_narrow<T>() "
                "(or '// fcm-lint: allow(narrowing-cast)')",
            )
        if RAND_RE.search(line) or TIME_SEED_RE.search(line):
            add(
                lineno,
                "rand-seeding",
                "non-deterministic randomness; use "
                "fcm::common::Xoshiro256 with an explicit seed",
            )
        if CELLS_INDEX_RE.search(line):
            add(
                lineno,
                "register-access",
                "direct RegisterArray cell indexing; use the "
                "bounds-checked .at(...) accessor",
            )
        if check_atomics and ATOMIC_RE.search(line):
            add(
                lineno,
                "raw-atomic",
                "raw std::atomic outside src/common/ and src/obs/; "
                "route telemetry through obs::MetricsRegistry, or "
                "justify control state with "
                "'// fcm-lint: allow(raw-atomic)'",
            )
        if check_wire and WIRE_RE.search(line):
            add(
                lineno,
                "wire-encoding",
                "memcpy/reinterpret_cast in the wire codec; frames must be "
                "encoded byte-at-a-time through WireWriter and decoded "
                "through ByteCursor "
                "(explicit little-endian, no struct dumps) "
                "(or '// fcm-lint: allow(wire-encoding)')",
            )
        if check_datapath and DATAPATH_RE.search(line):
            raw_access_lines.add(lineno)
            add(
                lineno,
                "datapath-bounds",
                "raw byte access in the capture datapath "
                "(reinterpret_cast / mem* / pointer arithmetic off .data()); "
                "hostile captures control every length field — go through "
                "the bounds-checked ByteCursor (common/byte_cursor.h) "
                "(or '// fcm-lint: allow(datapath-bounds)')",
            )
        elif check_datapath and DATAPATH_FIXED_SPAN_RE.search(line):
            fixed_span_lines.add(lineno)
        if (
            check_staging
            and "FCM_GUARDED_BY" not in line
            and STAGING_DECL_RE.search(line)
        ):
            add(
                lineno,
                "staging-ownership",
                "driver staging state declared without "
                "FCM_GUARDED_BY(<driver role>); the single-driver "
                "ownership contract must be visible to thread-safety "
                "analysis (DESIGN.md §13) "
                "(or '// fcm-lint: allow(staging-ownership)')",
            )
        if check_simd and SIMD_RE.search(line):
            add(
                lineno,
                "simd-confinement",
                "SIMD intrinsics / vector types outside the sanctioned "
                "kernel TU; hand-written vector code lives only in "
                "src/fcm/fcm_kernel_avx2.cpp behind the simd_dispatch.h "
                "entry points (DESIGN.md §14) "
                "(or '// fcm-lint: allow(simd-confinement)')",
            )
        if check_threads and THREAD_RE.search(line):
            add(
                lineno,
                "thread-join",
                "plain std::thread in src/; a joinable std::thread "
                "destructor calls std::terminate — use std::jthread "
                "(joins on destruction) "
                "(or '// fcm-lint: allow(thread-join)')",
            )

    # --- datapath-bounds: fixed-extent spans ----------------------------------
    if check_datapath:
        if oracle is not None:
            fixed_span_lines |= oracle.fixed_extent_span_lines(path)
        for lineno in sorted(fixed_span_lines - raw_access_lines):
            add(
                lineno,
                "datapath-bounds",
                "fixed-extent span in the capture datapath; a fixed-width "
                "view of capture bytes comes only from ByteCursor::take<N>()"
                "/peek<N>() (one bounds check, then FixedBytes<N> fields at "
                "compile-time offsets) "
                "(or '// fcm-lint: allow(datapath-bounds)')",
            )

    # --- atomic-order / acquire-release-pair --------------------------------
    if in_dirs(ATOMIC_ORDER_DIRS):
        ops = scan_atomic_ops(scan)
        if oracle is not None:
            atomic_lines = oracle.atomic_op_lines(path)
            if atomic_lines is not None:
                ops = [op for op in ops if op.line in atomic_lines]
        for op in ops:
            if not op.orders:
                add(
                    op.line,
                    "atomic-order",
                    f"atomic {op.op}() on '{op.receiver}' without an explicit "
                    "std::memory_order; seq-cst-by-default hides the intended "
                    "protocol — name the order "
                    "(or '// fcm-lint: allow(atomic-order)')",
                )
        if oracle is not None:
            for lineno, operator in oracle.implicit_seqcst_sites(path):
                add(
                    lineno,
                    "atomic-order",
                    f"implicit seq-cst atomic access through {operator}; "
                    "use load()/store()/fetch_*() with an explicit "
                    "std::memory_order "
                    "(or '// fcm-lint: allow(atomic-order)')",
                )
        by_receiver: dict[str, list[AtomicOp]] = {}
        for op in ops:
            by_receiver.setdefault(op.receiver, []).append(op)
        for receiver, receiver_ops in sorted(by_receiver.items()):
            loads = [o for o in receiver_ops if o.op == "load"]
            stores = [o for o in receiver_ops if o.op == "store"]
            acquire_loads = [
                o
                for o in loads
                if any(x in ("acquire", "seq_cst", "acq_rel") for x in o.orders)
            ]
            releasing_stores = [
                o
                for o in stores
                if any(x in ("release", "seq_cst", "acq_rel") for x in o.orders)
            ]
            if acquire_loads and stores:
                for o in stores:
                    if o.orders and all(x == "relaxed" for x in o.orders):
                        add(
                            o.line,
                            "acquire-release-pair",
                            f"store(memory_order_relaxed) on '{receiver}', "
                            "which is acquire-loaded elsewhere in this file; "
                            "a relaxed store publishes nothing — pair release "
                            "stores with acquire loads "
                            "(or '// fcm-lint: allow(acquire-release-pair)')",
                        )
                if not releasing_stores:
                    for o in acquire_loads:
                        add(
                            o.line,
                            "acquire-release-pair",
                            f"load(memory_order_acquire) on '{receiver}' but "
                            "every store of it in this file is relaxed; the "
                            "acquire has no release to synchronize with "
                            "(or '// fcm-lint: allow(acquire-release-pair)')",
                        )

    # --- function-body rules ------------------------------------------------
    need_guarded = in_dirs(GUARDED_DIRS)
    need_hotpath = in_dirs(HOTPATH_DIRS)
    if need_guarded or need_hotpath or check_staging:
        defs = function_definitions(scan)
        members = guarded_members(scan)
        requires_fns = functions_with_requires(scan)
        sibling = _sibling_header_text(path)
        if sibling is not None:
            sibling_scan = blank_strings(sibling)
            members |= guarded_members(sibling_scan)
            requires_fns |= functions_with_requires(sibling_scan)

        if need_guarded and members:
            reported: set[tuple[int, str]] = set()
            for fn in defs:
                body = scan[fn.body_open : fn.body_end]
                signature = scan[fn.start : fn.body_open]
                if (
                    fn.name in requires_fns
                    or CAPABILITY_TOKEN_RE.search(body)
                    or CAPABILITY_TOKEN_RE.search(signature)
                ):
                    continue
                for member in sorted(members):
                    m = re.search(rf"\b{re.escape(member)}\b", body)
                    if not m:
                        continue
                    lineno = fn.line + scan.count(
                        "\n", fn.body_open, fn.body_open + m.start()
                    ) + scan.count("\n", fn.start, fn.body_open)
                    key = (lineno, member)
                    if key in reported:
                        continue
                    reported.add(key)
                    add(
                        lineno,
                        "guarded-field",
                        f"'{member}' is FCM_GUARDED_BY-annotated but "
                        f"'{fn.name}' neither holds a visible lock/role nor "
                        "is declared FCM_REQUIRES; take the capability or "
                        "annotate the function "
                        "(or '// fcm-lint: allow(guarded-field)')",
                    )

        if need_hotpath:
            for fn in defs:
                if fn.name not in HOTPATH_FN_NAMES:
                    continue
                body = scan[fn.body_open : fn.body_end]
                base_line = fn.line + scan.count("\n", fn.start, fn.body_open)
                for alloc in HOTPATH_ALLOC_RE.finditer(body):
                    lineno = base_line + body.count("\n", 0, alloc.start())
                    add(
                        lineno,
                        "hot-path-alloc",
                        f"heap allocation inside hot-path function "
                        f"'{fn.name}'; stage through fixed-size stack "
                        "buffers (common::kBatchBlock, DESIGN.md §9) "
                        "(or '// fcm-lint: allow(hot-path-alloc)')",
                    )
                for lock in HOTPATH_LOCK_RE.finditer(body):
                    lineno = base_line + body.count("\n", 0, lock.start())
                    add(
                        lineno,
                        "hot-path-lock",
                        f"lock acquisition inside hot-path function "
                        f"'{fn.name}'; one blocking mutex in the per-packet "
                        "loop serializes every shard — move synchronization "
                        "to an epoch boundary "
                        "(or '// fcm-lint: allow(hot-path-lock)')",
                    )

        if check_staging:
            for fn in defs:
                if fn.name not in STAGING_INGEST_FN_NAMES:
                    continue
                body = scan[fn.body_open : fn.body_end]
                base_line = fn.line + scan.count("\n", fn.start, fn.body_open)
                for push in STAGING_PUSH_RE.finditer(body):
                    lineno = base_line + body.count("\n", 0, push.start())
                    add(
                        lineno,
                        "staging-ownership",
                        f"per-item try_push inside span-ingest function "
                        f"'{fn.name}'; the runtime hand-off is whole blocks "
                        "through BlockQueue::try_open/publish — per-packet "
                        "queue pushes reintroduce the fan-out tax "
                        "(DESIGN.md §13) "
                        "(or '// fcm-lint: allow(staging-ownership)')",
                    )

    # --- unused / unknown suppressions --------------------------------------
    for lineno, raw_line in enumerate(raw_lines, start=1):
        for rule in allows_on(raw_line):
            if rule not in KNOWN_RULES:
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "unused-suppression",
                        f"suppression names unknown rule '{rule}' "
                        f"(known: {', '.join(sorted(KNOWN_RULES))})",
                    )
                )
            elif (lineno, rule) not in used_suppressions:
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "unused-suppression",
                        f"unused suppression: rule '{rule}' did not fire on "
                        "this line — delete the stale allow marker",
                    )
                )

    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def collect_files(paths: list[str], repo_root: Path) -> list[Path]:
    corpus_root = (repo_root / CORPUS_DIR).resolve()
    files: list[Path] = []
    for raw in paths:
        p = (repo_root / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        if p.is_file():
            if p.suffix in SOURCE_SUFFIXES:
                files.append(p)
        elif p.is_dir():
            explicit_corpus = p == corpus_root or corpus_root in p.parents
            for f in sorted(p.rglob("*")):
                if f.suffix not in SOURCE_SUFFIXES:
                    continue
                if not explicit_corpus and corpus_root in f.parents:
                    continue  # deliberately-broken self-test corpus
                files.append(f)
        else:
            print(f"fcm_lint: no such path: {raw}", file=sys.stderr)
            sys.exit(2)
    return files


PRETEND_PATH_RE = re.compile(r"//\s*fcm-lint-path:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*fcm-lint-expect:\s*([a-z\-, ]+)")
EXPECT_AST_RE = re.compile(r"//\s*fcm-lint-expect-ast:\s*([a-z\-, ]+)")


def run_self_test(repo_root: Path, oracle: AstOracle | None) -> int:
    corpus = sorted(
        f
        for f in (repo_root / CORPUS_DIR).rglob("*")
        if f.suffix in SOURCE_SUFFIXES
    )
    if not corpus:
        print(f"fcm_lint: self-test corpus {CORPUS_DIR}/ is empty", file=sys.stderr)
        return 2
    failures = 0
    for f in corpus:
        raw = f.read_text(encoding="utf-8", errors="replace")
        pretend = PRETEND_PATH_RE.search(raw)
        rel = pretend.group(1) if pretend else f.relative_to(repo_root).as_posix()
        expected: set[tuple[int, str]] = set()
        for lineno, line in enumerate(raw.splitlines(), start=1):
            matchers = [EXPECT_RE]
            if oracle is not None:
                matchers.append(EXPECT_AST_RE)
            for matcher in matchers:
                for m in matcher.finditer(line):
                    for rule in m.group(1).split(","):
                        rule = rule.strip()
                        if rule:
                            expected.add((lineno, rule))
        got = {
            (finding.line, finding.rule)
            for finding in lint_file(f, repo_root, rel=rel, oracle=oracle)
        }
        name = f.relative_to(repo_root)
        missed = sorted(expected - got)
        spurious = sorted(got - expected)
        if not missed and not spurious:
            print(f"self-test: {name}: ok ({len(expected)} expected finding(s))")
            continue
        failures += 1
        for line, rule in missed:
            print(f"self-test: {name}:{line}: MISSED expected [{rule}] finding")
        for line, rule in spurious:
            print(f"self-test: {name}:{line}: SPURIOUS [{rule}] finding")
    if failures:
        print(f"fcm_lint: self-test FAILED in {failures} corpus file(s)")
        return 1
    print(f"fcm_lint: self-test passed ({len(corpus)} corpus files)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "bench", "examples"],
        help="files or directories to lint (default: src tests bench examples)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "ast", "regex"),
        default="auto",
        help="auto: libclang when available, else regex; ast: require "
        "libclang; regex: never load libclang",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help=f"lint the {CORPUS_DIR}/ corpus and compare against its "
        "fcm-lint-expect markers",
    )
    args = parser.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    oracle: AstOracle | None = None
    if args.engine in ("auto", "ast"):
        oracle = AstOracle.try_create(repo_root)
        if oracle is None and args.engine == "ast":
            print(
                "fcm_lint: --engine=ast but libclang / python3 clang bindings "
                "are unavailable",
                file=sys.stderr,
            )
            return 2
    engine = "ast" if oracle is not None else "regex"

    if args.self_test:
        print(f"fcm_lint: engine={engine} (self-test)")
        return run_self_test(repo_root, oracle)

    files = collect_files(args.paths, repo_root)
    if not files:
        print("fcm_lint: no C++ sources found", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f, repo_root, oracle=oracle))

    for finding in findings:
        try:
            shown = finding.path.relative_to(repo_root)
        except ValueError:
            shown = finding.path
        print(f"{shown}:{finding.line}: [{finding.rule}] {finding.message}")

    if findings:
        print(
            f"fcm_lint: {len(findings)} finding(s) in {len(files)} file(s) "
            f"[engine={engine}]"
        )
        return 1
    print(f"fcm_lint: clean ({len(files)} files) [engine={engine}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
