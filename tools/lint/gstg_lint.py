#!/usr/bin/env python3
"""gstg-lint: static enforcement of the GS-TG codebase's standing invariants.

The rules encode contracts that otherwise only fail at runtime, on the right
input, under the right sanitizer (see docs/ARCHITECTURE.md, "Static analysis
& lint"):

  R1  no-alloc-in-hot-path     No unconditional heap allocation reachable
                               from a function annotated GSTG_HOT_NOALLOC
                               (common/annotations.h). Capacity-bounded
                               operations on caller-owned scratch
                               (resize/assign/push_back into warmed vectors)
                               are the codebase's amortised-zero idiom and
                               are allowed; allocations inside a `throw`
                               statement are cold-path and allowed.
  R2  unclamped-float-cast     No static_cast to an integer type from a
                               float-ish expression in src/geometry or
                               src/render unless the expression clamps
                               (std::clamp / a clamped_* helper) or the cast
                               lives in the shared helper header
                               geometry/clamped_cast.h. The raw cast is UB
                               outside the target's range and degenerate
                               conics produce exactly such values.
  R3  untyped-throw            No raw `throw std::runtime_error` /
                               `throw std::logic_error` anywhere in src/;
                               client-causable failures throw the layer's
                               typed error (PlyError, DatasetError,
                               BinningError, ResidencyError, TelemetryError,
                               SceneError, FramebufferError, ...). Deriving
                               a typed error FROM std::runtime_error is the
                               approved pattern; std::invalid_argument and
                               friends remain legal for precondition errors.
  R4  unregistered-env-var     Every "GSTG_*" string literal in src/ must be
                               registered in kGstgEnvVars
                               (common/runconfig.h) and documented in
                               docs/CONFIG.md.
  R5  banned-api               No naked mutex .lock()/.unlock() and no
                               rand()/srand() in src/service or the hot TUs
                               (src/render, src/core, common/parallel.h);
                               no std::function in the hot TUs (type-erased
                               calls have no place in render kernels); no
                               resolve_from_env / mode_from_env call and no
                               GSTG_BINNING/PIPELINE/RESIDENCY/TEMPORAL
                               literal in src/render, src/core or
                               src/temporal (the library renders the config
                               it is given; process edges resolve the knobs).

Engines:
  * syntax (always available) — a self-contained C++ tokenizer/scanner; the
    reference implementation every environment can run (CI, the dev
    container, pre-commit). No third-party dependencies.
  * clang (used when the libclang Python bindings are importable) — refines
    R2/R3 with real AST type information from the CMake-exported
    compile_commands.json. Any internal failure falls back to the syntax
    engine with a warning: rules always run.

Suppressions (justification is mandatory; an empty one is itself an error):
  // gstg-lint: allow(R1): <why this line is exempt>
  // gstg-lint: boundary(R1): <why R1 traversal stops at the next function>

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

RULES = {
    "R1": "no-alloc-in-hot-path",
    "R2": "unclamped-float-cast",
    "R3": "untyped-throw",
    "R4": "unregistered-env-var",
    "R5": "banned-api",
}

# R2 scope: directories whose float->int casts must clamp.
R2_DIRS = ("src/geometry", "src/render")
# The shared clamped helpers: the one place the raw (pre-clamped) cast lives.
R2_EXEMPT_FILES = ("src/geometry/clamped_cast.h",)

# R5 scopes. Hot TUs additionally ban std::function (type erasure allocates
# and indirect-calls in kernels); the service layer keeps std::function for
# its cache-loader API but must use RAII lock guards like everyone else.
R5_SERVICE_DIRS = ("src/service",)
R5_HOT_DIRS = ("src/render", "src/core")
R5_HOT_FILES = ("src/common/parallel.h",)
# R5 library scope: the mode knobs are resolved once at the process edge
# (examples, RenderService), never in the middle of a render.
R5_LIBRARY_DIRS = ("src/render", "src/core", "src/temporal")
R5_MODE_KNOBS = frozenset(("GSTG_BINNING", "GSTG_PIPELINE", "GSTG_RESIDENCY", "GSTG_TEMPORAL"))

CPP_KEYWORDS = frozenset(
    """alignas alignof asm auto bool break case catch char class co_await co_return co_yield
    const consteval constexpr constinit const_cast continue decltype default delete do double
    dynamic_cast else enum explicit export extern false float for friend goto if inline int long
    mutable namespace new noexcept nullptr operator private protected public register
    reinterpret_cast requires return short signed sizeof static static_assert static_cast struct
    switch template this thread_local throw true try typedef typeid typename union unsigned using
    virtual void volatile wchar_t while""".split()
)

OWNING_CONTAINERS = (
    "vector string wstring u8string u16string u32string basic_string deque list forward_list map "
    "set multimap multiset unordered_map unordered_set unordered_multimap unordered_multiset "
    "stringstream ostringstream istringstream function any"
).split()

INT_TARGET_RE = re.compile(
    r"\b(?:int|short|long|char|unsigned|signed|size_t|ptrdiff_t|streamsize|"
    r"u?int(?:8|16|32|64)(?:_t)?|u?int_fast(?:8|16|32|64)_t)\b"
)
FLOAT_TARGET_RE = re.compile(r"\b(?:float|double)\b")
FLOAT_LITERAL_RE = re.compile(r"(?<![\w.])(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?f?\b")
FLOAT_CALL_RE = re.compile(
    r"\b(?:std::)?(?:floor|ceil|round|trunc|rint|nearbyint|sqrt|exp|exp2|expm1|log|log2|log10|"
    r"pow|fabs|fmod|hypot|sin|cos|tan|atan2?)\s*\("
)
CLAMP_IN_EXPR_RE = re.compile(r"\b(?:std::)?clamp\b|\bclamped_\w+\s*\(")

SUPPRESS_RE = re.compile(
    r"gstg-lint:\s*(allow|boundary)\s*\(\s*([A-Z0-9,\s]+)\s*\)\s*(?::\s*(.*))?$"
)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def as_dict(self):
        return {
            "rule": self.rule,
            "name": RULES.get(self.rule, self.rule),
            "file": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}/{RULES.get(self.rule, '?')}] {self.message}"


class Suppression:
    __slots__ = ("kind", "rules", "line", "justification", "used")

    def __init__(self, kind, rules, line, justification):
        self.kind = kind  # "allow" | "boundary"
        self.rules = rules
        self.line = line
        self.justification = justification
        self.used = False


class SourceFile:
    """One scanned file: comment/string-blanked text plus extracted facts.

    `clean` has every comment and string/char literal replaced by spaces of
    equal length, so offsets and line numbers match the original exactly and
    downstream regexes cannot match into literals.
    """

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.text = text
        self.clean, self.literals, self.suppressions = _scan(text)
        self.line_starts = _line_starts(text)
        self.functions = []  # populated by extract_functions

    def line_of(self, offset):
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def allow_at(self, rule, line):
        """Returns the matching allow-suppression for (rule, line), if any.

        A suppression comment covers its own line; a comment alone on a line
        covers the following line as well.
        """
        for s in self.suppressions:
            if s.kind != "allow" or rule not in s.rules:
                continue
            if s.line == line or s.line + 1 == line:
                return s
        return None


def _line_starts(text):
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def _scan(text):
    """Single pass splitting code from comments/literals.

    Returns (clean_text, [(offset, literal_content)], [Suppression]).
    Handles //, /* */, "..." (with escapes), '...', and R"delim(...)delim".
    """
    out = list(text)
    literals = []
    suppressions = []
    i, n = 0, len(text)
    line = 1

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            if end == -1:
                end = n
            comment = text[i:end]
            m = SUPPRESS_RE.search(comment.strip())
            if m:
                rules = {r.strip() for r in m.group(2).split(",") if r.strip()}
                suppressions.append(Suppression(m.group(1), rules, line, (m.group(3) or "").strip()))
            blank(i, end)
            i = end
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            start_line = line
            body = text[i:end]
            m = SUPPRESS_RE.search(body.replace("*/", "").strip())
            if m:
                rules = {r.strip() for r in m.group(2).split(",") if r.strip()}
                suppressions.append(
                    Suppression(m.group(1), rules, start_line, (m.group(3) or "").strip())
                )
            line += body.count("\n")
            blank(i, end)
            i = end
            continue
        if ch == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\\s]{0,16})\(', text[i:])
            if m:
                delim = m.group(1)
                close = text.find(")" + delim + '"', i + m.end())
                close = n if close == -1 else close + len(delim) + 2
                literals.append((i, text[i + m.end() : close - len(delim) - 2]))
                line += text.count("\n", i, close)
                blank(i, close)
                i = close
                continue
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j, n - 1)
            if quote == '"':
                literals.append((i, text[i + 1 : j]))
            blank(i, j + 1)
            i = j + 1
            continue
        i += 1
    return "".join(out), literals, suppressions


class FunctionDef:
    __slots__ = ("name", "qual", "file", "line", "params_span", "body_span", "annotated", "boundary")

    def __init__(self, name, qual, file, line, params_span, body_span, annotated, boundary):
        self.name = name
        self.qual = qual
        self.file = file
        self.line = line
        self.params_span = params_span  # (open_paren, close_paren) offsets
        self.body_span = body_span  # (open_brace, close_brace) offsets or None
        self.annotated = annotated
        self.boundary = boundary  # set of rules whose traversal stops here


IDENT_CALL_RE = re.compile(r"\b([A-Za-z_][\w]*(?:\s*::\s*[A-Za-z_][\w]*)*)\s*\(")


def _match_forward(text, start, open_ch, close_ch):
    """Offset just past the balanced close for the open bracket at `start`."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def extract_functions(sf: SourceFile):
    """Finds function definitions and annotated declarations in clean text.

    Heuristic single-pass scanner: a candidate is `name(`, at a position not
    inside an already-recorded function body, whose parameter list is
    followed (modulo const/noexcept/ref-qualifiers, trailing return types
    and ctor init lists) by `{` (definition) or `;` (declaration).
    """
    clean = sf.clean
    n = len(clean)
    covered_end = -1  # byte offset: end of the last recorded body
    boundaries = [s for s in sf.suppressions if s.kind == "boundary"]

    for m in IDENT_CALL_RE.finditer(clean):
        start = m.start()
        if start < covered_end:
            continue  # inside a previous function's body: a call, not a def
        qual = re.sub(r"\s+", "", m.group(1))
        name = qual.split("::")[-1]
        if name in CPP_KEYWORDS:
            continue
        # A member call (`x.fn(`, `p->fn(`) is never a definition.
        k = start - 1
        while k >= 0 and clean[k] in " \t\n":
            k -= 1
        if k >= 0 and (clean[k] == "." or (clean[k] == ">" and k > 0 and clean[k - 1] == "-")):
            continue
        open_paren = m.end() - 1
        close = _match_forward(clean, open_paren, "(", ")")
        # Skim what follows the parameter list.
        i = close
        body_span = None
        is_decl = False
        while i < n:
            while i < n and clean[i] in " \t\n":
                i += 1
            if i >= n:
                break
            c = clean[i]
            if c == "{":
                body_end = _match_forward(clean, i, "{", "}")
                body_span = (i, body_end)
                break
            if c == ";":
                is_decl = True
                break
            rest = clean[i:]
            kw = re.match(r"(const|noexcept|override|final|mutable|&&?|throw)\b", rest)
            if kw:
                i += kw.end()
                if i < n:
                    while i < n and clean[i] in " \t\n":
                        i += 1
                    if i < n and clean[i] == "(" and kw.group(1) in ("noexcept", "throw"):
                        i = _match_forward(clean, i, "(", ")")
                continue
            if rest.startswith("->"):
                # Trailing return type: scan to the `{` or `;` that ends it.
                i += 2
                while i < n and clean[i] not in "{;":
                    if clean[i] == "(":
                        i = _match_forward(clean, i, "(", ")")
                    else:
                        i += 1
                continue
            if c == ":":
                # Constructor initializer list: skip member(...)/{...} groups.
                i += 1
                while i < n and clean[i] != "{":
                    if clean[i] == "(":
                        i = _match_forward(clean, i, "(", ")")
                    elif clean[i] == ";":
                        break
                    else:
                        i += 1
                continue
            break  # anything else: expression context, not a function header
        if body_span is None and not is_decl:
            continue
        # Annotation: look back to the start of this declaration.
        decl_start = max(clean.rfind(";", 0, start), clean.rfind("}", 0, start), clean.rfind("{", 0, start))
        prefix = clean[decl_start + 1 : start]
        annotated = "GSTG_HOT_NOALLOC" in prefix
        line = sf.line_of(start)
        boundary_rules = set()
        for b in boundaries:
            # A boundary comment governs the next function that starts on or
            # after its line (within a small window, so a stray comment can't
            # silently neuter a distant function).
            if b.line <= line <= b.line + 10:
                boundary_rules |= b.rules
                b.used = True
        fn = FunctionDef(
            name, qual, sf, line, (open_paren, close), body_span, annotated, boundary_rules
        )
        sf.functions.append(fn)
        if body_span is not None:
            covered_end = body_span[1]


def _throw_spans(clean):
    """[start, end) spans of throw statements (throw ... ;) — cold paths."""
    spans = []
    for m in re.finditer(r"\bthrow\b", clean):
        i = m.end()
        depth = 0
        n = len(clean)
        while i < n:
            c = clean[i]
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
            elif c == ";" and depth <= 0:
                break
            elif c == "}" and depth <= 0:
                break
            i += 1
        spans.append((m.start(), i))
    return spans


def _in_spans(pos, spans):
    return any(a <= pos < b for a, b in spans)


ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b(?!\s*\[)"), "operator new"),
    (re.compile(r"\bnew\s*\["), "operator new[]"),
    (re.compile(r"\b(?:std::)?(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("), "malloc-family call"),
    (re.compile(r"\b(?:std::)?make_(?:unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string (allocates the result)"),
]
_CONTAINER_ALT = "|".join(OWNING_CONTAINERS)
LOCAL_CONTAINER_RE = re.compile(
    r"(?<![\w:])(?:const\s+)?(?:std\s*::\s*)(" + _CONTAINER_ALT + r")\b"
)


def _local_container_decls(clean, span):
    """Offsets of owning-container object declarations inside `span`.

    Flags `std::vector<T> x;` / `std::string s = ...;` (a fresh owning
    object: unconditional allocation risk) but not references, pointers, or
    nested type mentions (`std::vector<T>& ref`, `std::vector<T>::iterator`).
    """
    hits = []
    a, b = span
    for m in LOCAL_CONTAINER_RE.finditer(clean, a, b):
        i = m.end()
        n = b
        while i < n and clean[i] in " \t\n":
            i += 1
        if i < n and clean[i] == "<":
            depth = 0
            while i < n:
                if clean[i] == "<":
                    depth += 1
                elif clean[i] == ">":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        while i < n and clean[i] in " \t\n":
            i += 1
        if i < n and clean[i] in "&*":
            continue  # reference/pointer: not an owning object
        if clean[i : i + 2] == "::":
            continue  # nested type name, not an object declaration
        ident = re.match(r"[A-Za-z_]\w*", clean[i:n])
        if not ident:
            continue
        j = i + ident.end()
        while j < n and clean[j] in " \t\n":
            j += 1
        if j < n and clean[j] in ";=({":
            hits.append((m.start(), f"local std::{m.group(1)} object '{ident.group(0)}'"))
    return hits


def check_r1(files, findings, fixture_mode):
    # The name-joined call graph deliberately excludes out-of-class member
    # definitions (`X::fn`) unless annotated directly: an unqualified call in
    # a free hot function cannot reach them, and overload-set name collisions
    # (e.g. a member to_string vs the runconfig mode to_string) would
    # otherwise produce phantom edges.
    defs_by_name = {}
    hot_names = set()
    for sf in files:
        for fn in sf.functions:
            if "::" not in fn.qual or fn.annotated:
                defs_by_name.setdefault(fn.name, []).append(fn)
            if fn.annotated:
                hot_names.add(fn.name)

    # BFS over the name-joined call graph from the annotated roots.
    visited = {}
    queue = [(name, name) for name in sorted(hot_names)]
    while queue:
        name, root = queue.pop(0)
        if name in visited:
            continue
        visited[name] = root
        for fn in defs_by_name.get(name, []):
            if "R1" in fn.boundary or fn.body_span is None:
                continue
            a, b = fn.body_span
            body = fn.file.clean[a:b]
            throws = _throw_spans(body)
            for m in IDENT_CALL_RE.finditer(body):
                if _in_spans(m.start(), throws):
                    continue  # calls while throwing are cold-path by definition
                k = m.start() - 1
                while k >= 0 and body[k] in " \t\n":
                    k -= 1
                if k >= 0 and (body[k] == "." or (body[k] == ">" and k > 0 and body[k - 1] == "-")):
                    continue  # member call: outside the name-joined graph
                segments = re.sub(r"\s+", "", m.group(1)).split("::")
                if len(segments) > 1 and (segments[0] == "std" or segments[:2] == ["", "std"]):
                    continue  # a std:: call never joins to a project function
                callee = segments[-1]
                if callee in CPP_KEYWORDS or callee == name:
                    continue
                if callee in defs_by_name and callee not in visited:
                    queue.append((callee, root))

    for name, root in sorted(visited.items()):
        for fn in defs_by_name.get(name, []):
            if fn.body_span is None or "R1" in fn.boundary:
                continue
            sf = fn.file
            a, b = fn.body_span
            throws = _throw_spans(sf.clean[a:b])
            hits = []
            for pat, what in ALLOC_PATTERNS:
                for m in pat.finditer(sf.clean, a, b):
                    hits.append((m.start(), what))
            hits.extend((off, what) for off, what in _local_container_decls(sf.clean, (a, b)))
            via = "" if root == name else f" (reachable from GSTG_HOT_NOALLOC root '{root}')"
            for off, what in sorted(hits):
                if _in_spans(off - a, throws):
                    continue  # allocation while throwing: cold path
                line = sf.line_of(off)
                sup = sf.allow_at("R1", line)
                if sup:
                    sup.used = True
                    if not sup.justification:
                        findings.append(
                            Finding("R1", sf.rel, line, "suppression without justification")
                        )
                    continue
                findings.append(
                    Finding(
                        "R1",
                        sf.rel,
                        line,
                        f"{what} in hot function '{fn.qual}'{via}",
                    )
                )


def _top_level(expr):
    """`expr` with parenthesized subexpressions removed (parens kept).

    `depth_bits(depth) + bias` -> `depth_bits() + bias`: the float argument
    of a nested call does not make the cast source float.
    """
    out = []
    depth = 0
    for c in expr:
        if c == "(":
            if depth == 0:
                out.append(c)
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                out.append(c)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def check_r2(files, findings, fixture_mode):
    for sf in files:
        in_scope = fixture_mode or any(sf.rel.startswith(d) for d in R2_DIRS)
        if not in_scope or sf.rel in R2_EXEMPT_FILES:
            continue
        clean = sf.clean
        for m in re.finditer(r"\bstatic_cast\s*<([^<>]*)>\s*\(", clean):
            target = m.group(1)
            if FLOAT_TARGET_RE.search(target) or not INT_TARGET_RE.search(target):
                continue
            open_paren = m.end() - 1
            close = _match_forward(clean, open_paren, "(", ")")
            expr = clean[open_paren + 1 : close - 1]
            if CLAMP_IN_EXPR_RE.search(expr):
                continue
            # Only the expression's TOP-LEVEL terms decide float-ishness: in
            # `static_cast<u64>(depth_bits(depth))` the float `depth` is an
            # argument of a nested call whose return type is what the cast
            # sees, so nested parenthesized subexpressions are stripped first.
            top = _top_level(expr)
            floatish = bool(FLOAT_LITERAL_RE.search(top)) or bool(FLOAT_CALL_RE.search(top))
            if not floatish:
                # Identifier declared float/double in the enclosing function?
                enclosing = None
                for fn in sf.functions:
                    if fn.body_span and fn.body_span[0] <= m.start() < fn.body_span[1]:
                        enclosing = fn
                        break
                if enclosing:
                    pa, pb = enclosing.params_span
                    scope_text = clean[pa:pb] + clean[enclosing.body_span[0] : m.start()]
                    float_vars = set(
                        d.group(2)
                        for d in re.finditer(r"\b(?:const\s+)?(float|double)[&\s]+(\w+)", scope_text)
                    )
                    idents = set(re.findall(r"[A-Za-z_]\w*", top))
                    floatish = bool(float_vars & idents)
            if not floatish:
                continue
            line = sf.line_of(m.start())
            sup = sf.allow_at("R2", line)
            if sup:
                sup.used = True
                if not sup.justification:
                    findings.append(Finding("R2", sf.rel, line, "suppression without justification"))
                continue
            findings.append(
                Finding(
                    "R2",
                    sf.rel,
                    line,
                    f"unclamped static_cast<{target.strip()}> from a float expression; "
                    "clamp in the expression or use geometry/clamped_cast.h",
                )
            )


def check_r3(files, findings, fixture_mode):
    for sf in files:
        for m in re.finditer(r"\bthrow\s+std\s*::\s*(runtime_error|logic_error)\s*[({]", sf.clean):
            line = sf.line_of(m.start())
            sup = sf.allow_at("R3", line)
            if sup:
                sup.used = True
                if not sup.justification:
                    findings.append(Finding("R3", sf.rel, line, "suppression without justification"))
                continue
            findings.append(
                Finding(
                    "R3",
                    sf.rel,
                    line,
                    f"raw `throw std::{m.group(1)}`; throw the layer's typed error "
                    "(derive it from std::runtime_error, see telemetry/error.h for the pattern)",
                )
            )


def load_env_registry(repo_root):
    path = os.path.join(repo_root, "src", "common", "runconfig.h")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    m = re.search(r"kGstgEnvVars\[\]\s*=\s*\{(.*?)\};", text, re.S)
    if not m:
        return None
    return set(re.findall(r'"(GSTG_[A-Z0-9_]+)"', m.group(1)))


def check_r4(files, findings, repo_root, fixture_mode):
    registry = load_env_registry(repo_root)
    config_md = ""
    try:
        with open(os.path.join(repo_root, "docs", "CONFIG.md"), encoding="utf-8") as f:
            config_md = f.read()
    except OSError:
        pass
    for sf in files:
        if sf.rel.endswith("src/common/runconfig.h") or sf.rel == "src/common/runconfig.h":
            continue  # the registry itself
        for off, content in sf.literals:
            if not re.fullmatch(r"GSTG_[A-Z0-9_]+", content):
                continue
            line = sf.line_of(off)
            sup = sf.allow_at("R4", line)
            if sup:
                sup.used = True
                if not sup.justification:
                    findings.append(Finding("R4", sf.rel, line, "suppression without justification"))
                continue
            if registry is None:
                findings.append(
                    Finding("R4", sf.rel, line, "kGstgEnvVars registry not found in common/runconfig.h")
                )
                continue
            if content not in registry:
                findings.append(
                    Finding(
                        "R4",
                        sf.rel,
                        line,
                        f'"{content}" is not registered in kGstgEnvVars (common/runconfig.h)',
                    )
                )
            elif not re.search(r"\b" + re.escape(content) + r"\b", config_md):
                findings.append(
                    Finding("R4", sf.rel, line, f'"{content}" is not documented in docs/CONFIG.md')
                )


R5_COMMON = [
    (re.compile(r"(?:\.|->)\s*lock\s*\(\s*\)"), "naked mutex lock(); use std::lock_guard/std::scoped_lock"),
    (re.compile(r"(?:\.|->)\s*unlock\s*\(\s*\)"), "naked mutex unlock(); use RAII lock guards"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "rand()/srand(); use common/rng.h"),
]
R5_HOT_ONLY = [
    (re.compile(r"\bstd\s*::\s*function\b"), "std::function in a hot TU (type erasure allocates; use a template parameter)"),
]
R5_LIBRARY_ONLY = [
    (re.compile(r"\b(?:resolve_from_env|mode_from_env)\s*\("),
     "mode-knob resolution inside the library; resolve GSTG_* mode knobs at the process edge"),
]


def check_r5(files, findings, fixture_mode):
    for sf in files:
        service = any(sf.rel.startswith(d) for d in R5_SERVICE_DIRS)
        hot = any(sf.rel.startswith(d) for d in R5_HOT_DIRS) or sf.rel in R5_HOT_FILES
        library = any(sf.rel.startswith(d) for d in R5_LIBRARY_DIRS)
        if fixture_mode:
            service = hot = library = True
        if not (service or hot or library):
            continue
        hits = []
        if service or hot:
            patterns = list(R5_COMMON) + (R5_HOT_ONLY if hot else [])
            hits += [(m.start(), what) for pat, what in patterns for m in pat.finditer(sf.clean)]
        if library:
            hits += [(m.start(), what) for pat, what in R5_LIBRARY_ONLY for m in pat.finditer(sf.clean)]
            hits += [(off, f'"{content}" read inside the library; resolve it at the process edge')
                     for off, content in sf.literals if content in R5_MODE_KNOBS]
        for off, what in hits:
            line = sf.line_of(off)
            sup = sf.allow_at("R5", line)
            if sup:
                sup.used = True
                if not sup.justification:
                    findings.append(Finding("R5", sf.rel, line, "suppression without justification"))
                continue
            findings.append(Finding("R5", sf.rel, line, what))


def collect_files(repo_root, build_dir, explicit_paths):
    """The scan set: explicit paths, or src/ sources + compile_commands TUs."""
    paths = []
    if explicit_paths:
        paths = [os.path.abspath(p) for p in explicit_paths]
    else:
        for ext in ("h", "inl", "cpp", "cc", "cxx"):
            paths.extend(glob.glob(os.path.join(repo_root, "src", "**", f"*.{ext}"), recursive=True))
        if build_dir:
            cc_path = os.path.join(build_dir, "compile_commands.json")
            if os.path.exists(cc_path):
                with open(cc_path, encoding="utf-8") as f:
                    for entry in json.load(f):
                        p = os.path.normpath(
                            os.path.join(entry.get("directory", ""), entry["file"])
                        )
                        src_root = os.path.join(repo_root, "src") + os.sep
                        if p.startswith(src_root):
                            paths.append(p)
            else:
                print(f"gstg-lint: note: no compile_commands.json under {build_dir} "
                      "(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON); scanning src/ globs",
                      file=sys.stderr)
    seen = set()
    files = []
    for p in sorted(paths):
        p = os.path.normpath(p)
        if p in seen or not os.path.isfile(p):
            continue
        seen.add(p)
        rel = os.path.relpath(p, repo_root)
        with open(p, encoding="utf-8", errors="replace") as f:
            sf = SourceFile(p, rel, f.read())
        extract_functions(sf)
        files.append(sf)
    return files


def run_rules(files, rules, repo_root, fixture_mode):
    findings = []
    if "R1" in rules:
        check_r1(files, findings, fixture_mode)
    if "R2" in rules:
        check_r2(files, findings, fixture_mode)
    if "R3" in rules:
        check_r3(files, findings, fixture_mode)
    if "R4" in rules:
        check_r4(files, findings, repo_root, fixture_mode)
    if "R5" in rules:
        check_r5(files, findings, fixture_mode)
    # Unused suppressions are stale annotations: surface them so they cannot
    # rot in place and silently exempt future code.
    if not fixture_mode:
        for sf in files:
            for s in sf.suppressions:
                if s.kind == "allow" and not s.used and s.rules & rules:
                    findings.append(
                        Finding(
                            sorted(s.rules)[0],
                            sf.rel,
                            s.line,
                            "unused gstg-lint suppression (nothing to suppress here — delete it)",
                        )
                    )
    return findings


# --------------------------------------------------------------------------
# Optional libclang refinement. The syntax engine above is the reference
# implementation; when the clang Python bindings are importable the R2/R3
# checks are re-derived from real AST type information (fewer heuristics:
# member accesses with float type, typedef'd integers). Any failure inside
# this path falls back to the syntax results with a warning — rules run
# regardless of the environment.
# --------------------------------------------------------------------------


def try_clang_engine(repo_root, build_dir, files, rules):
    import clang.cindex as ci  # noqa: F401  (ImportError handled by caller)

    cc_path = os.path.join(build_dir or "", "compile_commands.json")
    if not os.path.exists(cc_path):
        raise RuntimeError("clang engine needs compile_commands.json (--build-dir)")
    with open(cc_path, encoding="utf-8") as f:
        entries = json.load(f)

    index = ci.Index.create()
    findings = []
    seen_files = set()
    int_kinds = {
        ci.TypeKind.INT, ci.TypeKind.UINT, ci.TypeKind.LONG, ci.TypeKind.ULONG,
        ci.TypeKind.LONGLONG, ci.TypeKind.ULONGLONG, ci.TypeKind.SHORT, ci.TypeKind.USHORT,
        ci.TypeKind.CHAR_U, ci.TypeKind.CHAR_S, ci.TypeKind.UCHAR, ci.TypeKind.SCHAR,
    }
    float_kinds = {ci.TypeKind.FLOAT, ci.TypeKind.DOUBLE, ci.TypeKind.LONGDOUBLE}
    by_rel = {sf.rel: sf for sf in files}

    def rel_of(location):
        if location.file is None:
            return None
        p = os.path.normpath(str(location.file))
        if not p.startswith(repo_root + os.sep):
            return None
        return os.path.relpath(p, repo_root)

    def visit(cursor):
        rel = rel_of(cursor.location)
        if rel is not None:
            if "R2" in rules and cursor.kind == ci.CursorKind.CXX_STATIC_CAST_EXPR:
                if any(rel.startswith(d) for d in R2_DIRS) and rel not in R2_EXEMPT_FILES:
                    target = cursor.type.get_canonical()
                    kids = list(cursor.get_children())
                    src = kids[-1].type.get_canonical() if kids else None
                    if target.kind in int_kinds and src is not None and src.kind in float_kinds:
                        sf = by_rel.get(rel)
                        line = cursor.location.line
                        ext = cursor.extent
                        text = ""
                        if sf is not None and ext.start.offset is not None:
                            text = sf.text[ext.start.offset : ext.end.offset]
                        if not CLAMP_IN_EXPR_RE.search(text):
                            sup = sf.allow_at("R2", line) if sf else None
                            if sup:
                                sup.used = True
                            else:
                                findings.append(
                                    Finding("R2", rel, line,
                                            f"unclamped static_cast<{cursor.type.spelling}> from "
                                            f"{src.spelling} (clang AST); clamp in the expression "
                                            "or use geometry/clamped_cast.h"))
            if "R3" in rules and cursor.kind == ci.CursorKind.CXX_THROW_EXPR:
                kids = list(cursor.get_children())
                if kids:
                    t = kids[0].type.get_canonical().spelling
                    if t in ("std::runtime_error", "std::logic_error"):
                        sf = by_rel.get(rel)
                        line = cursor.location.line
                        sup = sf.allow_at("R3", line) if sf else None
                        if sup:
                            sup.used = True
                        else:
                            findings.append(
                                Finding("R3", rel, line,
                                        f"raw `throw {t}` (clang AST); throw the layer's typed error"))
            seen_files.add(rel)
        for child in cursor.get_children():
            visit(child)

    for entry in entries:
        path = os.path.normpath(os.path.join(entry.get("directory", ""), entry["file"]))
        if not path.startswith(os.path.join(repo_root, "src") + os.sep):
            continue
        args = entry["arguments"] if "arguments" in entry else entry["command"].split()
        # Drop the compiler argv[0], the input file, and output options.
        filtered = []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", path, entry["file"]):
                continue
            if a == "-o":
                skip = True
                continue
            filtered.append(a)
        tu = index.parse(path, args=filtered)
        fatal = [d for d in tu.diagnostics if d.severity >= ci.Diagnostic.Fatal]
        if fatal:
            raise RuntimeError(f"clang failed to parse {path}: {fatal[0].spelling}")
        visit(tu.cursor)
    return findings, seen_files


def self_test(repo_root, engine):
    fixture_dir = os.path.join(repo_root, "tests", "lint", "fixtures")
    fixture_files = sorted(glob.glob(os.path.join(fixture_dir, "r[0-9]_*.cpp")))
    if not fixture_files:
        print(f"gstg-lint: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    failures = []
    for path in fixture_files:
        base = os.path.basename(path)
        m = re.match(r"(r\d)_.*_(fail|pass)\.cpp$", base)
        if not m:
            failures.append(f"{base}: fixture name must be rN_<desc>_(fail|pass).cpp")
            continue
        rule, expect = m.group(1).upper(), m.group(2)
        files = collect_files(repo_root, None, [path])
        findings = run_rules(files, set(RULES), repo_root, fixture_mode=True)
        rule_hits = [f for f in findings if f.rule == rule]
        if expect == "fail" and not rule_hits:
            failures.append(f"{base}: expected a {rule} finding, got none "
                            f"(other findings: {[f.render() for f in findings]})")
        elif expect == "pass" and findings:
            failures.append(f"{base}: expected clean, got: " +
                            "; ".join(f.render() for f in findings))
        else:
            print(f"  ok {base}: {rule} {expect} "
                  f"({len(rule_hits)} finding(s))" if expect == "fail" else f"  ok {base}: clean")
    if failures:
        print("gstg-lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"gstg-lint self-test passed ({len(fixture_files)} fixtures)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gstg_lint.py", description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", help="explicit files to scan (default: src/ tree)")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--build-dir", default=None,
                        help="build dir holding compile_commands.json (TU list + clang engine)")
    parser.add_argument("--rules", default=",".join(sorted(RULES)),
                        help="comma-separated rule ids to enable (default: all)")
    parser.add_argument("--engine", choices=("auto", "clang", "syntax"), default="auto")
    parser.add_argument("--report", default=None, help="write a JSON report here")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests/lint/fixtures corpus and verify trip/pass expectations")
    parser.add_argument("--fixture-mode", action="store_true",
                        help="treat explicit paths as in-scope for every rule (fixtures)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id]}")
        return 0

    repo_root = os.path.abspath(args.repo_root)
    if args.self_test:
        return self_test(repo_root, args.engine)

    rules = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"gstg-lint: unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    files = collect_files(repo_root, args.build_dir, args.paths)
    findings = run_rules(files, rules, repo_root, args.fixture_mode)
    engine_used = "syntax"

    if args.engine in ("auto", "clang") and not args.paths:
        try:
            clang_findings, clang_files = try_clang_engine(repo_root, args.build_dir, files, rules)
            # AST facts replace the heuristic R2/R3 findings for covered files.
            findings = [
                f for f in findings
                if not (f.rule in ("R2", "R3") and f.path in clang_files)
            ] + clang_findings
            engine_used = "clang+syntax"
        except ImportError:
            if args.engine == "clang":
                print("gstg-lint: clang engine requested but the libclang Python bindings "
                      "are not importable (install python3-clang)", file=sys.stderr)
                return 2
            # auto: the syntax engine result stands.
        except Exception as e:  # fail open to the reference engine
            msg = f"gstg-lint: warning: clang engine failed ({e}); using syntax engine results"
            if args.engine == "clang":
                print(msg.replace("warning", "error"), file=sys.stderr)
                return 2
            print(msg, file=sys.stderr)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render())

    if args.report:
        report = {
            "engine": engine_used,
            "files_scanned": len(files),
            "rules": sorted(rules),
            "findings": [f.as_dict() for f in findings],
        }
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=2)
            out.write("\n")

    if findings:
        print(f"gstg-lint: {len(findings)} finding(s) across {len(files)} files", file=sys.stderr)
        return 1
    print(f"gstg-lint: clean ({len(files)} files, rules {', '.join(sorted(rules))}, "
          f"engine {engine_used})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
