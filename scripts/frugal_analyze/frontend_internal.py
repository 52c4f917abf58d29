"""Dependency-free frontend: a scope-tracking statement parser.

Not a C++ parser — a pragmatic brace/paren/angle machine over the lexed
code stream that recovers exactly the structure the checks need: class
bodies with member declarations, function bodies with guard scopes,
call/alloc sites, and statement-level atomics uses. Where resolution is
ambiguous it records *nothing* (precision over recall): every check
treats "unknown" as "not checkable", so a parse miss can cause a missed
diagnostic but never a false one.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .facts import (AllocSite, AtomicOpSite, BlockingSite, CallSite,
                    ClassFacts, CmpxchgSite, FileFacts, FunctionFacts,
                    GuardNest, Member)
from .lexer import SourceFile, lex

INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')

GUARD_TYPES = (
    "SpinGuard",
    "MutexLock",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
)
LOCK_TYPES = ("Spinlock", "StripedLocks", "Mutex", "std::mutex",
              "std::shared_mutex", "std::recursive_mutex")

GUARD_STMT_RE = re.compile(
    r"^(?:" + "|".join(re.escape(g) for g in GUARD_TYPES) +
    r")(?:\s*<[^>]*>)?\s+\w+\s*[({](.*)[)}]\s*$")

RANK_RE = re.compile(r"LockRank::(k\w+)")
GUARDED_BY_RE = re.compile(r"FRUGAL_GUARDED_BY\s*\(([^)]*)\)")
PT_GUARDED_BY_RE = re.compile(r"FRUGAL_PT_GUARDED_BY\s*\(([^)]*)\)")
RETURN_CAP_RE = re.compile(r"FRUGAL_RETURN_CAPABILITY\s*\(([^)]*)\)")
FRUGAL_MACRO_RE = re.compile(r"\bFRUGAL_[A-Z_]+\s*(\([^()]*\))?")
ALIGNAS_RE = re.compile(r"\balignas\s*\([^)]*\)")
# `[[...]]` attribute specifiers; one with arguments
# (`[[gnu::target("avx2")]]`) would otherwise hold a header's first `(`.
ATTRIBUTE_RE = re.compile(r"\[\[.*?\]\]", re.S)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "try", "return"}
NOT_A_CALL = CONTROL_KEYWORDS | {
    "sizeof", "alignof", "decltype", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "static_assert", "defined", "assert",
    "case", "new", "delete", "throw", "operator", "noexcept", "explicit",
}

# A call is a name chain, optionally with one paren-free template
# argument list written flush against the name (`ForwardRows<V, R>(`),
# then `(`. The list may not hold `&&`, `||`, `=`, `!`, `;` or braces,
# so a comparison such as `a < b && c > (d)` is not read as one.
CALL_RE = re.compile(r"([A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*)"
                     r"(?:<(?:[^<>()&|;{}=!]|&(?!&))*>)?\s*\(")

ALLOC_METHODS = ("push_back", "emplace_back", "resize", "reserve",
                 "insert", "emplace", "try_emplace", "assign", "append")
ALLOC_FREE_FNS = ("make_unique", "make_shared", "malloc", "calloc",
                  "realloc", "strdup", "to_string")
NEW_RE = re.compile(r"(?:^|[^\w.])new\b(?!\s*\()")  # excludes `.new`, none
# Owning standard containers; constructing one with arguments allocates
# (see _container_constructions).
CONTAINER_RE = re.compile(
    r"\bstd::(vector|deque|list|forward_list|string|basic_string|"
    r"(?:unordered_)?(?:multi)?(?:map|set))\b")
MEMORD_RE = re.compile(r"\bmemory_order(?:::|_)(\w+)")

# Directly-blocking primitives (facts.BlockingSite). Everything
# higher-level (GateSignal::WaitFor, Mutex acquisition, RetryWithBackoff)
# reaches the checks transitively through call-graph summaries.
BLOCKING_METHODS = ("wait", "wait_for", "wait_until")     # receiver form
SLEEP_FNS = ("sleep_for", "sleep_until")
FILE_IO_FNS = ("fopen", "fread", "fwrite", "fclose", "fflush", "fsync",
               "fdatasync")

# Explicit atomic member operations (facts.AtomicOpSite). Extracted at
# statement level so a memory-order argument on a continuation line is
# still seen; excluded from the call graph.
ATOMIC_OP_METHODS = ("compare_exchange_weak", "compare_exchange_strong",
                     "store", "load", "exchange", "fetch_add",
                     "fetch_sub", "fetch_and", "fetch_or", "fetch_xor")
ATOMIC_OP_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*\[[^\]]*\])?"
    r"(?:(?:\.|->|::)[A-Za-z_]\w*(?:\s*\[[^\]]*\])?)*?)\s*"
    r"(?:\.|->)\s*(" + "|".join(ATOMIC_OP_METHODS) + r")\s*\(")
ATOMIC_RECV_RE = re.compile(
    r"^(.*)(?:\.|->)\s*([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", re.S)

# `alloc-ok:` may sit at the top of a short justifying comment block.
ALLOC_TAG_WINDOW = 3
SPIN_BLOCK_TAG_WINDOW = 3

ACCESS_LABEL_RE = re.compile(r"\b(?:public|private|protected)\s*:")
CASE_LABEL_RE = re.compile(r"^\s*(?:case\b[^:]*|default\s*)\s*:\s*")

ELEM_RE = re.compile(
    r"^(?:std::)?(?:vector|array|deque|span)\s*<\s*([^,>]+?)\s*[,>]")


def _strip_angles(s: str) -> str:
    """Removes template argument lists (`<...>`) from a declaration-ish
    string so `(` detection sees only real parameter lists."""
    out = []
    depth = 0
    prev = ""
    for ch in s:
        if ch == "<" and (prev.isalnum() or prev in "_>"):
            depth += 1
            continue
        if ch == ">" and depth > 0:
            depth -= 1
            prev = ">"
            continue
        if depth == 0:
            out.append(ch)
            if not ch.isspace():
                prev = ch
    return "".join(out)


def _first_top_paren(s: str) -> int:
    """Index of the first `(` outside template angle brackets, or -1."""
    depth = 0
    prev = ""
    for i, ch in enumerate(s):
        if ch == "<" and (prev.isalnum() or prev in "_>"):
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif ch == "(" and depth == 0:
            return i
        if not ch.isspace():
            prev = ch
    return -1


def _split_top_commas(s: str) -> List[str]:
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _extract_args(stmt: str, start: int) -> Optional[str]:
    """Balanced `(...)` contents starting at stmt[start] == '('."""
    depth = 0
    for i in range(start, len(stmt)):
        if stmt[i] == "(":
            depth += 1
        elif stmt[i] == ")":
            depth -= 1
            if depth == 0:
                return stmt[start + 1:i]
    return None


def _container_constructions(code: str) -> List[str]:
    """Owning std containers constructed with arguments on this line:
    a temporary (`std::vector<float>(first, last)`) or a named object
    (`std::vector<float> row(n)`). Both allocate; a bare declaration or
    an empty `()`/`{}` does not."""
    found = []
    n = len(code)
    for m in CONTAINER_RE.finditer(code):
        i = m.end()
        while i < n and code[i].isspace():
            i += 1
        if i < n and code[i] == "<":
            depth = 0
            while i < n:
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if i >= n:
                continue  # template arguments run past the line
            i += 1
        while i < n and code[i].isspace():
            i += 1
        name = re.match(r"[A-Za-z_]\w*", code[i:])
        if name:
            i += name.end()
            while i < n and code[i].isspace():
                i += 1
        if i >= n or code[i] not in "({":
            continue
        close = ")" if code[i] == "(" else "}"
        j = i + 1
        while j < n and code[j].isspace():
            j += 1
        if j < n and code[j] == close:
            continue  # default construction
        found.append("std::" + m.group(1))
    return found


class _Frame:
    __slots__ = ("kind", "name", "depth", "obj", "active_guards")

    def __init__(self, kind: str, name: str, depth: int, obj=None):
        self.kind = kind          # namespace|class|enum|function|block|init
        self.name = name
        self.depth = depth        # brace depth *inside* the frame
        self.obj = obj            # ClassFacts or FunctionFacts
        self.active_guards: List[tuple] = []  # (expr, depth, line)


class Parser:
    def __init__(self, sf: SourceFile):
        self.sf = sf
        self.ff = FileFacts(path=sf.path)
        self.ff.tag_lines = {t: sorted(ls)
                             for t, ls in sf.tag_lines.items()}
        self.stack: List[_Frame] = []
        self.depth = 0
        self.paren = 0
        self.init_depth = 0       # nested brace-initializer `{`s
        self.stmt: List[str] = []
        self.stmt_line = 0

    # -- frame helpers ---------------------------------------------------

    def cur_class(self) -> Optional[_Frame]:
        for fr in reversed(self.stack):
            if fr.kind == "class":
                return fr
            if fr.kind in ("function", "lambda"):
                return None
        return None

    def cur_function(self) -> Optional[_Frame]:
        for fr in reversed(self.stack):
            if fr.kind in ("function", "lambda"):
                return fr
        return None

    def enclosing_class_name(self) -> str:
        for fr in reversed(self.stack):
            if fr.kind == "class":
                return fr.name
        return ""

    # -- main loop -------------------------------------------------------

    def run(self) -> FileFacts:
        for idx, code in enumerate(self.sf.code):
            line = idx + 1
            if line in self.sf.preprocessor:
                m = INCLUDE_RE.search(self.sf.lines[idx])
                if m:
                    self.ff.includes.append([line, m.group(1)])
                continue
            self._scan_atomics_line(line, code)
            for ch in code:
                self._feed(ch, line)
            if self.stmt and not self.stmt[-1].isspace():
                self.stmt.append(" ")  # keep line-break separation
            fn = self.cur_function()
            if fn is not None:
                self._scan_sites_line(line, code, fn)
        return self.ff

    def _feed(self, ch: str, line: int) -> None:
        if not self.stmt and not ch.isspace():
            self.stmt_line = line
        if ch == "(":
            self.paren += 1
        elif ch == ")":
            self.paren = max(0, self.paren - 1)
        if ch == "{" and self.paren == 0:
            header = "".join(self.stmt).strip()
            kind = self._classify_brace(header)
            if kind == "init":
                self.init_depth += 1
                self.stmt.append(ch)
                return
            if self.cur_function() is not None:
                # `if (x.compare_exchange_...(...))` style headers
                self._scan_cmpxchg(header, line)
                self._scan_atomic_ops(header, line)
            self.depth += 1
            self._push_frame(kind, header, line)
            self.stmt = []
            return
        if ch == "}" and self.paren == 0:
            if self.init_depth > 0:
                self.init_depth -= 1
                self.stmt.append(ch)
                return
            self.depth = max(0, self.depth - 1)
            while self.stack and self.stack[-1].depth > self.depth:
                self.stack.pop()
            fn = self.cur_function()
            if fn is not None:
                fn.active_guards = [g for g in fn.active_guards
                                    if g[1] <= self.depth]
            self.stmt = []
            return
        if ch == ";" and self.paren == 0 and self.init_depth == 0:
            stmt = "".join(self.stmt).strip()
            if stmt:
                self._handle_statement(stmt, self.stmt_line, line)
            self.stmt = []
            return
        self.stmt.append(ch)

    # -- brace classification -------------------------------------------

    def _classify_brace(self, header: str) -> str:
        header = ACCESS_LABEL_RE.sub(" ", header).strip()
        if re.search(r"\benum\b", header):
            return "enum"
        if re.search(r"\bnamespace\b", header):
            return "namespace"
        if re.search(r"(?:^|\s)(?:class|struct|union)\s", header) or \
                header in ("class", "struct", "union"):
            return "class"
        if re.search(r"\][\s]*(\([^()]*(\([^()]*\))?[^()]*\))?\s*"
                     r"(->\s*[\w:<>&*,\s]+)?(mutable\s*)?$", header) and \
                "[" in header:
            return "lambda"
        first = re.match(r"[A-Za-z_]\w*", header)
        first_tok = first.group(0) if first else ""
        if first_tok in CONTROL_KEYWORDS or header in ("", "else", "do",
                                                       "try"):
            return "block"
        in_fn = self.cur_function() is not None
        stripped = _strip_angles(header)
        if "(" in stripped:
            if in_fn:
                # `if (...)` handled above; what's left mid-function with
                # parens is a declaration with a brace initializer.
                return "init" if not header.rstrip().endswith(")") \
                    else "block"
            return "function"
        if in_fn or self.cur_class() is not None:
            return "init"
        # namespace scope, no parens: an aggregate initializer.
        return "init" if "=" in header or header else "block"

    def _push_frame(self, kind: str, header: str, line: int) -> None:
        if kind == "class":
            name = self._class_name(header)
            cf = ClassFacts(name=name, line=line)
            self.ff.classes.append(cf)
            self.stack.append(_Frame("class", name, self.depth, cf))
            return
        if kind == "function":
            self._push_function(header, line)
            return
        if kind == "lambda":
            self._push_lambda(header, line)
            return
        name = ""
        if kind == "namespace":
            m = re.search(r"namespace\s+([\w:]+)", header)
            name = m.group(1) if m else ""
        self.stack.append(_Frame(kind, name, self.depth))

    def _class_name(self, header: str) -> str:
        h = FRUGAL_MACRO_RE.sub(" ", header)
        h = ALIGNAS_RE.sub(" ", h)
        h = re.sub(r"\bfinal\b", " ", h)
        m = re.search(r"(?:class|struct|union)\s+([A-Za-z_]\w*)", h)
        return m.group(1) if m else "<anon>"

    def _push_function(self, header: str, line: int) -> None:
        header = ACCESS_LABEL_RE.sub(" ", header)
        header = ATTRIBUTE_RE.sub(" ", header).strip()
        stripped = _strip_angles(header)
        p = _first_top_paren(stripped)
        name = ""
        if p >= 0:
            m = re.search(r"([\w:~]+)\s*$", stripped[:p])
            name = m.group(1) if m else ""
        cls = self.enclosing_class_name()
        if "::" in name:
            parts = name.rsplit("::", 1)
            cls, name = parts[0].split("<")[0], parts[1]
        fn = FunctionFacts(name=name, cls=cls, line=line)
        # parameter types
        orig_p = _first_top_paren(header)
        if orig_p >= 0:
            args = _extract_args(header, orig_p)
            if args is not None:
                self._parse_params(args, fn)
        m = RETURN_CAP_RE.search(header)
        if m and cls:
            for _, cf in self._class_by_name(cls):
                cf.returns_lock[name] = m.group(1).strip()
        # ctor init list may carry LockRank picks for striped locks etc.
        # The class may be declared in another file, so record at file
        # level; the registry merges across files.
        tail = header[orig_p:] if orig_p >= 0 else header
        for mm in re.finditer(r"(\w+)\s*[({][^)}]*LockRank::(k\w+)", tail):
            if cls:
                self.ff.ctor_ranks.setdefault(cls, {}).setdefault(
                    mm.group(1), mm.group(2))
        self.ff.functions.append(fn)
        self.stack.append(_Frame("function", name, self.depth, fn))

    def _push_lambda(self, header: str, line: int) -> None:
        m = re.search(r"([A-Za-z_]\w*)\s*=\s*\[", header)
        name = m.group(1) if m else f"<lambda@{line}>"
        fn = FunctionFacts(name=name, cls="", line=line)
        pm = re.search(r"\]\s*\(", header)
        if pm:
            args = _extract_args(header, pm.end() - 1)
            if args is not None:
                self._parse_params(args, fn)
        self.ff.functions.append(fn)
        self.stack.append(_Frame("lambda", name, self.depth, fn))

    def _parse_params(self, args: str, fn: FunctionFacts) -> None:
        for part in _split_top_commas(args):
            part = part.split("=")[0].strip()
            m = re.match(
                r"(?:const\s+)?([\w:]+(?:\s*<[^>]*>)?)\s*[&*\s]+"
                r"(?:const\s+)?[&*]*\s*([A-Za-z_]\w*)\s*$", part)
            if m:
                fn.params[m.group(2)] = m.group(1)

    def _class_by_name(self, name: str):
        for cf in self.ff.classes:
            if cf.name == name:
                yield self.ff, cf

    # -- statements ------------------------------------------------------

    def _handle_statement(self, stmt: str, start: int, end: int) -> None:
        stmt = ACCESS_LABEL_RE.sub(" ", stmt)
        stmt = CASE_LABEL_RE.sub("", stmt).strip()
        if not stmt:
            return
        fn_frame = self.cur_function()
        if fn_frame is not None:
            self._function_statement(stmt, start, end, fn_frame)
            return
        cls_frame = self.cur_class()
        if cls_frame is not None:
            self._member_statement(stmt, end, cls_frame.obj)

    def _function_statement(self, stmt: str, start: int, end: int,
                            frame: _Frame) -> None:
        fn: FunctionFacts = frame.obj
        m = GUARD_STMT_RE.match(stmt)
        if m:
            arg = _split_top_commas(m.group(1))
            expr = arg[0] if arg else ""
            if frame.active_guards:
                fn.nests.append(GuardNest(
                    line=end, inner=expr,
                    outers=[g[0] for g in frame.active_guards]))
            frame.active_guards.append((expr, self.depth, end))
            fn.guards.append(expr)
            fn.guard_lines.append(end)
            return
        self._scan_cmpxchg(stmt, end)
        self._scan_atomic_ops(stmt, end)
        # simple local declarations feed guard-expression resolution
        dm = re.match(
            r"(?:const\s+)?(auto|[\w:]+(?:\s*<[^;=]*>)?)\s*[&*\s]+"
            r"([A-Za-z_]\w*)\s*=\s*(.+)$", stmt)
        if dm:
            typ, name, init = dm.group(1), dm.group(2), dm.group(3)
            if typ == "auto":
                resolved = self._elem_or_member_type(init)
                if resolved:
                    fn.locals[name] = resolved
            elif typ not in ("return", "delete"):
                fn.locals[name] = typ.split("<")[0].strip()

    def _elem_or_member_type(self, init: str) -> Optional[str]:
        """`shards_[i]` -> element type of member shards_ if a
        container; `*x` / plain member -> that member's bare type."""
        m = re.match(r"[&*]*\s*([A-Za-z_]\w*)\s*(\[[^\]]*\])?", init)
        if not m:
            return None
        base, indexed = m.group(1), m.group(2)
        cls = self.enclosing_class_name()
        decl = None
        for cf in self.ff.classes:
            if cls and cf.name != cls:
                continue
            for mem in cf.members:
                if mem.name == base:
                    decl = mem.decl
                    break
        if decl is None:
            return None
        if indexed:
            em = ELEM_RE.search(decl)
            return em.group(1).split("<")[0].strip() if em else None
        return decl.split()[0].split("<")[0] if decl.split() else None

    def _scan_cmpxchg(self, stmt: str, line: int) -> None:
        for m in re.finditer(r"compare_exchange_(?:weak|strong)\s*\(",
                             stmt):
            args = _extract_args(stmt, m.end() - 1)
            if args is None:
                continue
            parts = _split_top_commas(args)
            site = CmpxchgSite(line=line)
            if len(parts) >= 4:
                so = MEMORD_RE.search(parts[2])
                fo = MEMORD_RE.search(parts[3])
                site.success = so.group(1) if so else None
                site.failure = fo.group(1) if fo else None
            elif len(parts) == 3:
                so = MEMORD_RE.search(parts[2])
                site.success = so.group(1) if so else None
            self.ff.cmpxchg.append(site)

    def _scan_atomic_ops(self, stmt: str, line: int) -> None:
        """Statement-level atomic member-op extraction.

        Runs on whole statements (and brace headers) so a memory-order
        argument pushed to a continuation line is still attributed to
        the op. Owner resolution is best effort: "<local>" for ops on
        params/locals, the enclosing class for bare members, the
        receiver's declared type otherwise, "" when unknown."""
        fn_frame = self.cur_function()
        fn: Optional[FunctionFacts] = fn_frame.obj if fn_frame else None
        enclosing = (fn.cls if fn and fn.cls
                     else self.enclosing_class_name())
        for m in ATOMIC_OP_RE.finditer(stmt):
            obj, op = m.group(1), m.group(2)
            args = _extract_args(stmt, m.end() - 1)
            order = None
            if args:
                for part in _split_top_commas(args):
                    om = MEMORD_RE.search(part)
                    if om:
                        order = om.group(1)
                        break
            rm = ATOMIC_RECV_RE.match(obj)
            if rm:
                recv, member = rm.group(1).strip(), rm.group(2)
            else:
                recv = ""
                bm = re.match(r"([A-Za-z_]\w*)", obj)
                member = bm.group(1) if bm else obj
            owner = ""
            if recv in ("", "this"):
                if not recv and fn is not None and \
                        (member in fn.params or member in fn.locals):
                    owner = "<local>"
                else:
                    owner = enclosing
            else:
                bm = re.match(r"[&*(\s]*([A-Za-z_]\w*)", recv)
                base = bm.group(1) if bm else ""
                if base == "this":
                    owner = enclosing
                elif fn is not None and base in fn.params:
                    owner = fn.params[base].split("::")[-1]
                elif fn is not None and base in fn.locals:
                    owner = fn.locals[base].split("::")[-1]
                else:
                    resolved = self._elem_or_member_type(recv)
                    if resolved:
                        owner = resolved.split("::")[-1]
            self.ff.atomic_ops.append(AtomicOpSite(
                line=line, op=op, member=member, owner=owner,
                order=order, cls=enclosing))

    def _member_statement(self, stmt: str, line: int,
                          cf: ClassFacts) -> None:
        if re.match(r"(?:using|typedef|friend|static_assert|template)\b",
                    stmt):
            return
        mem = Member(name="", line=line, decl="")
        gm = GUARDED_BY_RE.search(stmt)
        pm = PT_GUARDED_BY_RE.search(stmt)
        if gm:
            mem.guarded_by = gm.group(1).strip()
        if pm:
            mem.pt_guarded_by = pm.group(1).strip()
        clean = GUARDED_BY_RE.sub(" ", stmt)
        clean = PT_GUARDED_BY_RE.sub(" ", clean)
        clean = FRUGAL_MACRO_RE.sub(" ", clean)
        clean = ALIGNAS_RE.sub(" ", clean)
        clean = re.sub(r"\s+", " ", clean).strip()
        stripped = _strip_angles(clean)
        if "(" in stripped:
            return  # method declaration (or deleted op), not a member
        mem.is_static = bool(re.search(r"\bstatic\b", clean))
        if mem.is_static:
            return
        mem.is_const = bool(re.search(r"\bconst\b", clean))
        mem.is_mutable = bool(re.search(r"\bmutable\b", clean))
        mem.is_atomic = ("std::atomic" in clean or
                         "model_atomic" in clean or
                         "atomic_flag" in clean)
        for lt in LOCK_TYPES:
            if re.search(r"(?:^|\s)" + re.escape(lt) + r"\b",
                         clean.replace("mutable ", "")):
                mem.lock_type = lt
                break
        rm = RANK_RE.search(stmt)
        if rm and mem.lock_type:
            mem.lock_rank = rm.group(1)
        decl_part = clean.split("=")[0]
        decl_part = re.sub(r"\{.*", "", decl_part).strip()
        nm = re.search(r"([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*$", decl_part)
        if not nm:
            return
        mem.name = nm.group(1)
        if mem.name in ("delete", "default", "override", "const",
                        "noexcept", "struct", "class", "return"):
            return
        mem.decl = clean
        cf.members.append(mem)

    # -- line scans ------------------------------------------------------

    def _scan_atomics_line(self, line: int, code: str) -> None:
        if re.search(r"\bmemory_order(?:_|::)relaxed\b", code):
            self.ff.relaxed_lines.append(line)
        if re.search(r"\bstd::atomic\s*<|\bstd::atomic_flag\b", code):
            self.ff.raw_atomic_lines.append(line)
        if re.search(r"\bsleep_(?:for|until)\s*\(", code):
            self.ff.sleep_lines.append(line)

    def _scan_sites_line(self, line: int, code: str,
                         frame: _Frame) -> None:
        fn: FunctionFacts = frame.obj
        held = [g[0] for g in frame.active_guards]
        tagged = self.sf.has_tag_near(line, "alloc-ok:",
                                      window=ALLOC_TAG_WINDOW)
        spin_ok = self.sf.has_tag_near(line, "spin-block-ok:",
                                       window=SPIN_BLOCK_TAG_WINDOW)
        if NEW_RE.search(code):
            fn.allocs.append(AllocSite(line=line, what="new",
                                       tagged=tagged, held=list(held)))
        for what in _container_constructions(code):
            fn.allocs.append(AllocSite(line=line, what=what,
                                       tagged=tagged, held=list(held)))
        for m in CALL_RE.finditer(code):
            chain = m.group(1)
            last = re.split(r"\.|->|::", chain)[-1]
            if last in NOT_A_CALL or chain in NOT_A_CALL:
                continue
            if last.startswith("FRUGAL_") or chain.startswith("FRUGAL_"):
                continue
            if last in ALLOC_METHODS and ("." in chain or "->" in chain):
                fn.allocs.append(AllocSite(line=line, what="." + last,
                                           tagged=tagged,
                                           held=list(held)))
                continue
            if last in ALLOC_FREE_FNS:
                fn.allocs.append(AllocSite(line=line, what=last,
                                           tagged=tagged,
                                           held=list(held)))
                continue
            if last in BLOCKING_METHODS and ("." in chain or
                                             "->" in chain):
                fn.blocking.append(BlockingSite(
                    line=line, what="cv-wait", tagged=spin_ok,
                    held=list(held)))
                continue
            if last in SLEEP_FNS:
                fn.blocking.append(BlockingSite(
                    line=line, what="sleep", tagged=spin_ok,
                    held=list(held)))
                continue
            if last in FILE_IO_FNS:
                fn.blocking.append(BlockingSite(
                    line=line, what="file-io", tagged=spin_ok,
                    held=list(held)))
                continue
            if last in ATOMIC_OP_METHODS:
                # Statement-level AtomicOpSite, not a call-graph edge.
                # Bare forms too: `x[i].fetch_add(...)` degenerates to a
                # bare `fetch_add` chain because CALL_RE cannot span the
                # index expression.
                continue
            fn.calls.append(CallSite(line=line, name=chain,
                                     held=list(held), alloc_ok=tagged))


def parse_file(path: str, text: str) -> FileFacts:
    return Parser(lex(path, text)).run()
