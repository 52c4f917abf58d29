"""The facts model shared by both frontends.

A frontend reduces one source file to a `FileFacts`: include edges,
class/member structure, function bodies as guard/call/alloc sites, and
atomics uses. Checks run over the assembled `ProjectFacts`, never over
raw text — that is what keeps the clang and internal frontends
interchangeable, and what the incremental cache serializes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class Member:
    name: str
    line: int
    decl: str                      # normalized declaration text
    is_const: bool = False
    is_static: bool = False
    is_mutable: bool = False
    is_atomic: bool = False
    lock_type: Optional[str] = None    # Spinlock/Mutex/StripedLocks/...
    lock_rank: Optional[str] = None    # e.g. "kGEntry" when statically known
    guarded_by: Optional[str] = None
    pt_guarded_by: Optional[str] = None


@dataclass
class ClassFacts:
    name: str
    line: int
    members: List[Member] = field(default_factory=list)
    # ctor-init-list ranks discovered out of line: member -> rank name
    ctor_ranks: Dict[str, str] = field(default_factory=dict)
    # methods annotated FRUGAL_RETURN_CAPABILITY(member): method -> member
    returns_lock: Dict[str, str] = field(default_factory=dict)


@dataclass
class GuardNest:
    """A guard acquired while other guards were already held."""

    line: int
    inner: str                     # lock expression of the new guard
    outers: List[str] = field(default_factory=list)


@dataclass
class CallSite:
    line: int
    name: str                      # full chain, e.g. "queue->Unenqueue"
    held: List[str] = field(default_factory=list)  # active guard exprs


@dataclass
class AllocSite:
    line: int
    what: str                      # "new", "make_unique", ".push_back", ...
    tagged: bool = False           # has an `alloc-ok:` tag
    held: List[str] = field(default_factory=list)  # active guard exprs


@dataclass
class BlockingSite:
    """A directly-blocking primitive: a CV wait, a sleep, file I/O.

    Higher-level blocking operations (GateSignal::WaitFor, Mutex
    acquisition, RetryWithBackoff) are *not* recorded here — they reach
    the checks transitively through call-graph summaries, which keeps
    the primitive vocabulary tiny and both frontends in agreement."""

    line: int
    what: str                      # "cv-wait" | "sleep" | "file-io"
    tagged: bool = False           # has a `spin-block-ok:` tag
    held: List[str] = field(default_factory=list)


@dataclass
class AtomicOpSite:
    """One explicit atomic member operation (store/load/RMW/cmpxchg).

    `owner` is the best-effort class owning the member ("" when only the
    member name is known — the checks fall back to project-unique member
    names; "<local>" marks an op on a local/parameter atomic, which the
    publication-pairing check skips entirely)."""

    line: int
    op: str                        # "store", "load", "exchange", ...
    member: str                    # last segment of the object expression
    owner: str = ""                # owning class, "" unknown, "<local>"
    order: Optional[str] = None    # memory-order token, None = default
    cls: str = ""                  # class enclosing the *use* site


@dataclass
class FunctionFacts:
    name: str                      # unqualified (or lambda variable name)
    cls: str = ""                  # enclosing/qualifying class, "" if free
    line: int = 0
    guards: List[str] = field(default_factory=list)  # all guard exprs
    guard_lines: List[int] = field(default_factory=list)
    nests: List[GuardNest] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)
    blocking: List[BlockingSite] = field(default_factory=list)
    params: Dict[str, str] = field(default_factory=dict)   # name -> type
    locals: Dict[str, str] = field(default_factory=dict)   # name -> type

    def qualified(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class CmpxchgSite:
    line: int
    success: Optional[str] = None  # order token, e.g. "acquire"
    failure: Optional[str] = None


@dataclass
class FileFacts:
    path: str                      # src-root-relative, e.g. "pq/g_entry.h"
    includes: List[List] = field(default_factory=list)   # [line, target]
    classes: List[ClassFacts] = field(default_factory=list)
    functions: List[FunctionFacts] = field(default_factory=list)
    relaxed_lines: List[int] = field(default_factory=list)
    raw_atomic_lines: List[int] = field(default_factory=list)
    sleep_lines: List[int] = field(default_factory=list)
    cmpxchg: List[CmpxchgSite] = field(default_factory=list)
    atomic_ops: List[AtomicOpSite] = field(default_factory=list)
    # tag -> lines carrying it (copied from the lexer so cached facts
    # stay self-contained)
    tag_lines: Dict[str, List[int]] = field(default_factory=dict)
    # LockRank picks seen in ctor init lists, possibly for classes
    # declared in *another* file: class -> member -> rank name
    ctor_ranks: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "FileFacts":
        ff = FileFacts(path=d["path"])
        ff.includes = [list(e) for e in d.get("includes", [])]
        for c in d.get("classes", []):
            cf = ClassFacts(name=c["name"], line=c["line"])
            cf.members = [Member(**m) for m in c.get("members", [])]
            cf.ctor_ranks = dict(c.get("ctor_ranks", {}))
            cf.returns_lock = dict(c.get("returns_lock", {}))
            ff.classes.append(cf)
        for f in d.get("functions", []):
            fn = FunctionFacts(name=f["name"], cls=f.get("cls", ""),
                               line=f.get("line", 0))
            fn.guards = list(f.get("guards", []))
            fn.guard_lines = list(f.get("guard_lines", []))
            fn.nests = [GuardNest(**n) for n in f.get("nests", [])]
            fn.calls = [CallSite(**cs) for cs in f.get("calls", [])]
            fn.allocs = [AllocSite(**a) for a in f.get("allocs", [])]
            fn.blocking = [BlockingSite(**b)
                           for b in f.get("blocking", [])]
            fn.params = dict(f.get("params", {}))
            fn.locals = dict(f.get("locals", {}))
            ff.functions.append(fn)
        ff.relaxed_lines = list(d.get("relaxed_lines", []))
        ff.raw_atomic_lines = list(d.get("raw_atomic_lines", []))
        ff.sleep_lines = list(d.get("sleep_lines", []))
        ff.cmpxchg = [CmpxchgSite(**c) for c in d.get("cmpxchg", [])]
        ff.atomic_ops = [AtomicOpSite(**a)
                         for a in d.get("atomic_ops", [])]
        ff.tag_lines = {k: list(v) for k, v in d.get("tag_lines",
                                                     {}).items()}
        ff.ctor_ranks = {k: dict(v)
                         for k, v in d.get("ctor_ranks", {}).items()}
        return ff

    def has_tag_near(self, line: int, tag: str, window: int = 1) -> bool:
        hits = self.tag_lines.get(tag)
        if not hits:
            return False
        lo = max(1, line - window)
        return any(lo <= ln <= line for ln in hits)


@dataclass
class ProjectFacts:
    """All analyzed files plus cross-file registries built on demand."""

    files: Dict[str, FileFacts] = field(default_factory=dict)

    def all_classes(self):
        for ff in self.files.values():
            for cf in ff.classes:
                yield ff, cf

    def all_functions(self):
        for ff in self.files.values():
            for fn in ff.functions:
                yield ff, fn


# A trace is one example path from a function to an effect it reaches
# transitively: a list of [file, line, label] hops, outermost first,
# ending at the line of the primitive effect itself.
Trace = List[List]


@dataclass
class FunctionSummary:
    """Whole-program fixpoint summary of one function (summaries.py).

    Each map sends an effect key to *one* example trace showing how the
    function reaches it — enough for a diagnostic to print the full call
    path without storing every path through the call graph.

      ranks     LockRank name -> trace to the acquiring guard
      blocking  kind ("cv-wait", "sleep", "file-io", "mutex-acquire")
                -> trace to the blocking primitive
      allocs    allocation kind ("new", ".push_back", ...) -> trace to
                the (untagged) allocation site
    """

    ranks: Dict[str, Trace] = field(default_factory=dict)
    blocking: Dict[str, Trace] = field(default_factory=dict)
    allocs: Dict[str, Trace] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "FunctionSummary":
        s = FunctionSummary()
        for attr in ("ranks", "blocking", "allocs"):
            got = d.get(attr, {})
            setattr(s, attr, {k: [list(hop) for hop in trace]
                              for k, trace in got.items()})
        return s
