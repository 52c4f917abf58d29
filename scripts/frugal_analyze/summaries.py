"""Whole-program call-graph summaries (the v2 engine).

PR 6's checks propagated lock acquisitions exactly one call level deep,
so a rank inversion (or an unbounded blocking call) two frames below a
Spinlock hold was invisible. This module builds the machinery the deep
checks run on:

  1. `build_registry` — cross-file registries: lock members and their
     ranks/types, RETURN_CAPABILITY methods, member types for receiver
     resolution, atomic members, and call-graph multimaps keyed by both
     qualified (`Cls::Method`) and bare names.
  2. `Resolver` — receiver-type-aware call resolution. Every call site
     resolves through a ladder (qualified > self-class > typed receiver
     > unique bare > last-segment fallback) and the kind is counted;
     last-segment fallbacks are recorded so `--verbose` can surface
     them as `analyzer-ambiguous` info diagnostics, and genuinely
     ambiguous names resolve to *nothing* (precision over recall).
  3. `build_summaries` — per-function fixpoint summaries over the call
     graph, cycle-safe via iterative Tarjan SCC condensation: the set
     of lock ranks transitively acquired, transitive blocking
     operations (CV waits, sleeps, file I/O, mutex acquisition), and
     transitive allocation sites — each effect carrying one example
     trace so a diagnostic can print the full call path.

Checks (checks.py) import from here; this module depends only on the
facts model and the project tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .facts import (CallSite, FunctionFacts, FunctionSummary,
                    ProjectFacts)

# Lock-type classification for the blocking-under-spinlock check: holds
# of the left group must stay bounded; the right group may block.
SPIN_LOCK_TYPES = ("Spinlock", "StripedLocks")
MUTEX_LOCK_TYPES = ("Mutex", "std::mutex", "std::shared_mutex",
                    "std::recursive_mutex")

# How a call site got resolved, strongest to weakest. "last-segment"
# means only the method name matched (one class defines it, but the
# receiver could not be typed) — resolved, but reported in --verbose.
RESOLUTION_KINDS = ("qualified", "self-class", "receiver", "unique",
                    "last-segment", "ambiguous", "unresolved")

# Traces longer than this stop growing; deep enough for any real chain
# and keeps pathological graphs from quadratic trace copying.
MAX_TRACE_HOPS = 12


def fn_key(path: str, fn: FunctionFacts) -> str:
    """Stable serializable identity of one function definition."""
    return f"{path}#{fn.qualified()}#{fn.line}"


# ---------------------------------------------------------------------------
# Cross-file registries
# ---------------------------------------------------------------------------


@dataclass
class Registry:
    # class -> lock member -> rank name (None when not statically known)
    class_locks: Dict[str, Dict[str, Optional[str]]] = field(
        default_factory=dict)
    # class -> lock member -> lock type (Spinlock/Mutex/...)
    class_lock_types: Dict[str, Dict[str, str]] = field(
        default_factory=dict)
    # member name -> set of rank names across all classes
    member_ranks: Dict[str, Set[str]] = field(default_factory=dict)
    # lock member name -> set of lock types across all classes
    member_lock_types: Dict[str, Set[str]] = field(default_factory=dict)
    # (class, method) -> lock member it returns (RETURN_CAPABILITY)
    returns_lock: Dict[Tuple[str, str], str] = field(default_factory=dict)
    # method name -> set of ranks its RETURN_CAPABILITY target can have
    method_ranks: Dict[str, Set[str]] = field(default_factory=dict)
    # method name -> set of lock types its target can have
    method_lock_types: Dict[str, Set[str]] = field(default_factory=dict)
    # class -> member name -> bare member type (receiver resolution)
    member_types: Dict[str, Dict[str, str]] = field(default_factory=dict)
    # class -> atomic member names (publication-pairing check)
    atomic_members: Dict[str, Set[str]] = field(default_factory=dict)
    # call-graph lookup: "Cls::Method" -> definitions (overloads share
    # a key), and bare name -> definitions across all classes
    by_qualified: Dict[str, List[Tuple[str, FunctionFacts]]] = field(
        default_factory=dict)
    by_bare: Dict[str, List[Tuple[str, FunctionFacts]]] = field(
        default_factory=dict)


_TYPE_QUALIFIERS = ("const", "mutable", "volatile", "static", "inline",
                    "constexpr", "struct", "class")


def _bare_type(decl: str) -> str:
    """First type token of a member declaration, qualifier/namespace/
    template/pointer-stripped: "mutable frugal::Mutex mu_" -> "Mutex"."""
    for tok in decl.split():
        if tok not in _TYPE_QUALIFIERS:
            return tok.split("<")[0].rstrip("*&").split("::")[-1]
    return ""


def build_registry(project: ProjectFacts) -> Registry:
    reg = Registry()
    global_ctor_ranks: Dict[str, Dict[str, str]] = {}
    for ff in project.files.values():
        for cls, ranks in ff.ctor_ranks.items():
            global_ctor_ranks.setdefault(cls, {}).update(ranks)
    for ff, cf in project.all_classes():
        locks = reg.class_locks.setdefault(cf.name, {})
        lock_types = reg.class_lock_types.setdefault(cf.name, {})
        types = reg.member_types.setdefault(cf.name, {})
        for mem in cf.members:
            if mem.decl:
                bare = _bare_type(mem.decl)
                if bare:
                    types[mem.name] = bare
            if mem.is_atomic:
                reg.atomic_members.setdefault(cf.name,
                                              set()).add(mem.name)
            if mem.lock_type:
                rank = (mem.lock_rank or cf.ctor_ranks.get(mem.name) or
                        global_ctor_ranks.get(cf.name,
                                              {}).get(mem.name))
                locks[mem.name] = rank
                lock_types[mem.name] = mem.lock_type
                if rank:
                    reg.member_ranks.setdefault(mem.name,
                                                set()).add(rank)
                reg.member_lock_types.setdefault(
                    mem.name, set()).add(mem.lock_type)
        for method, target in cf.returns_lock.items():
            reg.returns_lock[(cf.name, method)] = target
            rank = locks.get(target)
            if rank:
                reg.method_ranks.setdefault(method, set()).add(rank)
            lt = lock_types.get(target)
            if lt:
                reg.method_lock_types.setdefault(method, set()).add(lt)
    for ff, fn in project.all_functions():
        reg.by_qualified.setdefault(fn.qualified(),
                                    []).append((ff.path, fn))
        reg.by_bare.setdefault(fn.name, []).append((ff.path, fn))
    return reg


def _unique(values: Optional[Set[str]]) -> Optional[str]:
    if values and len(values) == 1:
        return next(iter(values))
    return None


def _receiver_type(recv: str, fn: FunctionFacts,
                   reg: Optional[Registry] = None) -> Optional[str]:
    """Declared bare type of a receiver expression, walking member
    chains through the registry: "this", params, locals, then members
    of the enclosing class (and of each hop's class)."""
    recv = recv.strip().lstrip("*&").strip()
    if not recv:
        return None
    segs = [s for s in re.split(r"\.|->", recv) if s]
    if not segs or not all(re.fullmatch(r"[A-Za-z_]\w*", s)
                           for s in segs):
        return None
    first = segs[0]
    if first == "this":
        cur: Optional[str] = fn.cls or None
        rest = segs[1:]
    else:
        cur = fn.params.get(first) or fn.locals.get(first)
        if cur is None and reg is not None and fn.cls:
            cur = reg.member_types.get(fn.cls, {}).get(first)
        rest = segs[1:]
    if cur is not None:
        cur = cur.split("::")[-1]
    for seg in rest:
        if cur is None or reg is None:
            return None
        cur = reg.member_types.get(cur, {}).get(seg)
        if cur is not None:
            cur = cur.split("::")[-1]
    return cur


def resolve_rank(expr: str, fn: FunctionFacts, reg: Registry) \
        -> Optional[str]:
    """Best-effort LockRank of a guard expression, or None."""
    got = _resolve_lock(expr, fn, reg)
    return got[0] if got else None


def resolve_lock_type(expr: str, fn: FunctionFacts, reg: Registry) \
        -> Optional[str]:
    """Best-effort lock *type* (Spinlock/Mutex/...) of a guard
    expression, or None."""
    got = _resolve_lock(expr, fn, reg)
    return got[1] if got else None


def _resolve_lock(expr: str, fn: FunctionFacts, reg: Registry) \
        -> Optional[Tuple[Optional[str], Optional[str]]]:
    """(rank, lock_type) of a guard expression, None when nothing about
    the expression could be resolved."""
    expr = expr.strip().lstrip("*&").strip()
    if not expr:
        return None
    # Striped lock: locks_.For(h) / x->row_locks_.For(h)
    sm = re.match(r"(.+?)(?:\.|->)For\s*\(", expr)
    if sm:
        return _resolve_lock(sm.group(1), fn, reg)
    # Method call returning a capability: entry->lock()
    cm = re.match(r"(.+?)(?:\.|->)(\w+)\s*\(\s*\)$", expr)
    if cm:
        recv, method = cm.group(1), cm.group(2)
        rtype = _receiver_type(recv, fn, reg)
        if rtype and (rtype, method) in reg.returns_lock:
            member = reg.returns_lock[(rtype, method)]
            return (reg.class_locks.get(rtype, {}).get(member),
                    reg.class_lock_types.get(rtype, {}).get(member))
        return (_unique(reg.method_ranks.get(method)),
                _unique(reg.method_lock_types.get(method)))
    if expr.endswith("()"):  # bare capability-returning call: lock()
        method = expr[:-2].strip()
        if fn.cls and (fn.cls, method) in reg.returns_lock:
            member = reg.returns_lock[(fn.cls, method)]
            return (reg.class_locks.get(fn.cls, {}).get(member),
                    reg.class_lock_types.get(fn.cls, {}).get(member))
        return (_unique(reg.method_ranks.get(method)),
                _unique(reg.method_lock_types.get(method)))
    # Member access: shard.lock / slot->lock / this->lock_
    mm = re.match(r"(.+?)(?:\.|->)(\w+)$", expr)
    if mm:
        recv, member = mm.group(1), mm.group(2)
        if recv == "this" and fn.cls:
            return (reg.class_locks.get(fn.cls, {}).get(member),
                    reg.class_lock_types.get(fn.cls, {}).get(member))
        rtype = _receiver_type(recv, fn, reg)
        if rtype and rtype in reg.class_locks:
            return (reg.class_locks[rtype].get(member),
                    reg.class_lock_types.get(rtype, {}).get(member))
        return (_unique(reg.member_ranks.get(member)),
                _unique(reg.member_lock_types.get(member)))
    # Bare identifier: member of the enclosing class, else unique name.
    if fn.cls and expr in reg.class_locks.get(fn.cls, {}):
        return (reg.class_locks[fn.cls].get(expr),
                reg.class_lock_types.get(fn.cls, {}).get(expr))
    return (_unique(reg.member_ranks.get(expr)),
            _unique(reg.member_lock_types.get(expr)))


# ---------------------------------------------------------------------------
# Call resolution
# ---------------------------------------------------------------------------


class Resolver:
    """Receiver-type-aware call resolution with per-site kind stats.

    Each distinct call site is resolved (and counted) once; repeated
    queries during fixpoint iteration hit a memo. Targets are lists
    because overloads legitimately share a name — their summaries are
    unioned, which over-approximates only within one class/method."""

    def __init__(self, reg: Registry):
        self.reg = reg
        self.stats: Dict[str, int] = {k: 0 for k in RESOLUTION_KINDS}
        # last-segment fallbacks: (path, line, chain, resolved-to)
        self.fallbacks: List[Tuple[str, int, str, str]] = []
        self._memo: Dict[tuple, List[Tuple[str, FunctionFacts]]] = {}

    def resolve_call(self, path: str, fn: FunctionFacts, line: int,
                     chain: str) -> List[Tuple[str, FunctionFacts]]:
        key = (path, id(fn), line, chain)
        if key in self._memo:
            return self._memo[key]
        kind, targets = self._resolve(chain, fn)
        self.stats[kind] += 1
        if kind == "last-segment" and targets:
            self.fallbacks.append((path, line, chain,
                                   targets[0][1].qualified()))
        self._memo[key] = targets
        return targets

    def _resolve(self, chain: str, fn: FunctionFacts) \
            -> Tuple[str, List[Tuple[str, FunctionFacts]]]:
        reg = self.reg
        if "::" in chain and "." not in chain and "->" not in chain:
            parts = [p for p in chain.split("::") if p]
            for key in (chain, "::".join(parts[-2:])):
                got = reg.by_qualified.get(key)
                if got:
                    return "qualified", got
            return self._bare(parts[-1], fallback=True)
        segs = [s for s in re.split(r"\.|->", chain) if s]
        if len(segs) > 1:
            method = segs[-1]
            recv = chain[:len(chain) - len(method)].rstrip(".->")
            rtype = _receiver_type(recv, fn, reg)
            if rtype:
                got = reg.by_qualified.get(f"{rtype}::{method}")
                if got:
                    return "receiver", got
                # Receiver typed but no such method in the corpus
                # (std:: containers etc.) — do NOT fall back.
                return "unresolved", []
            return self._bare(method, fallback=True)
        name = segs[0] if segs else chain
        if fn.cls:
            got = reg.by_qualified.get(f"{fn.cls}::{name}")
            if got:
                return "self-class", got
        free = [(p, f) for p, f in reg.by_bare.get(name, [])
                if not f.cls]
        if free:
            return "unique", free
        return self._bare(name, fallback=False)

    def _bare(self, name: str, fallback: bool) \
            -> Tuple[str, List[Tuple[str, FunctionFacts]]]:
        cands = self.reg.by_bare.get(name, [])
        if not cands:
            return "unresolved", []
        classes = {f.cls for _, f in cands}
        if len(classes) == 1:
            return ("last-segment" if fallback else "unique"), cands
        return "ambiguous", []


# ---------------------------------------------------------------------------
# Fixpoint summaries over the SCC condensation
# ---------------------------------------------------------------------------


def _tarjan_sccs(nodes: List[str],
                 edges: Dict[str, List[str]]) -> List[List[str]]:
    """Iterative Tarjan. Emission order guarantees every SCC appears
    after all SCCs it can reach — i.e. callees before callers."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work: List[List] = [[root, 0]]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            succs = edges.get(node, [])
            for i in range(pi, len(succs)):
                w = succs[i]
                if w not in index:
                    work[-1][1] = i + 1
                    work.append([w, 0])
                    recursed = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recursed:
                continue
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _direct_summary(path: str, fn: FunctionFacts,
                    reg: Registry) -> FunctionSummary:
    s = FunctionSummary()
    for i, expr in enumerate(fn.guards):
        line = fn.guard_lines[i] if i < len(fn.guard_lines) else fn.line
        rank = resolve_rank(expr, fn, reg)
        if rank is not None:
            s.ranks.setdefault(
                rank, [[path, line,
                        f"acquires {expr} (LockRank::{rank})"]])
        lt = resolve_lock_type(expr, fn, reg)
        if lt in MUTEX_LOCK_TYPES:
            s.blocking.setdefault(
                "mutex-acquire",
                [[path, line, f"acquires mutex {expr}"]])
    for b in fn.blocking:
        if b.tagged:
            continue
        s.blocking.setdefault(b.what, [[path, b.line, b.what]])
    for a in fn.allocs:
        if a.tagged:
            continue
        s.allocs.setdefault(a.what,
                            [[path, a.line, f"allocates ({a.what})"]])
    return s


def _absorb(dst: Dict, src: Dict, hop: List) -> bool:
    changed = False
    for key, trace in src.items():
        if key in dst or len(trace) >= MAX_TRACE_HOPS:
            continue
        dst[key] = [hop] + trace
        changed = True
    return changed


def build_summaries(project: ProjectFacts, reg: Registry,
                    resolver: Resolver) -> Dict[str, FunctionSummary]:
    """Fixpoint `FunctionSummary` for every function in the project,
    keyed by `fn_key`. Cycles (recursion, mutual recursion) are handled
    by iterating each SCC to a fixpoint; SCCs are processed callees
    first, so cross-SCC summaries are final when absorbed."""
    nodes: List[str] = []
    by_key: Dict[str, Tuple[str, FunctionFacts]] = {}
    for ff, fn in project.all_functions():
        key = fn_key(ff.path, fn)
        if key in by_key:           # identical redefinition; keep first
            continue
        by_key[key] = (ff.path, fn)
        nodes.append(key)
    # Resolve every call site once; edges carry the call site with them
    # so traces can name the line.
    call_edges: Dict[str, List[Tuple[CallSite, str]]] = {}
    edges: Dict[str, List[str]] = {}
    for key in nodes:
        path, fn = by_key[key]
        outs: List[Tuple[CallSite, str]] = []
        for call in fn.calls:
            for cpath, cfn in resolver.resolve_call(path, fn, call.line,
                                                    call.name):
                ckey = fn_key(cpath, cfn)
                if ckey in by_key:
                    outs.append((call, ckey))
        call_edges[key] = outs
        edges[key] = [ckey for _, ckey in outs]
    summaries: Dict[str, FunctionSummary] = {}
    for scc in _tarjan_sccs(nodes, edges):
        member = set(scc)
        for key in scc:
            path, fn = by_key[key]
            summaries[key] = _direct_summary(path, fn, reg)
        changed = True
        while changed:
            changed = False
            for key in scc:
                path, _fn = by_key[key]
                s = summaries[key]
                for call, ckey in call_edges[key]:
                    if ckey == key:
                        continue
                    cs = summaries.get(ckey)
                    if cs is None:      # forward edge into a later SCC
                        continue        # (impossible by emission order)
                    hop = [path, call.line, f"calls {call.name}"]
                    changed |= _absorb(s.ranks, cs.ranks, hop)
                    changed |= _absorb(s.blocking, cs.blocking, hop)
                    if not call.alloc_ok:
                        changed |= _absorb(s.allocs, cs.allocs, hop)
            if len(member) == 1:
                break                   # no cycle: one pass suffices
    return summaries
