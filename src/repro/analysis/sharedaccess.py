"""Shared-global access analysis.

Answers one question about a concurrent core program: *which globals can
actually be touched by two different dynamic threads* (with at least one
of the touches a write)?  Everything else is thread-local traffic — a
statement over such globals is invisible to every other thread, so a
sequentialization does not need a context-switch point in front of it.
This is the ``__globalMemoryAccessed`` trick of Lazy-CSeq/VeriSmart,
used here as a cheap partial-order reduction (POR):

* :class:`repro.lazy.transform.LazyTransformer` (``por=True``) restricts
  segment-end points to statements over shared globals (plus the
  blocking/spawn points that can never be pruned);
* :class:`repro.core.transform.KissTransformer` (``por=True``) drops the
  ``schedule(); choice{skip [] RAISE}`` prefix before purely-local
  statements.

The analysis is deliberately conservative — over-approximating the
shared set only costs pruning, never soundness:

* **thread roots**: the entry function runs once; every ``async`` site
  with a direct target adds a root for that function, with multiplicity
  2 ("many") when the site can execute more than once (it sits under an
  ``iter``, or its spawning function itself has multiplicity >= 2);
* **access closure**: a root's reads/writes are those of its function
  plus everything reachable through direct synchronous calls;
* a global is **shared** iff the root multiplicities of its accessors
  sum to >= 2 and at least one accessor writes it;
* any *indirect* control flow (``async`` through a function variable, a
  call through a local/global) defeats the root accounting, so the
  analysis falls back to "every written global is shared" (recorded in
  ``SharedAccessInfo.fallback``).

Heap cells are outside the analysis entirely: callers must treat any
statement with ``malloc``/pointer/field traffic as shared (see
``SharedAccessInfo.has_heap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.lang.ast import (
    Assign,
    AsyncCall,
    Call,
    Field,
    FuncDecl,
    Iter,
    Malloc,
    Program,
    Stmt,
    Unary,
    Var,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)

#: Multiplicity cap: the analysis only distinguishes "once" from "many".
MANY = 2


@dataclass
class SharedAccessInfo:
    """The analysis result.

    ``shared`` is the set of global names accessible from >= 2 dynamic
    threads with at least one write; ``roots`` maps each thread root
    (entry or async-spawned function) to its multiplicity;
    ``fallback`` records that indirect calls/spawns forced the
    conservative answer; ``has_heap`` flags any malloc/pointer/field
    traffic anywhere (heap cells are never classified local).
    """

    shared: Set[str] = field(default_factory=set)
    roots: Dict[str, int] = field(default_factory=dict)
    fallback: bool = False
    has_heap: bool = False


def _direct_target(prog: Program, func: FuncDecl, callee: Var) -> bool:
    """A call/async target names a function directly (not a value)."""
    local_names = set(func.locals) | {p.name for p in func.params}
    return (
        callee.name in prog.functions
        and callee.name not in local_names
        and callee.name not in prog.globals
    )


def _direct_accesses(prog: Program, func: FuncDecl) -> Tuple[Set[str], Set[str]]:
    """(reads, writes) of globals performed directly by ``func``'s body
    (call arguments count as reads; callee bodies are handled by the
    closure, async targets by their own roots)."""
    shadowed = set(func.locals) | {p.name for p in func.params}
    reads: Set[str] = set()
    writes: Set[str] = set()

    def note_expr(e, skip: Var = None) -> None:
        for sub in walk_exprs(e):
            if sub is skip:
                continue
            if isinstance(sub, Var) and sub.name in prog.globals and sub.name not in shadowed:
                reads.add(sub.name)

    for s in walk_stmts(func.body):
        target = None
        if isinstance(s, (Assign, Malloc)):
            target = s.lhs
        elif isinstance(s, Call):
            target = s.lhs
        if isinstance(target, Var) and target.name in prog.globals and target.name not in shadowed:
            writes.add(target.name)
        for e in stmt_exprs(s):
            # The written Var itself is not a read; everything else is.
            note_expr(e, skip=target if e is target else None)
    return reads, writes


def _has_heap_traffic(prog: Program) -> bool:
    for func in prog.functions.values():
        for s in walk_stmts(func.body):
            if isinstance(s, Malloc):
                return True
            for e in stmt_exprs(s):
                for sub in walk_exprs(e):
                    if isinstance(sub, Field):
                        return True
                    if isinstance(sub, Unary) and sub.op in ("*", "&"):
                        return True
    return False


def _under_iter(func: FuncDecl, target: Stmt) -> bool:
    """Is ``target`` nested (at any depth) inside an ``iter``?"""
    for s in walk_stmts(func.body):
        if isinstance(s, Iter):
            for inner in walk_stmts(s.body):
                if inner is target:
                    return True
    return False


def _all_written(prog: Program) -> Set[str]:
    written: Set[str] = set()
    for func in prog.functions.values():
        _, w = _direct_accesses(prog, func)
        written |= w
    return written


def analyze_shared_access(prog: Program) -> SharedAccessInfo:
    """Run the analysis on a (core or surface) program AST."""
    info = SharedAccessInfo(has_heap=_has_heap_traffic(prog))

    # -- indirect control flow defeats the accounting -------------------
    for func in prog.functions.values():
        for s in walk_stmts(func.body):
            if isinstance(s, (Call, AsyncCall)) and not _direct_target(prog, func, s.func):
                info.fallback = True
                info.shared = set(_all_written(prog))
                info.roots = {prog.entry: 1}
                return info

    # -- thread roots with multiplicity (Kleene fixpoint, capped) -------
    spawn_sites: List[Tuple[str, str, bool]] = []  # (spawner, target, looped)
    for func in prog.functions.values():
        for s in walk_stmts(func.body):
            if isinstance(s, AsyncCall):
                spawn_sites.append((func.name, s.func.name, _under_iter(func, s)))
    mult: Dict[str, int] = {name: 0 for name in prog.functions}
    if prog.entry in mult:
        mult[prog.entry] = 1
    while True:
        fresh: Dict[str, int] = {name: 0 for name in prog.functions}
        if prog.entry in fresh:
            fresh[prog.entry] = 1
        for spawner, target, looped in spawn_sites:
            m = mult.get(spawner, 0)
            if m == 0:
                continue
            add = MANY if (looped or m >= MANY) else 1
            fresh[target] = min(MANY, fresh.get(target, 0) + add)
        if prog.entry in fresh and fresh[prog.entry] < mult.get(prog.entry, 1):
            fresh[prog.entry] = mult[prog.entry]
        if fresh == mult:
            break
        mult = fresh
    info.roots = {name: m for name, m in mult.items() if m > 0 and (
        name == prog.entry or any(t == name for _, t, _ in spawn_sites))}

    # -- per-root access closure over direct calls ----------------------
    direct: Dict[str, Tuple[Set[str], Set[str]]] = {
        name: _direct_accesses(prog, f) for name, f in prog.functions.items()
    }
    callees: Dict[str, Set[str]] = {name: set() for name in prog.functions}
    for func in prog.functions.values():
        for s in walk_stmts(func.body):
            if isinstance(s, Call):
                callees[func.name].add(s.func.name)

    def closure(root: str) -> Tuple[Set[str], Set[str]]:
        reads: Set[str] = set()
        writes: Set[str] = set()
        seen: Set[str] = set()
        work = [root]
        while work:
            f = work.pop()
            if f in seen or f not in direct:
                continue
            seen.add(f)
            r, w = direct[f]
            reads |= r
            writes |= w
            work.extend(callees[f])
        return reads, writes

    access_mult: Dict[str, int] = {}
    write_mult: Dict[str, int] = {}
    for root, m in info.roots.items():
        reads, writes = closure(root)
        for g in reads | writes:
            access_mult[g] = access_mult.get(g, 0) + m
        for g in writes:
            write_mult[g] = write_mult.get(g, 0) + m
    info.shared = {
        g for g, n in access_mult.items() if n >= 2 and write_mult.get(g, 0) >= 1
    }
    return info


def shared_globals(prog: Program) -> Set[str]:
    """Convenience wrapper: just the shared-global name set."""
    return analyze_shared_access(prog).shared
