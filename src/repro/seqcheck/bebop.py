"""Summary-based interprocedural reachability for boolean programs.

This is the Bebop role in SLAM: the RHS (Reps–Horwitz–Sagiv) tabulation
algorithm specialized to boolean programs.  *Path edges*
``⟨entry valuation⟩ → ⟨point, valuation⟩`` are tabulated per procedure;
*summaries* ``⟨globals, args⟩ → ⟨globals', rets⟩`` shortcut calls.  The
running time is ``O(|C| · 4^(g+l))`` in the worst case — the
``O(|C| · 2^(g+l))`` bound the paper cites for the sequential backend
(per entry valuation).

An ``assert`` whose condition can be false at a reachable valuation
yields a hierarchical error trace, reconstructed from back-pointers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .boolprog import (
    BAssert,
    BAssign,
    BAssume,
    BCall,
    BConst,
    BExpr,
    BGoto,
    BProc,
    BProgram,
    BReturn,
    BSkip,
    BStmt,
    eval_bexpr,
)

Valuation = Tuple[bool, ...]  # globals or frame variables, in declared order


@dataclass
class BebopResult:
    safe: bool
    error_proc: Optional[str] = None
    error_index: Optional[int] = None
    message: str = ""
    trace: List[Tuple[str, int, str]] = field(default_factory=list)  # (proc, index, text)
    path_edges: int = 0
    summaries: int = 0
    #: When collection was requested and the program is safe: every
    #: reached valuation per point, ``{(proc, pc): {(g, l), ...}}``
    #: (pre-statement, like the path edges they are projected from).
    reached: Optional[Dict[Tuple[str, int], Set[Tuple[Valuation, Valuation]]]] = None


# A path edge within a procedure:
#   (g_in, l_in)  — valuation at procedure entry
#   (pc, g, l)    — current point and valuation
Edge = Tuple[Valuation, Valuation, int, Valuation, Valuation]


class BebopChecker:
    """The RHS tabulation engine (see module doc)."""
    def __init__(self, prog: BProgram, max_edges: int = 2_000_000,
                 collect_reached: bool = False):
        prog.validate()
        self.prog = prog
        self.max_edges = max_edges
        self.collect_reached = collect_reached
        self._labels: Dict[str, Dict[str, int]] = {
            p.name: p.label_index() for p in prog.procs.values()
        }

    # -- helpers ---------------------------------------------------------------

    def _env(self, proc: BProc, g: Valuation, l: Valuation) -> Dict[str, bool]:
        env = dict(zip(self.prog.globals, g))
        env.update(zip(proc.frame_vars, l))
        return env

    def _pack(self, proc: BProc, env: Dict[str, bool]) -> Tuple[Valuation, Valuation]:
        return (
            tuple(env[x] for x in self.prog.globals),
            tuple(env[x] for x in proc.frame_vars),
        )

    def _eval_all(self, exprs: List[BExpr], env: Dict[str, bool]) -> List[List[bool]]:
        """Cartesian evaluation of a list of expressions (``*`` branches)."""
        results: List[List[bool]] = [[]]
        for e in exprs:
            vals = eval_bexpr(e, env)
            results = [prefix + [v] for prefix in results for v in vals]
        return results

    # -- the tabulation ----------------------------------------------------------

    def check(self) -> BebopResult:
        prog = self.prog
        entry_proc = prog.proc(prog.entry)
        g0 = tuple(False for _ in prog.globals)
        l0 = tuple(False for _ in entry_proc.frame_vars)

        # tabulated edges and back-pointers for trace rebuilding,
        # keyed by (proc, edge) — edge tuples alone are ambiguous across procs
        edges: Set[Tuple[str, Edge]] = set()
        # parent[(proc, edge)] = ((proc', edge'), text) or ("call", ...) or ("root",)
        parent: Dict[Tuple[str, Edge], Tuple] = {}
        # summaries[proc][(g_in, l_in)] = set of (g_out, rets)
        summaries: Dict[str, Dict[Tuple[Valuation, Valuation], Set[Tuple[Valuation, Tuple[bool, ...]]]]] = {
            p: {} for p in prog.procs
        }
        # callers waiting on a summary: callers[(proc, g_in, l_in)] = list of (caller_edge, call_stmt)
        waiting: Dict[Tuple[str, Valuation, Valuation], List[Tuple[str, Edge]]] = {}
        # entry contexts already seeded per proc
        seeded: Set[Tuple[str, Valuation, Valuation]] = set()

        work: deque = deque()

        def add_edge(proc_name: str, e: Edge, via: Tuple) -> None:
            key = (proc_name, e)
            if key in edges:
                return
            edges.add(key)
            parent[key] = via
            work.append((proc_name, e))

        def seed(proc_name: str, g_in: Valuation, l_in: Valuation, via: Tuple) -> None:
            key = (proc_name, g_in, l_in)
            e = (g_in, l_in, 0, g_in, l_in)
            if key not in seeded:
                seeded.add(key)
            add_edge(proc_name, e, via)

        seed(prog.entry, g0, l0, ("root",))

        while work:
            if len(edges) > self.max_edges:
                return BebopResult(False, message="path-edge budget exceeded")
            proc_name, edge = work.popleft()
            proc = prog.proc(proc_name)
            g_in, l_in, pc, g, l = edge
            if pc >= len(proc.body):
                stmt: BStmt = BReturn([])  # implicit return (nrets must be 0)
                if proc.nrets:
                    # falling off a value-returning proc: treat as returning
                    # all-False (mirrors the concrete checker's defaults)
                    stmt = BReturn([BConst(False)] * proc.nrets)
            else:
                stmt = proc.body[pc]
            env = self._env(proc, g, l)

            if isinstance(stmt, (BSkip,)):
                g2, l2 = self._pack(proc, env)
                add_edge(proc_name, (g_in, l_in, pc + 1, g2, l2), ((proc_name, edge), str(stmt)))
            elif isinstance(stmt, BAssign):
                for values in self._eval_all(stmt.exprs, env):
                    env2 = dict(env)
                    for t, v in zip(stmt.targets, values):
                        env2[t] = v
                    g2, l2 = self._pack(proc, env2)
                    add_edge(proc_name, (g_in, l_in, pc + 1, g2, l2), ((proc_name, edge), str(stmt)))
            elif isinstance(stmt, BAssume):
                if True in eval_bexpr(stmt.cond, env):
                    add_edge(proc_name, (g_in, l_in, pc + 1, g, l), ((proc_name, edge), str(stmt)))
            elif isinstance(stmt, BAssert):
                vals = eval_bexpr(stmt.cond, env)
                if False in vals:
                    trace = self._rebuild_trace(parent, (proc_name, edge))
                    trace.append((proc_name, pc, str(stmt)))
                    return BebopResult(
                        False,
                        error_proc=proc_name,
                        error_index=pc,
                        message=f"assertion may fail: {stmt}",
                        trace=trace,
                        path_edges=len(edges),
                        summaries=sum(len(v) for s in summaries.values() for v in s.values()),
                    )
                add_edge(proc_name, (g_in, l_in, pc + 1, g, l), ((proc_name, edge), str(stmt)))
            elif isinstance(stmt, BGoto):
                for lbl in stmt.labels:
                    target = self._labels[proc_name][lbl]
                    add_edge(proc_name, (g_in, l_in, target, g, l), ((proc_name, edge), str(stmt)))
            elif isinstance(stmt, BReturn):
                for values in self._eval_all(stmt.exprs, env):
                    rets = tuple(values)
                    summ = summaries[proc_name].setdefault((g_in, l_in), set())
                    item = (g, rets)
                    if item in summ:
                        continue
                    summ.add(item)
                    for caller_name, caller_edge in waiting.get((proc_name, g_in, l_in), []):
                        self._apply_summary(caller_name, caller_edge, g, rets, add_edge, parent)
            elif isinstance(stmt, BCall):
                callee = prog.proc(stmt.proc)
                for argvals in self._eval_all(stmt.args, env):
                    l_callee = tuple(argvals) + tuple(False for _ in callee.locals)
                    key = (stmt.proc, g, l_callee)
                    waiting.setdefault(key, []).append((proc_name, edge))
                    seed(stmt.proc, g, l_callee, ("call", edge, proc_name))
                    for g_out, rets in summaries[stmt.proc].get((g, l_callee), set()):
                        self._apply_summary(proc_name, edge, g_out, rets, add_edge, parent)
            else:
                raise TypeError(f"unknown statement {stmt!r}")

        reached: Optional[Dict[Tuple[str, int], Set[Tuple[Valuation, Valuation]]]] = None
        if self.collect_reached:
            # Project the tabulated path edges down to per-point reached
            # valuations — the raw material of a predicate-invariant
            # witness (points past the body end are implicit returns).
            reached = {}
            for proc_name, (_, _, pc, g, l) in edges:
                if pc < len(prog.proc(proc_name).body):
                    reached.setdefault((proc_name, pc), set()).add((g, l))
        return BebopResult(
            True,
            path_edges=len(edges),
            summaries=sum(len(v) for s in summaries.values() for v in s.values()),
            reached=reached,
        )

    def _apply_summary(self, caller_name, caller_edge, g_out, rets, add_edge, parent) -> None:
        proc = self.prog.proc(caller_name)
        g_in, l_in, pc, g, l = caller_edge
        stmt = proc.body[pc]
        env = self._env(proc, g_out, l)  # globals from callee exit, locals unchanged
        for t, v in zip(stmt.rets, rets):
            env[t] = v
        g2, l2 = self._pack(proc, env)
        add_edge(caller_name, (g_in, l_in, pc + 1, g2, l2), ((caller_name, caller_edge), f"{stmt} [summary]"))

    @staticmethod
    def _rebuild_trace(parent: Dict, key: Tuple[str, Edge]) -> List[Tuple[str, int, str]]:
        # walk back-pointers within and across procedures; the trace lists
        # (proc, stmt-index, text) oldest-first.  Steps hidden inside
        # applied summaries are elided (the CEGAR loop re-derives precise
        # traces with the explicit executor below).
        steps: List[Tuple[str, int, str]] = []
        seen = set()
        cur = key
        while True:
            if cur in seen:
                break
            seen.add(cur)
            via = parent.get(cur)
            if via is None or via[0] == "root":
                break
            if via[0] == "call":
                _, caller_edge, caller_name = via
                cur = (caller_name, caller_edge)
                continue
            prev_key, text = via
            steps.append((prev_key[0], prev_key[1][2], text))
            cur = prev_key
        steps.reverse()
        return steps


def check_boolean_program(prog: BProgram, max_edges: int = 2_000_000,
                          collect_reached: bool = False) -> BebopResult:
    """Reachability check of a boolean program's assertions."""
    from repro import obs

    with obs.span("bebop", procs=len(prog.procs)):
        result = BebopChecker(prog, max_edges=max_edges,
                              collect_reached=collect_reached).check()
    obs.inc("bebop_path_edges", result.path_edges)
    obs.inc("bebop_summaries", result.summaries)
    return result


# ---------------------------------------------------------------------------
# Explicit trace extraction (used by the CEGAR loop)
# ---------------------------------------------------------------------------


def find_error_trace(
    prog: BProgram, max_states: int = 500_000
) -> Optional[List[Tuple[str, int, BStmt]]]:
    """BFS over concrete boolean-program configurations, returning the
    shortest statement-level trace to a failing assertion, or None.

    The Bebop tabulation answers reachability fast but its summary-based
    back-pointers elide callee steps; the CEGAR loop needs every executed
    statement to build the concrete path condition, so it re-derives the
    trace here (boolean programs produced by abstraction are small).
    """
    from repro import obs

    prog.validate()
    labels = {p.name: p.label_index() for p in prog.procs.values()}
    entry = prog.proc(prog.entry)
    g0 = tuple(False for _ in prog.globals)
    l0 = tuple(False for _ in entry.frame_vars)
    # configuration: (globals, stack of (proc, pc, frame-valuation))
    init = (g0, ((prog.entry, 0, l0),))
    parents: Dict[Tuple, Optional[Tuple[Tuple, Tuple[str, int, BStmt]]]] = {init: None}
    queue: deque = deque([init])

    def env_of(proc: BProc, g, l) -> Dict[str, bool]:
        env = dict(zip(prog.globals, g))
        env.update(zip(proc.frame_vars, l))
        return env

    def rebuild(cfg) -> List[Tuple[str, int, BStmt]]:
        steps = []
        cur = cfg
        while parents.get(cur) is not None:
            prev, step = parents[cur]
            steps.append(step)
            cur = prev
        steps.reverse()
        return steps

    def eval_tuple(exprs, env):
        results = [[]]
        for e in exprs:
            vals = eval_bexpr(e, env)
            results = [p + [v] for p in results for v in vals]
        return [tuple(r) for r in results]

    while queue:
        cfg = queue.popleft()
        if len(parents) > max_states:
            return None
        g, stack = cfg
        if not stack:
            continue
        proc_name, pc, l = stack[-1]
        proc = prog.proc(proc_name)
        if pc >= len(proc.body):
            stmt: BStmt = BReturn([BConst(False)] * proc.nrets)
        else:
            stmt = proc.body[pc]
        env = env_of(proc, g, l)
        step = (proc_name, pc, stmt)
        succs: List[Tuple] = []
        if isinstance(stmt, BSkip):
            succs.append((g, stack[:-1] + ((proc_name, pc + 1, l),)))
        elif isinstance(stmt, BAssign):
            for values in eval_tuple(stmt.exprs, env):
                env2 = dict(env)
                for t, v in zip(stmt.targets, values):
                    env2[t] = v
                g2 = tuple(env2[x] for x in prog.globals)
                l2 = tuple(env2[x] for x in proc.frame_vars)
                succs.append((g2, stack[:-1] + ((proc_name, pc + 1, l2),)))
        elif isinstance(stmt, BAssume):
            if True in eval_bexpr(stmt.cond, env):
                succs.append((g, stack[:-1] + ((proc_name, pc + 1, l),)))
        elif isinstance(stmt, BAssert):
            if False in eval_bexpr(stmt.cond, env):
                return rebuild(cfg) + [step]
            succs.append((g, stack[:-1] + ((proc_name, pc + 1, l),)))
        elif isinstance(stmt, BGoto):
            for lbl in stmt.labels:
                succs.append((g, stack[:-1] + ((proc_name, labels[proc_name][lbl], l),)))
        elif isinstance(stmt, BCall):
            callee = prog.proc(stmt.proc)
            for argvals in eval_tuple(stmt.args, env):
                lc = argvals + tuple(False for _ in callee.locals)
                succs.append((g, stack + ((stmt.proc, 0, lc),)))
        elif isinstance(stmt, BReturn):
            for values in eval_tuple(stmt.exprs, env):
                if len(stack) == 1:
                    succs.append((g, ()))
                    continue
                caller_name, caller_pc, caller_l = stack[-2]
                caller = prog.proc(caller_name)
                call_stmt = caller.body[caller_pc]
                env2 = env_of(caller, g, caller_l)
                for t, v in zip(call_stmt.rets, values):
                    env2[t] = v
                g2 = tuple(env2[x] for x in prog.globals)
                l2 = tuple(env2[x] for x in caller.frame_vars)
                succs.append((g2, stack[:-2] + ((caller_name, caller_pc + 1, l2),)))
        for s in succs:
            if s not in parents:
                parents[s] = (cfg, step)
                queue.append(s)
    return None
