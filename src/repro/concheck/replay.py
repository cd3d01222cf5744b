"""Guided replay: validate mapped KISS traces against concurrent semantics.

The paper's completeness claim is that every error KISS reports is a
real error of the concurrent program, witnessed by the mapped trace.
This module *checks* that, trace by trace: a
:class:`~repro.core.tracemap.ConcurrentTrace` is replayed as a schedule
constraint over the original concurrent program —

* each ``step`` entry obliges the named thread to execute the named
  original statement next (navigation nodes in between are free),
* ``spawn`` entries oblige the thread to execute the original ``async``,
* ``access`` entries (race traces) oblige the thread to *reach and
  execute* the access statement.

Replay succeeds if the schedule is feasible, and for assertion traces if
executing the final step raises the expected assertion violation.
Internal branch points (lowered ``choice`` heads) are resolved by DFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.cfg.build import build_program_cfg
from repro.cfg.graph import Node, ProgramCfg
from repro.core.tracemap import ConcurrentTrace, PlanStep
from repro.lang.ast import Program
from repro.seqcheck.interp import Interp, Violation
from repro.seqcheck.state import Frame, FuncVal, Store, default_value

from .interleave import ConWorld


@dataclass
class ReplayResult:
    ok: bool
    reason: str = ""
    steps_executed: int = 0


class _ReplayFailure(Exception):
    pass


class TraceReplayer:
    """DFS over the concurrent transition system under a schedule plan."""

    MAX_SILENT_STEPS = 300  # navigation steps allowed between plan entries

    def __init__(self, prog: Program, max_nodes: int = 200_000):
        self.pcfg: ProgramCfg = build_program_cfg(prog)
        self.prog = prog
        self.interp = Interp(self.pcfg)
        self.max_nodes = max_nodes
        self._expanded = 0

    # -- public -----------------------------------------------------------------

    def replay(self, trace: ConcurrentTrace, expect: str = "error") -> ReplayResult:
        """``expect`` is ``"error"`` (final step must fail an assertion)
        or ``"feasible"`` (the schedule must merely be executable)."""
        plan = list(trace.steps)
        init = self._initial()
        self._expanded = 0
        try:
            ok = self._dfs(init, plan, 0, 0, expect, set())
        except _ReplayFailure as exc:
            return ReplayResult(False, str(exc))
        if ok:
            return ReplayResult(True, steps_executed=len(plan))
        return ReplayResult(False, "no execution realizes the mapped schedule")

    # -- machinery ------------------------------------------------------------------

    def _initial(self) -> ConWorld:
        return ConWorld(self.interp.initial_world(), [0], 1)

    @staticmethod
    def _observable(node: Node) -> bool:
        if node.kind in ("call", "return"):
            return False  # the mapper folds calls/returns into contexts
        if node.kind == "skip":
            # user `skip;` statements are mapped steps; choice/iter heads
            # and other synthesized skips are free navigation
            return node.origin.tag == "user" and node.stmt is not None
        return node.origin.sid != 0

    def _dfs(
        self,
        cw: ConWorld,
        plan: List[PlanStep],
        i: int,
        silent: int,
        expect: str,
        visited: Set,
    ) -> bool:
        self._expanded += 1
        if self._expanded > self.max_nodes:
            raise _ReplayFailure("replay search budget exceeded")
        if i == len(plan):
            return True  # full schedule realized (errors return earlier)
        if silent > self.MAX_SILENT_STEPS:
            return False
        key = (self.interp.freezer.freeze(cw.world.store, cw.world.stacks), tuple(cw.tids), i)
        if key in visited:
            return False
        visited.add(key)

        step = plan[i]
        if step.tid not in cw.tids:
            return False
        idx = cw.tids.index(step.tid)
        frame = cw.world.stacks[idx][-1]
        node = self.pcfg.cfg(frame.func).node(frame.node)
        last = i == len(plan) - 1

        if self._observable(node):
            if not self._matches(node, step):
                return False
            try:
                succs = self._execute(cw, idx, node)
            except Violation as v:
                if last and expect == "error" and v.kind == "assert":
                    return True
                return False
            if last and expect == "error":
                return False  # expected the final step to fail
            for succ in succs:
                if self._dfs(succ, plan, i + 1, 0, expect, visited):
                    return True
            if not succs and last and expect == "feasible":
                # the final access blocked (e.g. a trailing assume) — the
                # statement was still reached; treat reaching it as enough
                return False
            return False

        # navigation / call / return: free moves
        try:
            succs = self._execute(cw, idx, node)
        except Violation:
            return False
        for succ in succs:
            if self._dfs(succ, plan, i, silent + 1, expect, visited):
                return True
        return False

    def _matches(self, node: Node, step: PlanStep) -> bool:
        if step.kind == "spawn":
            return node.kind == "async" and node.stmt.sid == step.sid
        if node.kind == "async":
            return False
        return node.origin.sid == step.sid

    # one scheduled step of thread idx; returns successor configurations
    def _execute(self, cw: ConWorld, idx: int, node: Node) -> List[ConWorld]:
        kind = node.kind
        if kind == "return":
            return self._exec_return(cw, idx, node)
        if kind == "call":
            c = cw.clone()
            frame = c.world.stacks[idx][-1]
            stmt = node.stmt
            callee = self._resolve(stmt.func.name, frame, c.world.store, node)
            args = [self.interp.eval_atom(a, frame, c.world.store) for a in stmt.args]
            c.world.stacks[idx].append(self.interp.new_frame(callee, args, c.world.store))
            return [c]
        if kind == "async":
            c = cw.clone()
            frame = c.world.stacks[idx][-1]
            stmt = node.stmt
            callee = self._resolve(stmt.func.name, frame, c.world.store, node)
            args = [self.interp.eval_atom(a, frame, c.world.store) for a in stmt.args]
            c.world.stacks.append([self.interp.new_frame(callee, args, c.world.store)])
            c.tids.append(c.next_tid)
            c.next_tid += 1
            return self._advance(c, idx, node)
        if kind == "atomic":
            out: List[ConWorld] = []
            for w in self.interp.run_atomic(cw.world, idx, node):
                out.extend(self._advance(ConWorld(w, list(cw.tids), cw.next_tid), idx, node))
            return out
        c = cw.clone()
        ok = self.interp.exec_simple(node, c.world.top(idx), c.world.store, c.world)
        if not ok:
            return []
        return self._advance(c, idx, node)

    def _advance(self, c: ConWorld, idx: int, node: Node) -> List[ConWorld]:
        out = []
        for j, succ in enumerate(node.succs):
            c2 = c.clone() if j + 1 < len(node.succs) else c
            c2.world.top(idx).node = succ
            out.append(c2)
        return out

    def _resolve(self, name: str, frame: Frame, store: Store, node: Node) -> str:
        if name in frame.locals or name in store.globals:
            v = frame.locals.get(name, store.globals.get(name))
            if not isinstance(v, FuncVal) or v.name not in self.prog.functions:
                raise Violation("bad-call", f"indirect call through {v!r}", node)
            return v.name
        if name in self.prog.functions:
            return name
        raise Violation("undef-call", f"unknown function {name}", node)

    def _exec_return(self, cw: ConWorld, idx: int, node: Node) -> List[ConWorld]:
        c = cw.clone()
        stack = c.world.stacks[idx]
        frame = stack[-1]
        decl = self.prog.function(frame.func)
        stmt = node.stmt
        if stmt.value is not None:
            value = self.interp.eval_atom(stmt.value, frame, c.world.store)
        elif decl.ret is not None:
            value = default_value(decl.ret)
        else:
            value = None
        stack.pop()
        if not stack:
            del c.world.stacks[idx]
            del c.tids[idx]
            return [c]
        caller = c.world.top(idx)
        call_node = self.pcfg.cfg(caller.func).node(caller.node)
        if call_node.kind != "call":
            raise Violation("internal", "return into non-call", node)
        if call_node.stmt.lhs is not None and value is not None:
            self.interp._write_var(call_node.stmt.lhs.name, value, caller, c.world.store)
        return self._advance(c, idx, call_node)


def replay_trace(prog: Program, trace: ConcurrentTrace, expect: str = "error") -> ReplayResult:
    """Validate a mapped trace against the original concurrent program."""
    return TraceReplayer(prog).replay(trace, expect=expect)
